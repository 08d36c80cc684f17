"""End-to-end command tests: synth -> prepare -> train -> predict -> evaluate."""

from __future__ import annotations

import numpy as np
import pytest

from adinstall import ingest
from adinstall.cli import _read_predictions, main
from adinstall.errors import DataFormatError
from adinstall.network import load_params, save_params

FAST = [
    "--rows", "700", "--test-rows", "120", "--cat-vocabs", "6,10",
    "--n-binary", "2", "--n-numerical", "4",
]
TINY_MODEL = ["--trunk", "8", "--max-epochs", "3", "--patience", "2", "--batch-size", "128"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workspace(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, err = run(capsys, "synth", "--out-dir", str(out), "--seed", "5", *FAST)
    assert code == 0, err
    return out


def test_synth_writes_expected_files(workspace):
    assert (workspace / "train.tsv").exists()
    assert (workspace / "test.tsv").exists()
    assert (workspace / "schema.txt").exists()
    header = (workspace / "train.tsv").read_text().splitlines()[0]
    assert header.startswith("f_0\t") and header.endswith("is_clicked\tis_installed")


def trained(workspace, capsys, *train_args):
    out = str(workspace)
    run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
        "--train-file", f"{out}/train.tsv", "--out-dir", out)
    code, _, err = run(capsys, "train", "--train-file", f"{out}/train.tsv", "--out-dir", out,
                       *TINY_MODEL, *train_args)
    assert code == 0, err
    return out


def test_full_workflow(workspace, capsys, monkeypatch):
    out = str(workspace)
    code, stdout, _ = run(
        capsys, "prepare", "--schema-file", f"{out}/schema.txt",
        "--train-file", f"{out}/train.tsv", "--out-dir", out,
    )
    assert code == 0
    assert "dropped constant columns" in stdout
    assert "pipeline written" in stdout

    code, stdout, _ = run(
        capsys, "train", "--train-file", f"{out}/train.tsv", "--out-dir", out,
        *TINY_MODEL, "--seed", "3",
    )
    assert code == 0
    assert "early stopping: best epoch" in stdout
    assert (workspace / "model_val.bin").exists()
    assert (workspace / "model_full.bin").exists()
    assert (workspace / "history.tsv").exists()
    history = (workspace / "history.tsv").read_text().splitlines()
    assert history[0].split("\t")[0] == "epoch"

    code, stdout, _ = run(
        capsys, "predict", "--test-file", f"{out}/test.tsv", "--out-dir", out,
    )
    assert code == 0
    submission = (workspace / "submission.tsv").read_text().splitlines()
    assert submission[0] == "row_id\tis_clicked\tis_installed"
    assert len(submission) - 1 == 120
    first = submission[1].split("\t")
    assert first[1] == "0.500000000"  # one-head model: placeholder column
    assert 0.0 < float(first[2]) < 1.0
    assert "placeholder" in stdout

    code, stdout, _ = run(
        capsys, "evaluate", "--data-file", f"{out}/train.tsv", "--out-dir", out,
        "--split-eval", "true", "--seed", "3",
    )
    assert code == 0
    assert "Training set (75%)" in stdout and "Validation set (25%)" in stdout
    assert "Log-Loss" in stdout
    assert (workspace / "metrics.tsv").exists()

    # with the default out-dir (.) the report lands in the working directory
    (workspace / "metrics.tsv").unlink()
    monkeypatch.chdir(workspace)
    code, _, err = run(capsys, "evaluate", "--data-file", "train.tsv")
    assert code == 0, err
    records = (workspace / "metrics.tsv").read_text().splitlines()
    assert any(r.startswith("is_installed\tAll rows\tlog_loss\t") for r in records)

    code, stdout, _ = run(
        capsys, "evaluate", "--data-file", f"{out}/train.tsv",
        "--predictions-file", f"{out}/submission.tsv", "--schema-file", f"{out}/schema.txt",
    )
    assert code == 1  # 700 labeled rows vs 120 predictions
    _, _, err = run(
        capsys, "evaluate", "--data-file", f"{out}/train.tsv",
        "--predictions-file", f"{out}/submission.tsv", "--schema-file", f"{out}/schema.txt",
    )
    assert "prediction rows" in err


def test_predict_accepts_labeled_test_file(workspace, capsys):
    out = str(workspace)
    run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
        "--train-file", f"{out}/train.tsv", "--out-dir", out)
    run(capsys, "train", "--train-file", f"{out}/train.tsv", "--out-dir", out, *TINY_MODEL)
    code, _, err = run(
        capsys, "predict", "--test-file", f"{out}/train.tsv", "--out-dir", out,
    )
    assert code == 0, err
    lines = (workspace / "submission.tsv").read_text().splitlines()
    assert len(lines) - 1 == 700


def test_two_head_training_and_predict(workspace, capsys):
    out = str(workspace)
    run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
        "--train-file", f"{out}/train.tsv", "--out-dir", out)
    code, stdout, err = run(
        capsys, "train", "--train-file", f"{out}/train.tsv", "--out-dir", out,
        *TINY_MODEL, "--heads", "is_clicked,is_installed",
    )
    assert code == 0, err
    code, stdout, _ = run(capsys, "predict", "--test-file", f"{out}/test.tsv", "--out-dir", out)
    assert code == 0
    first = (workspace / "submission.tsv").read_text().splitlines()[1].split("\t")
    assert float(first[1]) != 0.5 and float(first[2]) != 0.5
    assert "placeholder" not in stdout


def test_duplicated_trunk_per_head_training(workspace, capsys):
    out = str(workspace)
    run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
        "--train-file", f"{out}/train.tsv", "--out-dir", out)
    code, stdout, err = run(
        capsys, "train", "--train-file", f"{out}/train.tsv", "--out-dir", out,
        *TINY_MODEL, "--heads", "is_clicked,is_installed",
        "--trunk-sharing", "duplicated", "--monitor-mode", "per_head",
    )
    assert code == 0, err
    assert "per-head best" in stdout


def test_missing_schema_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "prepare", "--train-file", str(tmp_path / "none.tsv"),
        "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("adinstall: error: usage:")


def test_pipeline_hash_mismatch_refused(workspace, capsys):
    out = str(workspace)
    run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
        "--train-file", f"{out}/train.tsv", "--out-dir", out)
    run(capsys, "train", "--train-file", f"{out}/train.tsv", "--out-dir", out, *TINY_MODEL)
    pipeline = workspace / "pipeline.json"
    pipeline.write_text(pipeline.read_text() + "\n")  # hash changes, content equivalent
    code, _, err = run(capsys, "predict", "--test-file", f"{out}/test.tsv", "--out-dir", out)
    assert code == 1
    assert "PipelineMismatchError" in err


def test_model_without_pipeline_hash_refused(workspace, capsys):
    out = trained(workspace, capsys)
    params, stored = load_params(workspace / "model_full.bin")
    assert stored is not None
    save_params(params, workspace / "model_full.bin", pipeline_hash=None)
    for argv in (["predict", "--test-file", f"{out}/test.tsv"],
                 ["evaluate", "--data-file", f"{out}/train.tsv"]):
        code, _, err = run(capsys, *argv, "--out-dir", out)
        assert code == 1, argv
        assert "PipelineMismatchError" in err and "no pipeline hash" in err


def test_model_mode_evaluate_checks_pipeline_hash(workspace, capsys):
    out = trained(workspace, capsys)
    pipeline = workspace / "pipeline.json"
    pipeline.write_text(pipeline.read_text() + "\n")
    code, _, err = run(capsys, "evaluate", "--data-file", f"{out}/train.tsv", "--out-dir", out)
    assert code == 1
    assert "PipelineMismatchError" in err and "was trained with pipeline" in err
    assert not (workspace / "metrics.tsv").exists()


def test_submission_bytes_do_not_depend_on_write_chunk(workspace, capsys, monkeypatch):
    out = trained(workspace, capsys)
    written = []
    for rows in (ingest.CHUNK_ROWS, 7):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", rows)
        code, _, err = run(capsys, "predict", "--test-file", f"{out}/test.tsv", "--out-dir", out)
        assert code == 0, err
        written.append((workspace / "submission.tsv").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 121


def test_evaluate_skips_placeholder_column(workspace, capsys):
    out = trained(workspace, capsys)
    run(capsys, "predict", "--test-file", f"{out}/train.tsv", "--out-dir", out)
    code, stdout, err = run(
        capsys, "evaluate", "--data-file", f"{out}/train.tsv",
        "--predictions-file", f"{out}/submission.tsv", "--schema-file", f"{out}/schema.txt",
    )
    assert code == 0, err
    assert "Output 'is_clicked'" not in stdout
    assert "'is_clicked' holds only the 0.5 placeholder; not scored" in stdout
    assert "Output 'is_installed'" in stdout and "Log-Loss" in stdout


def test_config_file_with_overrides(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("rows = 600\ntest_rows = 80\nseed = 4\ncat_vocabs = 5,9\nn_binary = 2\nn_numerical = 4\n")
    out = tmp_path / "a"
    code, _, err = run(capsys, "synth", "--config", str(config), "--out-dir", str(out),
                       "--rows", "300")
    assert code == 0, err
    train_lines = (out / "train.tsv").read_text().splitlines()
    assert len(train_lines) - 1 == 300  # flag override wins over the file


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("wibble = 3\n")
    code, _, err = run(capsys, "synth", "--config", str(config), "--out-dir", str(tmp_path))
    assert code == 1
    assert "unknown config key" in err


def test_bad_predictions_cell_names_line(workspace, tmp_path, capsys):
    out = str(workspace)
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "row_id\tis_clicked\tis_installed\n"
        + "\n".join(f"{i}\t0.5\t0.5" for i in range(1, 700))
        + "\n700\t0.5\tnot_a_number\n"
    )
    code, _, err = run(
        capsys, "evaluate", "--data-file", f"{out}/train.tsv",
        "--predictions-file", str(preds), "--schema-file", f"{out}/schema.txt",
    )
    assert code == 1
    assert "line=701" in err and "is_installed" in err


PREDICTIONS_HEADER = "row_id\tis_clicked\tis_installed\n"


def test_read_predictions_across_chunks(tmp_path, monkeypatch):
    path = tmp_path / "preds.tsv"
    path.write_text(PREDICTIONS_HEADER + "a\t0.5\t0.25\n\nb\t0.5\t1e-3\r\nc\t0.5\t 1 \n")
    monkeypatch.setattr(ingest, "CHUNK_CHARS", 8)
    preds = _read_predictions(path, 3)
    assert preds["is_clicked"].tolist() == [0.5, 0.5, 0.5]
    assert preds["is_installed"].tolist() == [0.25, 1e-3, 1.0]


@pytest.mark.parametrize("body, line, column, message", [
    (["1\t0.5\t0.2", "", "2\t0.5", "3\tx\t0.1"], 4, None, "row has 2 fields, expected 3"),
    (["1\t0.5\t0.2", "2\tx\ty"], 3, "is_clicked", "non-numeric probability 'x'"),
    (["1\t0.5\t", "2\tx\t0.1"], 2, "is_installed", "non-numeric probability ''"),
])
def test_read_predictions_names_first_faulty_line(tmp_path, monkeypatch, body, line, column,
                                                  message):
    path = tmp_path / "preds.tsv"
    path.write_text(PREDICTIONS_HEADER + "\n".join(body) + "\n")
    monkeypatch.setattr(ingest, "CHUNK_CHARS", 8)
    with pytest.raises(DataFormatError, match=message) as exc:
        _read_predictions(path, len(body))
    assert (exc.value.line, exc.value.column) == (line, column)


def test_read_predictions_rejects_empty_file_and_bad_header(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty predictions file"):
        _read_predictions(path, 0)
    path.write_text("row_id\tis_installed\n1\t0.5\n")
    with pytest.raises(DataFormatError, match="expected header") as exc:
        _read_predictions(path, 1)
    assert exc.value.line == 1


def test_deterministic_reruns_are_byte_identical(tmp_path, capsys):
    outputs = []
    for name in ("x", "y"):
        out = tmp_path / name
        run(capsys, "synth", "--out-dir", str(out), "--seed", "9", *FAST)
        run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
            "--train-file", f"{out}/train.tsv", "--out-dir", str(out))
        run(capsys, "train", "--train-file", f"{out}/train.tsv", "--out-dir", str(out),
            *TINY_MODEL, "--seed", "9")
        run(capsys, "predict", "--test-file", f"{out}/test.tsv", "--out-dir", str(out))
        outputs.append(out)
    a, b = outputs
    for name in ("train.tsv", "test.tsv", "schema.txt", "pipeline.json",
                 "model_val.bin", "model_full.bin", "history.tsv", "submission.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
