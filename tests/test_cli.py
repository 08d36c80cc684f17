"""End-to-end command tests: synth -> prepare -> train -> predict -> evaluate."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from adinstall import cli, ingest, training
from adinstall.cli import _read_predictions, main
from adinstall.errors import DataFormatError
from adinstall.network import RowGrad, load_params, save_params

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


def test_module_form_runs_the_cli(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def module_cli(*argv):
        return subprocess.run([sys.executable, "-m", "adinstall.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = module_cli("synth", "--out-dir", str(tmp_path / "run"), "--seed", "5", *FAST)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "schema.txt").is_file()
    assert module_cli("no-such-command").returncode == 2


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

    # the submission is for test.tsv: its first row id is not train.tsv's
    code, _, err = run(
        capsys, "evaluate", "--data-file", f"{out}/train.tsv",
        "--predictions-file", f"{out}/submission.tsv", "--schema-file", f"{out}/schema.txt",
    )
    assert code == 1
    assert "row_id '701' where the data file has '1'" in err and "line=2" in err


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


def test_split_evaluate_scores_each_row_set_once(workspace, capsys, monkeypatch):
    out = trained(workspace, capsys, "--heads", "is_clicked,is_installed")
    calls = []

    def counting_predict(params, dataset):
        calls.append(dataset.n_rows)
        return training.predict(params, dataset)

    monkeypatch.setattr(cli, "predict", counting_predict)
    code, stdout, err = run(capsys, "evaluate", "--data-file", f"{out}/train.tsv",
                            "--out-dir", out, "--split-eval", "true")
    assert code == 0, err
    assert "Output 'is_clicked'" in stdout and "Output 'is_installed'" in stdout
    assert calls == [700]  # the file, scored once for both row sets


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


def test_evaluate_rejects_shuffled_submission(workspace, tmp_path, capsys):
    out = trained(workspace, capsys)
    run(capsys, "predict", "--test-file", f"{out}/train.tsv", "--out-dir", out)
    header, *rows = (workspace / "submission.tsv").read_text().splitlines(keepends=True)
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    first_bad = next(k for k, (a, b) in enumerate(zip(shuffled, rows)) if a != b)
    preds = tmp_path / "shuffled.tsv"
    preds.write_text(header + "".join(shuffled))
    code, stdout, err = run(
        capsys, "evaluate", "--data-file", f"{out}/train.tsv",
        "--predictions-file", str(preds), "--schema-file", f"{out}/schema.txt",
    )
    assert code == 1 and "Log-Loss" not in stdout
    got, want = shuffled[first_bad].split("\t")[0], rows[first_bad].split("\t")[0]
    assert err.startswith("adinstall: error: DataFormatError:")
    assert f"row_id {got!r} where the data file has {want!r}" in err
    assert f"line={first_bad + 2}" in err


def test_evaluate_counts_rows_of_a_short_submission(workspace, tmp_path, capsys):
    out = trained(workspace, capsys)
    run(capsys, "predict", "--test-file", f"{out}/train.tsv", "--out-dir", out)
    lines = (workspace / "submission.tsv").read_text().splitlines(keepends=True)
    preds = tmp_path / "short.tsv"
    preds.write_text("".join(lines[:-1]))
    code, _, err = run(
        capsys, "evaluate", "--data-file", f"{out}/train.tsv",
        "--predictions-file", str(preds), "--schema-file", f"{out}/schema.txt",
    )
    assert code == 1
    assert "699 prediction rows vs 700 labeled rows" in err


def test_train_fails_when_the_retrain_diverges(workspace, capsys, monkeypatch):
    out = str(workspace)
    run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
        "--train-file", f"{out}/train.tsv", "--out-dir", out)
    real_retrain = cli.retrain_full

    def retrain_with_poisoned_gradients(*args, **kwargs):
        real_backward = training.backward

        def poisoned(*a, **k):
            return {name: g._replace(values=np.full_like(g.values, np.nan))
                    if isinstance(g, RowGrad) else np.full_like(g, np.nan)
                    for name, g in real_backward(*a, **k).items()}

        monkeypatch.setattr(training, "backward", poisoned)
        return real_retrain(*args, **kwargs)

    monkeypatch.setattr(cli, "retrain_full", retrain_with_poisoned_gradients)
    code, stdout, err = run(capsys, "train", "--train-file", f"{out}/train.tsv",
                            "--out-dir", out, *TINY_MODEL)
    assert code == 1
    assert "early stopping: best epoch" in stdout  # the early-stopped run was fine
    assert "retrained on 100%" not in stdout
    assert "full retrain diverged: epoch 1: non-finite gradients" in err
    for name in ("model_val.bin", "model_full.bin", "history.tsv"):
        assert not (workspace / name).exists(), name


def test_f32_precision_through_the_cli(workspace, capsys):
    out = trained(workspace, capsys, "--precision", "f32")
    params, _ = load_params(workspace / "model_full.bin")
    assert params.config.dtype == "f32"
    assert all(block.dtype == np.float32 for block in params.blocks.values())
    code, _, err = run(capsys, "predict", "--test-file", f"{out}/test.tsv", "--out-dir", out)
    assert code == 0, err
    rows = (workspace / "submission.tsv").read_text().splitlines()[1:]
    probs = np.array([float(r.split("\t")[2]) for r in rows])
    assert len(probs) == 120 and np.all((probs > 0.0) & (probs < 1.0))
    code, stdout, err = run(capsys, "evaluate", "--data-file", f"{out}/train.tsv",
                            "--out-dir", out)
    assert code == 0, err
    assert "Log-Loss" in stdout


def test_prepare_reports_a_token_beyond_int64(workspace, capsys):
    out = str(workspace)
    lines = (workspace / "train.tsv").read_text().splitlines()
    fields = lines[5].split("\t")
    fields[2] = "18446744073709551615"  # f_2 is categorical
    lines[5] = "\t".join(fields)
    (workspace / "train.tsv").write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
                       "--train-file", f"{out}/train.tsv", "--out-dir", out)
    assert code == 1
    assert err.startswith("adinstall: error: DataFormatError: categorical token "
                          "'18446744073709551615' does not fit in 64 bits")
    assert "column='f_2'" in err and "line=6" in err
    assert not (workspace / "pipeline.json").exists()


def test_prepare_reports_a_token_beyond_int64_before_a_separator_character(tmp_path, capsys):
    (tmp_path / "schema.txt").write_text(
        "has_header = false\nid = row_id\nc = categorical\nis_installed = label\n")
    # str.strip removes the trailing "\x1c" before the token is parsed; int() would not
    (tmp_path / "train.tsv").write_bytes(b"r1\t99999999999999999999\x1c\t1\nr2\t4\t0\n")
    code, _, err = run(capsys, "prepare", "--schema-file", str(tmp_path / "schema.txt"),
                       "--train-file", str(tmp_path / "train.tsv"), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("adinstall: error: DataFormatError: categorical token "
                          "'99999999999999999999' does not fit in 64 bits")
    assert "column='c'" in err and "line=1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "pipeline.json").exists()


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
    # deterministic only ever overrode precision, and is gone
    for line in ("wibble = 3", "deterministic = true"):
        config.write_text(line + "\n")
        code, _, err = run(capsys, "synth", "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 1
        assert f"unknown config key {line.split()[0]!r}" in err


def test_one_config_file_serves_synth_and_train(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("rows = 600\ntest_rows = 80\nseed = 4\ncat_vocabs = 5,9\n"
                      "trunk = 8\nmax_epochs = 2\npatience = 2\nbatch_size = 128\n")
    out = str(tmp_path / "run")
    code, _, err = run(capsys, "synth", "--config", str(config), "--out-dir", out)
    assert code == 0, err
    run(capsys, "prepare", "--schema-file", f"{out}/schema.txt",
        "--train-file", f"{out}/train.tsv", "--out-dir", out)
    code, _, err = run(capsys, "train", "--config", str(config),
                       "--train-file", f"{out}/train.tsv", "--out-dir", out)
    assert code == 0, err
    params, _ = load_params(tmp_path / "run" / "model_full.bin")
    assert params.config.trunk == (8,)


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--learning-rate", "99"], "--learning-rate"),
    (["predict", "--test-file", "t.tsv", "--trunk", "7"], "--trunk"),
    (["prepare", "--schema-file", "s.txt", "--precision", "f99"], "--precision"),
])
def test_flag_a_subcommand_does_not_read_exits_2(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_flag_shows_the_subcommands_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--test-file", "x", "--trunk", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: adinstall predict ")
    assert "--model-file" in err  # the flags predict does take
    assert "adinstall predict: error: unrecognized arguments: --trunk 7" in err


def test_a_directory_for_a_file_is_one_error_line(workspace, capsys):
    out = trained(workspace, capsys)
    for argv in (["predict", "--test-file", str(workspace)],
                 ["evaluate", "--data-file", str(workspace), "--predictions-file",
                  f"{out}/submission.tsv"]):
        code, _, err = run(capsys, *argv, "--out-dir", out)
        assert code == 1, argv
        assert err.count("\n") == 1 and err.startswith("adinstall: error: IsADirectoryError: ")


def test_main_returns_the_freed_heap_after_every_command(workspace, capsys, monkeypatch):
    pads = []
    monkeypatch.setattr(cli, "_malloc_trim", pads.append)
    out = trained(workspace, capsys)  # prepare, train
    assert pads == [0, 0]
    code, _, _ = run(capsys, "predict", "--test-file", out, "--out-dir", out)  # a directory
    assert code == 1 and pads == [0] * 3
    with pytest.raises(SystemExit):
        main(["predict", "--trunk", "7"])
    assert pads == [0] * 4


class RecordingConfig:
    """Stands in for a RunConfig and notes the name of every field read from it."""

    def __init__(self, cfg: cli.RunConfig, read: set[str]):
        self._cfg, self._read = cfg, read

    def __getattr__(self, name: str):
        self._read.add(name)
        return getattr(self._cfg, name)


def registered_flags(command: str) -> set[str]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help", "config"}


def test_each_subcommand_registers_exactly_the_fields_it_reads(workspace, capsys, monkeypatch):
    read: dict[str, set[str]] = defaultdict(set)
    resolve = cli.resolve_config
    monkeypatch.setattr(cli, "resolve_config",
                        lambda args: RecordingConfig(resolve(args), read[args.command]))
    out = str(workspace)
    data = ["--data-file", f"{out}/train.tsv", "--out-dir", out]
    preds = ["--predictions-file", f"{out}/submission.tsv"]
    for argv in (
        ["synth", "--out-dir", out, "--seed", "5", *FAST],
        ["prepare", "--schema-file", f"{out}/schema.txt", "--train-file", f"{out}/train.tsv",
         "--out-dir", out],
        ["train", "--train-file", f"{out}/train.tsv", "--out-dir", out, *TINY_MODEL],
        ["predict", "--test-file", f"{out}/train.tsv", "--out-dir", out],
        ["evaluate", *data, "--split-eval", "true"],
        ["evaluate", *data, *preds],
        ["evaluate", *data, *preds, "--schema-file", f"{out}/schema.txt"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert set(read) == set(cli._COMMANDS)
    for command, fields_read in read.items():
        assert fields_read == registered_flags(command), command


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
    preds = _read_predictions(path, ("a", "b", "c"))
    assert preds["is_clicked"].tolist() == [0.5, 0.5, 0.5]
    assert preds["is_installed"].tolist() == [0.25, 1e-3, 1.0]


@pytest.mark.parametrize("body, line, column, message", [
    (["1\t0.5\t0.2", "", "2\t0.5", "3\tx\t0.1"], 4, None, "row has 2 fields, expected 3"),
    (["1\t0.5\t0.2", "2\tx\ty"], 3, "is_clicked", "non-numeric probability 'x'"),
    (["1\t0.5\t", "2\tx\t0.1"], 2, "is_installed", "non-numeric probability ''"),
    (["1\t0.5\t0.2", "", "3\t0.5\t0.2"], 4, "row_id", "row_id '3' where the data file has '2'"),
    (["1\t0.5\t0.2", "3\tx\t0.1"], 3, "row_id", "row_id '3' where the data file has '2'"),
])
def test_read_predictions_names_first_faulty_line(tmp_path, monkeypatch, body, line, column,
                                                  message):
    path = tmp_path / "preds.tsv"
    path.write_text(PREDICTIONS_HEADER + "\n".join(body) + "\n")
    monkeypatch.setattr(ingest, "CHUNK_CHARS", 8)
    with pytest.raises(DataFormatError, match=message) as exc:
        _read_predictions(path, ("1", "2", "3"))
    assert (exc.value.line, exc.value.column) == (line, column)


def test_read_predictions_rejects_empty_file_and_bad_header(tmp_path):
    path = tmp_path / "preds.tsv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty predictions file"):
        _read_predictions(path, ())
    path.write_text("row_id\tis_installed\n1\t0.5\n")
    with pytest.raises(DataFormatError, match="expected header") as exc:
        _read_predictions(path, ("1",))
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
