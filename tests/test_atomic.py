"""Artifacts are replaced atomically: a failed write leaves the previous file."""

from __future__ import annotations

import errno

import pytest

from adinstall import atomic
from adinstall.atomic import atomic_write, write_text
from adinstall.cli import main


def test_failure_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "artifact.txt"
    write_text(path, "previous\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half of the new con")
            fh.flush()
            raise RuntimeError("crash mid-write")
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]


def test_failure_before_first_write_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "model.bin", "wb"):
            raise RuntimeError("crash")
    assert list(tmp_path.iterdir()) == []


def test_successful_write_replaces_file(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"old")
    with atomic_write(path, "wb") as fh:
        fh.write(b"new bytes")
    assert path.read_bytes() == b"new bytes"
    assert list(tmp_path.iterdir()) == [path]


class DiskFull:
    """A file whose first write stores half its data, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


FAST = ["--rows", "400", "--test-rows", "50", "--cat-vocabs", "5,9", "--n-binary", "2",
        "--n-numerical", "3"]
TINY_MODEL = ["--trunk", "8", "--max-epochs", "2", "--patience", "1", "--batch-size", "128"]


@pytest.mark.parametrize("argv, artifacts", [
    (["prepare", "--schema-file", "{d}/schema.txt", "--train-file", "{d}/train.tsv",
      "--impute-strategy", "mean"], ["pipeline.json"]),
    (["train", "--train-file", "{d}/train.tsv", *TINY_MODEL, "--seed", "8"],
     ["model_val.bin", "model_full.bin", "history.tsv"]),
    (["predict", "--test-file", "{d}/train.tsv"], ["submission.tsv"]),
    (["evaluate", "--data-file", "{d}/train.tsv", "--split-eval", "true"], ["metrics.tsv"]),
], ids=["prepare", "train", "predict", "evaluate"])
def test_cli_artifact_survives_failed_rewrite(tmp_path, capsys, monkeypatch, argv, artifacts):
    d = str(tmp_path)
    for step in (["synth", "--seed", "3", *FAST],
                 ["prepare", "--schema-file", f"{d}/schema.txt", "--train-file", f"{d}/train.tsv"],
                 ["train", "--train-file", f"{d}/train.tsv", *TINY_MODEL],
                 ["predict", "--test-file", f"{d}/test.tsv"],
                 ["evaluate", "--data-file", f"{d}/train.tsv"]):
        assert main([*step, "--out-dir", d]) == 0, capsys.readouterr().err
    before = {name: (tmp_path / name).read_bytes() for name in artifacts}

    real_open = open
    monkeypatch.setattr(atomic, "open", lambda *a, **k: DiskFull(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        main([a.format(d=d) for a in argv] + ["--out-dir", d])
    for name, content in before.items():
        assert (tmp_path / name).read_bytes() == content, name
    assert not [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
