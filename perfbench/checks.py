"""Checks of one round's outputs against the benchmark's own reading of its inputs.

Nothing here imports adinstall. The inputs, the submission, the metrics
files, ``pipeline.json`` and ``model_full.bin`` are read by their documented
formats, and the forward oracle re-encodes, imputes, scales and scores hold-out
rows with its own numpy code. Every check raises :class:`CheckFailed` with the
reason when an output is wrong.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEAD = "is_installed"
SUBMISSION_COLUMNS = ["row_id", "is_clicked", "is_installed"]
# submission probabilities carry 9 decimals: each is within half a unit of
# the last place of the model's value
ROUNDING = 0.5e-9


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class InputFacts:
    """What the benchmark knows of the files it wrote, read without adinstall."""

    columns: list[tuple[str, str]]  # (name, role) in file order
    distinct_tokens: dict[str, int]  # categorical column -> distinct non-missing training tokens
    holdout_ids: list[str]
    holdout_labels: np.ndarray  # HEAD labels, float64
    sample_index: np.ndarray  # hold-out rows the forward oracle scores
    sample_fields: list[list[str]]


def read_schema(path: Path) -> list[tuple[str, str]]:
    columns = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (p.strip() for p in line.partition("="))
        if key == "delimiter":
            require(value in ("tab", "\\t"), f"benchmark inputs are tab-separated, schema says {value!r}")
        elif key == "has_header":
            require(value == "true", "benchmark inputs have a header line")
        else:
            columns.append((key, value))
    return columns


def read_inputs(schema: Path, train: Path, holdout: Path, seed: int, n_sample: int) -> InputFacts:
    columns = read_schema(schema)
    names = [n for n, _ in columns]
    cat_pos = [i for i, (_, role) in enumerate(columns) if role == "categorical"]
    id_pos = next(i for i, (_, role) in enumerate(columns) if role == "row_id")
    label_pos = names.index(HEAD)

    train_lines = train.read_text().splitlines()
    require(train_lines[0].split("\t") == names, "training header does not match the schema")
    tokens: dict[int, set[int]] = {i: set() for i in cat_pos}
    for line in train_lines[1:]:
        fields = line.split("\t")
        for i in cat_pos:
            if fields[i]:
                tokens[i].add(int(fields[i]))

    holdout_lines = holdout.read_text().splitlines()[1:]
    ids, labels = [], []
    for line in holdout_lines:
        fields = line.split("\t")
        ids.append(fields[id_pos])
        labels.append(float(fields[label_pos]))
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(len(holdout_lines), size=min(n_sample, len(holdout_lines)), replace=False))
    return InputFacts(
        columns=columns,
        distinct_tokens={names[i]: len(t) for i, t in tokens.items()},
        holdout_ids=ids,
        holdout_labels=np.asarray(labels),
        sample_index=sample,
        sample_fields=[holdout_lines[i].split("\t") for i in sample],
    )


# ---------------------------------------------------------------------------
# submission and log-loss
# ---------------------------------------------------------------------------


def check_submission(path: Path, facts: InputFacts) -> np.ndarray:
    """One row per hold-out row, ids in input order, probabilities in (0, 1).

    Returns the ``is_installed`` column. A one-head model leaves
    ``is_clicked`` at the documented 0.5 placeholder.
    """
    lines = path.read_text().splitlines()
    require(lines[0].split("\t") == SUBMISSION_COLUMNS, f"submission header {lines[0]!r}")
    rows = [line.split("\t") for line in lines[1:]]
    require(len(rows) == len(facts.holdout_ids), f"{len(rows)} submission rows for {len(facts.holdout_ids)} hold-out rows")
    require(all(len(r) == 3 for r in rows), "a submission row does not have 3 fields")
    require([r[0] for r in rows] == facts.holdout_ids, "submission row ids differ from the hold-out ids in input order")
    probs = np.array([float(r[2]) for r in rows])
    require(bool(np.all(np.isfinite(probs))), "non-finite probability")
    require(bool(np.all((probs > 0.0) & (probs < 1.0))), "probability outside the open interval (0, 1)")
    require(all(float(r[1]) == 0.5 for r in rows), "placeholder is_clicked column is not 0.5")
    return probs


def log_loss(labels: np.ndarray, probs: np.ndarray) -> float:
    """Mean negative log-likelihood in nats; probabilities must lie in (0, 1)."""
    return float(-np.mean(labels * np.log(probs) + (1.0 - labels) * np.log1p(-probs)))


def rounding_tolerance(probs: np.ndarray) -> float:
    """Largest change of the log-loss that 9-decimal rounding of ``probs`` can cause.

    d(-log p)/dp is 1/p and d(-log(1-p))/dp is 1/(1-p); a shift of ROUNDING in
    every probability moves the mean by at most mean(ROUNDING / min(p, 1-p)),
    to first order. The factor 2 covers the second-order term and the
    difference between the rounded value and the one used to round.
    """
    return 2.0 * float(np.mean(ROUNDING / np.minimum(probs - ROUNDING, 1.0 - probs - ROUNDING)))


def metrics_tsv_log_loss(path: Path) -> float:
    for line in path.read_text().splitlines():
        parts = line.split("\t")
        if parts[:3] == [HEAD, "All rows", "log_loss"]:
            return float(parts[3])
    raise CheckFailed(f"{path.name} has no {HEAD} All rows log_loss record")


def printed_log_loss(stdout: str) -> float:
    """The 4-decimal Log-Loss of the ``is_installed`` table ``evaluate`` prints."""
    lines = stdout.splitlines()
    start = lines.index(f"Output {HEAD!r}")
    for line in lines[start + 1 :]:
        if line.startswith("Log-Loss"):
            return float(line.split()[-1].rstrip("*"))
    raise CheckFailed(f"no Log-Loss row in the printed {HEAD} table")


def check_log_loss_agrees(ours: float, probs: np.ndarray, metrics_tsv: Path, printed: str) -> None:
    tol = rounding_tolerance(probs)
    full = metrics_tsv_log_loss(metrics_tsv)
    require(abs(ours - full) <= tol, f"log-loss {ours!r} vs metrics.tsv {full!r} (tolerance {tol:.3g})")
    table = printed_log_loss(printed)
    require(abs(ours - table) <= 0.5e-4 + tol, f"log-loss {ours:.6f} vs printed table {table}")


def base_rate_entropy(labels: np.ndarray) -> float:
    """Log-loss in nats of a model that predicts the label mean for every row."""
    r = float(np.mean(labels))
    return -(r * math.log(r) + (1.0 - r) * math.log(1.0 - r))


def check_below_entropy(ours: float, labels: np.ndarray) -> None:
    h = base_rate_entropy(labels)
    require(ours < h, f"hold-out log-loss {ours:.6f} is not below the base-rate entropy {h:.6f}")


# ---------------------------------------------------------------------------
# prepare and train artifacts
# ---------------------------------------------------------------------------


def check_vocabularies(pipeline_path: Path, facts: InputFacts) -> None:
    """Vocabulary sizes equal the distinct non-missing training tokens; only
    columns with at most one distinct value are dropped."""
    payload = json.loads(pipeline_path.read_text())
    vocabs, dropped = payload["categorical"], set(payload["dropped"])
    for name, distinct in facts.distinct_tokens.items():
        if name in dropped:
            require(distinct <= 1, f"{name} with {distinct} distinct tokens was dropped")
        else:
            got = len(vocabs[name])
            require(got == distinct, f"{name}: vocabulary of {got} for {distinct} distinct tokens")


def read_history(path: Path) -> tuple[list[float], int]:
    """Train losses of the monitored head per epoch, and the best epoch."""
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    col = header.index(f"train_loss.{HEAD}")
    rows = [line.split("\t") for line in lines[1:]]
    losses = [float(r[col]) for r in rows]
    best = max((int(r[0]) for r in rows if r[-1] == "1"), default=0)
    return losses, best


def check_history(path: Path) -> None:
    losses, best = read_history(path)
    require(1 <= best <= len(losses), f"best epoch {best} of {len(losses)}")
    if len(losses) > 1:
        require(losses[-1] < losses[0], f"train loss went from {losses[0]} to {losses[-1]}")


# ---------------------------------------------------------------------------
# independent forward oracle
# ---------------------------------------------------------------------------


def read_model(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """``model_*.bin``: magic ``ADNM``, u32 version, u64 header length, JSON
    header, then float64 little-endian blocks in the header's order."""
    raw = path.read_bytes()
    require(raw[:4] == b"ADNM", "bad model magic")
    require(struct.unpack("<I", raw[4:8])[0] == 1, "unknown model version")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    blocks = {}
    cursor = 16 + header_len
    for name, shape in header["blocks"]:
        count = int(np.prod(shape)) if shape else 1
        blocks[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=cursor).reshape(shape)
        cursor += 8 * count
    require(cursor == len(raw), "model file length does not match its block index")
    return header["config"], blocks


def _prepare_rows(payload: dict, config: dict, fields: list[list[str]]):
    """Encode, impute and scale raw rows as ``pipeline.json`` describes."""
    names = [n for n, _ in payload["schema"]["columns"]]
    pos = {n: i for i, n in enumerate(names)}

    codes = np.zeros((len(fields), len(config["cat_columns"])), dtype=np.int64)
    for j, col in enumerate(config["cat_columns"]):
        code_of = {int(t): k + 1 for k, t in enumerate(payload["categorical"][col])}
        for r, row in enumerate(fields):
            cell = row[pos[col]]
            codes[r, j] = code_of.get(int(cell), 0) if cell else 0

    roles = dict(payload["schema"]["columns"])
    kept = [n for n in names if n not in payload["dropped"]]
    bin_cols = [n for n in kept if roles[n] == "binary"]
    num_cols = [n for n in kept if roles[n] == "numerical"]
    binary = np.array([[float(row[pos[c]]) for c in bin_cols] for row in fields]).reshape(len(fields), -1)

    def number(cell: str) -> float:
        value = float(cell) if cell else math.nan
        return value if math.isfinite(value) else math.nan

    raw = np.array([[number(row[pos[c]]) for c in num_cols] for row in fields]).reshape(len(fields), -1)
    imp = payload["imputer"]
    completed = raw.copy()
    if imp is not None:
        seeded = np.where(np.isnan(raw), [imp["fallback"][c] for c in num_cols], raw)
        for j, col in enumerate(num_cols):
            model = imp["models"].get(col) if imp["strategy"] == "iterative" else None
            for r in np.flatnonzero(np.isnan(raw[:, j])):
                if model is None:
                    completed[r, j] = imp["fallback"][col]
                    continue
                others = np.delete(seeded[r], j)
                pred = model["intercept"] + float(np.dot(model["coef"], others))
                completed[r, j] = min(max(pred, imp["observed_min"][col]), imp["observed_max"][col])
    numeric = np.zeros_like(completed)
    for j, col in enumerate(num_cols):
        lo, hi = payload["scalers"][col]
        if hi > lo:
            numeric[:, j] = np.clip((completed[:, j] - lo) / (hi - lo), 0.0, 1.0)
    return codes, binary, numeric


def oracle_probabilities(model_path: Path, pipeline_path: Path, fields: list[list[str]]):
    """Per-head probabilities of the model for raw rows, and the check tolerance."""
    config, b = read_model(model_path)
    payload = json.loads(pipeline_path.read_text())
    codes, binary, numeric = _prepare_rows(payload, config, fields)

    def relu(x):
        return np.maximum(x, 0.0)

    parts = [b[f"emb.{col}"][codes[:, j]] for j, col in enumerate(config["cat_columns"])]
    parts.append(relu(binary @ b["bin.w"] + b["bin.b"]))
    parts.append(relu(numeric @ b["num.w"] + b["num.b"]))
    concat = np.concatenate(parts, axis=1)
    duplicated = config["trunk_sharing"] == "duplicated"
    probs = {}
    for head in config["heads"]:
        group = head if duplicated else "shared"
        h = concat
        for i in range(len(config["trunk"])):
            h = relu(h @ b[f"trunk.{group}.{i}.w"] + b[f"trunk.{group}.{i}.b"])
        z = (h @ b[f"head.{head}.w"] + b[f"head.{head}.b"])[:, 0]
        probs[head] = 1.0 / (1.0 + np.exp(-z))
    # a dot product of length n carries up to n units of roundoff in the
    # declared precision; activations are O(1) and the sigmoid slope is <= 1/4
    eps = np.finfo(np.float32 if config["dtype"] == "f32" else np.float64).eps
    tol = ROUNDING + eps * (concat.shape[1] + sum(config["trunk"]))
    return probs, tol


def check_oracle(model_path: Path, pipeline_path: Path, facts: InputFacts, submitted: np.ndarray) -> None:
    probs, tol = oracle_probabilities(model_path, pipeline_path, facts.sample_fields)
    got = submitted[facts.sample_index]
    worst = float(np.max(np.abs(probs[HEAD] - got)))
    require(worst <= tol, f"forward oracle differs from submission.tsv by {worst:.3g} (tolerance {tol:.3g})")
