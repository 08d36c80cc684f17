"""Multi-input feedforward classifier with hand-derived gradients.

Architecture: one embedding table per categorical column (row 0 reserved
for missing/unseen codes), one ReLU branch over the binary block and one
over the numerical block, branch outputs concatenated into a ReLU trunk,
and one sigmoid output unit per head. With ``trunk_sharing="duplicated"``
each head owns its own full copy of the trunk, so head gradients never
cross; branches and embeddings are shared either way.

Parameters live in an ordered name -> array mapping; the same order drives
initialization draws, optimizer state, and the binary artifact layout.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .atomic import atomic_write
from .errors import ArtifactError, PipelineMismatchError
from .prep import PreparedDataset

EMBED_CAP = 256
MODEL_MAGIC = b"ADNM"
MODEL_VERSION = 1

PROB_LO = np.nextafter(0.0, 1.0)
PROB_HI = np.nextafter(1.0, 0.0)


def embedding_width_rule(n: int, cap: int = EMBED_CAP) -> int:
    """Width of the embedding for a column with n distinct training values."""
    if n < 1:
        raise ValueError(f"vocabulary size must be >= 1, got {n}")
    return min(n, cap)


@dataclass(frozen=True)
class NetworkConfig:
    cat_columns: tuple[str, ...]
    vocab_sizes: tuple[int, ...]  # distinct training values per column, code 0 excluded
    n_binary: int
    n_numerical: int
    binary_width: int = 64
    numerical_width: int = 64
    trunk: tuple[int, ...] = (256, 128)
    heads: tuple[str, ...] = ("is_installed",)
    trunk_sharing: str = "shared"
    head_loss_weights: tuple[float, ...] | None = None  # None = uniform 1/H
    zero_init_heads: frozenset[str] = frozenset()
    freeze_heads: frozenset[str] = frozenset()
    freeze_missing_row: bool = True
    seed: int = 0
    dtype: str = "f64"

    def __post_init__(self):
        if len(self.cat_columns) != len(self.vocab_sizes):
            raise ValueError("cat_columns and vocab_sizes length mismatch")
        if any(n < 1 for n in self.vocab_sizes):
            raise ValueError("every vocabulary size must be >= 1")
        if self.n_binary < 0 or self.n_numerical < 0:
            raise ValueError("negative feature counts")
        if min(self.binary_width, self.numerical_width, *(self.trunk or (1,))) < 1:
            raise ValueError("every layer width must be >= 1")
        if not 1 <= len(self.heads) <= 2:
            raise ValueError("one or two heads are supported")
        if len(set(self.heads)) != len(self.heads):
            raise ValueError("head names must be unique")
        if self.trunk_sharing not in ("shared", "duplicated"):
            raise ValueError(f"unknown trunk_sharing {self.trunk_sharing!r}")
        if self.trunk_sharing == "duplicated" and len(self.heads) != 2:
            raise ValueError("duplicated trunks only apply to the two-head case")
        if self.head_loss_weights is not None:
            if len(self.head_loss_weights) != len(self.heads):
                raise ValueError("one loss weight per head required")
            if any(w < 0 for w in self.head_loss_weights):
                raise ValueError("loss weights must be non-negative")
        for name in self.zero_init_heads | self.freeze_heads:
            if name not in self.heads:
                raise ValueError(f"{name!r} is not a declared head")
        if self.dtype not in ("f64", "f32"):
            raise ValueError("dtype must be f64 or f32")

    @property
    def embedding_widths(self) -> tuple[int, ...]:
        return tuple(embedding_width_rule(n) for n in self.vocab_sizes)

    @property
    def concat_width(self) -> int:
        return sum(self.embedding_widths) + self.binary_width + self.numerical_width

    @property
    def loss_weights(self) -> tuple[float, ...]:
        if self.head_loss_weights is not None:
            return self.head_loss_weights
        return tuple(1.0 / len(self.heads) for _ in self.heads)

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.dtype == "f64" else np.float32)

    def trunk_groups(self) -> tuple[str, ...]:
        return self.heads if self.trunk_sharing == "duplicated" else ("shared",)

    def trunk_group_of(self, head: str) -> str:
        return head if self.trunk_sharing == "duplicated" else "shared"

    def to_dict(self) -> dict:
        return {
            "cat_columns": list(self.cat_columns),
            "vocab_sizes": list(self.vocab_sizes),
            "n_binary": self.n_binary,
            "n_numerical": self.n_numerical,
            "binary_width": self.binary_width,
            "numerical_width": self.numerical_width,
            "trunk": list(self.trunk),
            "heads": list(self.heads),
            "trunk_sharing": self.trunk_sharing,
            "head_loss_weights": None
            if self.head_loss_weights is None
            else list(self.head_loss_weights),
            "zero_init_heads": sorted(self.zero_init_heads),
            "freeze_heads": sorted(self.freeze_heads),
            "freeze_missing_row": self.freeze_missing_row,
            "seed": self.seed,
            "dtype": self.dtype,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        return cls(
            cat_columns=tuple(d["cat_columns"]),
            vocab_sizes=tuple(int(n) for n in d["vocab_sizes"]),
            n_binary=int(d["n_binary"]),
            n_numerical=int(d["n_numerical"]),
            binary_width=int(d["binary_width"]),
            numerical_width=int(d["numerical_width"]),
            trunk=tuple(int(w) for w in d["trunk"]),
            heads=tuple(d["heads"]),
            trunk_sharing=d["trunk_sharing"],
            head_loss_weights=None
            if d["head_loss_weights"] is None
            else tuple(float(w) for w in d["head_loss_weights"]),
            zero_init_heads=frozenset(d["zero_init_heads"]),
            freeze_heads=frozenset(d["freeze_heads"]),
            freeze_missing_row=bool(d["freeze_missing_row"]),
            seed=int(d["seed"]),
            dtype=d["dtype"],
        )

    def content_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def block_specs(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter block names and shapes, in the declared (canonical) order."""
    specs: list[tuple[str, tuple[int, ...]]] = []
    for col, n, m in zip(config.cat_columns, config.vocab_sizes, config.embedding_widths):
        specs.append((f"emb.{col}", (n + 1, m)))
    specs.append(("bin.w", (config.n_binary, config.binary_width)))
    specs.append(("bin.b", (config.binary_width,)))
    specs.append(("num.w", (config.n_numerical, config.numerical_width)))
    specs.append(("num.b", (config.numerical_width,)))
    for group in config.trunk_groups():
        width_in = config.concat_width
        for i, width_out in enumerate(config.trunk):
            specs.append((f"trunk.{group}.{i}.w", (width_in, width_out)))
            specs.append((f"trunk.{group}.{i}.b", (width_out,)))
            width_in = width_out
    head_in = config.trunk[-1] if config.trunk else config.concat_width
    for head in config.heads:
        specs.append((f"head.{head}.w", (head_in, 1)))
        specs.append((f"head.{head}.b", (1,)))
    return specs


@dataclass
class NetworkParams:
    """All trainable weights, keyed by block name in canonical order."""

    config: NetworkConfig
    blocks: dict[str, np.ndarray]

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.config, {k: v.copy() for k, v in self.blocks.items()})

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self.blocks.items())

    def assert_finite(self) -> None:
        bad = [k for k, v in self.blocks.items() if not np.all(np.isfinite(v))]
        if bad:
            raise PipelineMismatchError(f"non-finite parameter blocks: {bad}")


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[1]
    bound = np.sqrt(6.0 / (fan_in + fan_out)) if (fan_in + fan_out) else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_network(config: NetworkConfig) -> NetworkParams:
    """Seed-determined initialization.

    Weights are fan-scaled uniform, biases zero, embedding rows uniform in
    [-0.05, 0.05]. Draws happen in block order with zero-initialized heads
    skipped, so extending a model with an extra zero head leaves every other
    block's values untouched.
    """
    rng = np.random.default_rng(config.seed)
    dtype = config.np_dtype
    blocks: dict[str, np.ndarray] = {}
    for name, shape in block_specs(config):
        kind = name.rsplit(".", 1)[-1]
        if name.startswith("emb."):
            blocks[name] = rng.uniform(-0.05, 0.05, size=shape).astype(dtype)
        elif kind == "b":
            blocks[name] = np.zeros(shape, dtype=dtype)
        elif name.startswith("head.") and name.split(".")[1] in config.zero_init_heads:
            blocks[name] = np.zeros(shape, dtype=dtype)
        else:
            blocks[name] = _glorot(rng, shape, dtype)
    return NetworkParams(config=config, blocks=blocks)


# ---------------------------------------------------------------------------
# forward / loss / backward
# ---------------------------------------------------------------------------


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    # keep outputs strictly inside (0, 1) even at saturation
    return np.clip(out, PROB_LO, PROB_HI)


class _ForwardCache(NamedTuple):
    concat: np.ndarray
    bin_pre: np.ndarray
    num_pre: np.ndarray
    trunk_inputs: dict[str, list[np.ndarray]]  # per group: input of each layer
    trunk_pres: dict[str, list[np.ndarray]]
    head_inputs: dict[str, np.ndarray]
    probs: np.ndarray


def _validate_batch(config: NetworkConfig, batch: PreparedDataset) -> None:
    if batch.cat_codes.shape[1] != len(config.cat_columns):
        raise PipelineMismatchError(
            f"batch has {batch.cat_codes.shape[1]} categorical columns, "
            f"model expects {len(config.cat_columns)}"
        )
    if batch.binary.shape[1] != config.n_binary:
        raise PipelineMismatchError(
            f"batch has {batch.binary.shape[1]} binary columns, model expects {config.n_binary}"
        )
    if batch.numeric.shape[1] != config.n_numerical:
        raise PipelineMismatchError(
            f"batch has {batch.numeric.shape[1]} numerical columns, "
            f"model expects {config.n_numerical}"
        )
    for j, n in enumerate(config.vocab_sizes):
        col = batch.cat_codes[:, j]
        if col.size and (col.min() < 0 or col.max() > n):
            raise PipelineMismatchError(
                f"categorical code out of range 0..{n} in column "
                f"{config.cat_columns[j]!r}: preprocessing bug upstream"
            )


def _forward_cached(params: NetworkParams, batch: PreparedDataset) -> _ForwardCache:
    config = params.config
    _validate_batch(config, batch)
    b = params.blocks
    dtype = config.np_dtype

    parts: list[np.ndarray] = []
    for j, col in enumerate(config.cat_columns):
        parts.append(b[f"emb.{col}"][batch.cat_codes[:, j]])
    bin_pre = batch.binary.astype(dtype) @ b["bin.w"] + b["bin.b"]
    num_pre = batch.numeric.astype(dtype) @ b["num.w"] + b["num.b"]
    parts.append(_relu(bin_pre))
    parts.append(_relu(num_pre))
    concat = np.concatenate(parts, axis=1) if parts else np.zeros((batch.n_rows, 0), dtype)

    trunk_inputs: dict[str, list[np.ndarray]] = {}
    trunk_pres: dict[str, list[np.ndarray]] = {}
    head_inputs: dict[str, np.ndarray] = {}
    for group in config.trunk_groups():
        h = concat
        inputs, pres = [], []
        for i in range(len(config.trunk)):
            inputs.append(h)
            pre = h @ b[f"trunk.{group}.{i}.w"] + b[f"trunk.{group}.{i}.b"]
            pres.append(pre)
            h = _relu(pre)
        trunk_inputs[group] = inputs
        trunk_pres[group] = pres
        for head in config.heads:
            if config.trunk_group_of(head) == group:
                head_inputs[head] = h

    probs = np.empty((batch.n_rows, len(config.heads)), dtype=np.float64)
    for k, head in enumerate(config.heads):
        z = head_inputs[head] @ b[f"head.{head}.w"] + b[f"head.{head}.b"]
        probs[:, k] = _sigmoid(z.astype(np.float64))[:, 0]
    return _ForwardCache(concat, bin_pre, num_pre, trunk_inputs, trunk_pres, head_inputs, probs)


def forward(params: NetworkParams, batch: PreparedDataset) -> np.ndarray:
    """Per-row, per-head probabilities, shape (n_rows, n_heads), all in (0, 1)."""
    return _forward_cached(params, batch).probs


class BceLoss(NamedTuple):
    per_head: np.ndarray  # mean binary cross-entropy per head
    total: float  # loss-weight combination used for training


def bce_loss(
    probs: np.ndarray,
    labels: np.ndarray,
    eps: float = 1e-15,
    weights: tuple[float, ...] | None = None,
) -> BceLoss:
    """Mean binary cross-entropy per head plus the weighted training total."""
    p = np.clip(np.asarray(probs, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(labels, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if p.shape != y.shape:
        raise ValueError(f"probabilities {p.shape} and labels {y.shape} differ in shape")
    per_head = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=0)
    if weights is None:
        weights = tuple(1.0 / p.shape[1] for _ in range(p.shape[1]))
    total = float(np.dot(per_head, np.asarray(weights)))
    return BceLoss(per_head=per_head, total=total)


def backward(
    params: NetworkParams,
    batch: PreparedDataset,
    labels: np.ndarray,
    frozen_heads: frozenset[str] | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradient of the weighted bce total with respect to every block.

    At each sigmoid head the pre-activation gradient is
    ``weight * (p - y) / n_rows``; embedding gradients are scatter-added per
    looked-up row, so rows absent from the batch get exactly zero. Heads in
    ``frozen_heads`` (union of the config's freeze set and the argument)
    contribute no gradient to their own blocks; with duplicated trunks a
    frozen head is cut off entirely, so not even the shared branches and
    embeddings see its loss.
    """
    config = params.config
    cache = _forward_cached(params, batch)
    b = params.blocks
    n = batch.n_rows
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != (n, len(config.heads)):
        raise ValueError(f"labels shape {y.shape} != {(n, len(config.heads))}")
    frozen = set(config.freeze_heads) | set(frozen_heads or ())

    grads = {name: np.zeros(shape, dtype=config.np_dtype) for name, shape in block_specs(config)}
    weights = config.loss_weights

    d_head_input: dict[str, np.ndarray] = {}
    for k, head in enumerate(config.heads):
        dz = (weights[k] * (cache.probs[:, k] - y[:, k]) / n)[:, None].astype(config.np_dtype)
        h_in = cache.head_inputs[head]
        if head not in frozen:
            grads[f"head.{head}.w"] = h_in.T @ dz
            grads[f"head.{head}.b"] = dz.sum(axis=0)
        d_head_input[head] = dz @ b[f"head.{head}.w"].T

    d_concat = np.zeros_like(cache.concat)
    for group in config.trunk_groups():
        group_heads = [h for h in config.heads if config.trunk_group_of(h) == group]
        if config.trunk_sharing == "duplicated" and all(h in frozen for h in group_heads):
            continue
        dh = np.zeros_like(cache.head_inputs[group_heads[0]])
        for h in group_heads:
            dh = dh + d_head_input[h]
        for i in reversed(range(len(config.trunk))):
            dpre = dh * (cache.trunk_pres[group][i] > 0)
            grads[f"trunk.{group}.{i}.w"] = cache.trunk_inputs[group][i].T @ dpre
            grads[f"trunk.{group}.{i}.b"] = dpre.sum(axis=0)
            dh = dpre @ b[f"trunk.{group}.{i}.w"].T
        d_concat += dh

    offset = 0
    for j, (col, m) in enumerate(zip(config.cat_columns, config.embedding_widths)):
        dslice = d_concat[:, offset : offset + m]
        np.add.at(grads[f"emb.{col}"], batch.cat_codes[:, j], dslice)
        if config.freeze_missing_row:
            grads[f"emb.{col}"][0] = 0.0
        offset += m

    dbin = d_concat[:, offset : offset + config.binary_width] * (cache.bin_pre > 0)
    grads["bin.w"] = batch.binary.astype(config.np_dtype).T @ dbin
    grads["bin.b"] = dbin.sum(axis=0)
    offset += config.binary_width

    dnum = d_concat[:, offset : offset + config.numerical_width] * (cache.num_pre > 0)
    grads["num.w"] = batch.numeric.astype(config.np_dtype).T @ dnum
    grads["num.b"] = dnum.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# model artifact
# ---------------------------------------------------------------------------


def save_params(
    params: NetworkParams, path: str | Path, pipeline_hash: str | None = None
) -> None:
    """Versioned binary artifact: JSON header, then float64 little-endian blocks."""
    header = {
        "config": params.config.to_dict(),
        "config_hash": params.config.content_hash(),
        "pipeline_hash": pipeline_hash,
        "blocks": [[name, list(arr.shape)] for name, arr in params.blocks.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for arr in params.blocks.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path: str | Path) -> tuple[NetworkParams, str | None]:
    """Read a model artifact; returns (params, pipeline_hash)."""
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ArtifactError(f"{path}: not a model artifact")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != MODEL_VERSION:
        raise ArtifactError(f"{path}: unsupported model version {version}")
    header_len = struct.unpack("<Q", raw[8:16])[0]
    try:
        header = json.loads(raw[16 : 16 + header_len].decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: corrupt model header: {exc}") from exc
    config = NetworkConfig.from_dict(header["config"])
    if config.content_hash() != header["config_hash"]:
        raise ArtifactError(f"{path}: config hash mismatch; artifact corrupt")

    expected = block_specs(config)
    stored = [(name, tuple(shape)) for name, shape in header["blocks"]]
    if stored != expected:
        raise ArtifactError(f"{path}: block layout does not match the config")

    blocks: dict[str, np.ndarray] = {}
    cursor = 16 + header_len
    for name, shape in expected:
        count = int(np.prod(shape)) if shape else 1
        end = cursor + 8 * count
        if end > len(raw):
            raise ArtifactError(f"{path}: truncated block {name!r}")
        arr = np.frombuffer(raw[cursor:end], dtype="<f8").reshape(shape)
        blocks[name] = arr.astype(config.np_dtype)
        cursor = end
    if cursor != len(raw):
        raise ArtifactError(f"{path}: {len(raw) - cursor} trailing bytes after last block")
    return NetworkParams(config=config, blocks=blocks), header["pipeline_hash"]
