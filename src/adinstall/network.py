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
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .atomic import atomic_write
from .errors import ArtifactError, PipelineMismatchError
from .prep import PreparedDataset

EMBED_CAP = 256
# elements per chunk of the embedding scatter-add; its flat indices, its
# values and numpy's broadcast buffer take 128 KiB each (f64) at any batch
# size. Codes are marked present in chunks of as many rows, since a column of
# codes is a strided view that numpy copies to index with.
SCATTER_CHUNK = 16384
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


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[1]
    bound = np.sqrt(6.0 / (fan_in + fan_out)) if (fan_in + fan_out) else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)


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
            blocks[name] = rng.uniform(-0.05, 0.05, size=shape).astype(dtype, copy=False)
        elif kind == "b":
            blocks[name] = np.zeros(shape, dtype=dtype)
        elif name.startswith("head.") and name.split(".")[1] in config.zero_init_heads:
            blocks[name] = np.zeros(shape, dtype=dtype)
        else:
            blocks[name] = _glorot(rng, shape, dtype)
    return NetworkParams(config=config, blocks=blocks)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    # keep outputs strictly inside (0, 1) even at saturation
    return np.clip(out, PROB_LO, PROB_HI)


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


def _distinct(codes: np.ndarray, n: int, col: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in increasing order, and a map from each of them to
    its position among them, so ``np.unique(codes, return_inverse=True)`` is
    ``rows, position[codes]``, dtypes included.

    The codes' min and max are checked against 0..n, then each code is
    marked in a presence mask over the vocabulary: no sort, and a cost that
    follows the rows and the vocabulary. ``position`` holds no value at a
    code outside ``rows``.
    """
    if codes.size and (codes.min() < 0 or codes.max() > n):
        raise PipelineMismatchError(
            f"categorical code out of range 0..{n} in column "
            f"{col!r}: preprocessing bug upstream"
        )
    present = np.zeros(n + 1, dtype=bool)
    for lo in range(0, codes.size, SCATTER_CHUNK):
        present[codes[lo : lo + SCATTER_CHUNK]] = True
    rows = present.nonzero()[0]
    position = np.empty(n + 1, dtype=np.intp)
    position[rows] = np.arange(rows.size)
    return rows, position


class TableProjection(NamedTuple):
    """One table's distinct codes over a set of rows, and their rows through
    the first linear maps.

    ``rows`` holds the codes in increasing order and ``position`` maps each
    of them to its place in ``rows``. ``products`` starts empty; the first
    batch that needs a first map ``name`` stores ``table[rows] @ w[span]``
    under it, for every later batch of those rows to gather from.
    """

    rows: np.ndarray
    position: np.ndarray
    products: dict[str, np.ndarray]


def project_tables(
    params: NetworkParams, dataset: PreparedDataset, max_bytes: int
) -> list[TableProjection | None]:
    """Each table's :class:`TableProjection` over the codes of ``dataset``,
    or None for a table left to be projected per batch.

    Tables are kept smallest first while their products together fit in
    ``max_bytes``. Every code is checked against its vocabulary, so
    :func:`forward` given the result checks nothing again for a batch of
    ``dataset``'s rows. The lookups take memory that follows the
    vocabularies, not the rows.
    """
    config = params.config
    _validate_batch(config, dataset)
    # bytes of one table row through all first maps: each trunk copy's
    # first layer, or each head's single unit when the trunk is empty
    width = len(config.trunk_groups()) * config.trunk[0] if config.trunk else len(config.heads)
    row_bytes = config.np_dtype.itemsize * width
    lookups = [
        _distinct(dataset.cat_codes[:, j], n, col)
        for j, (col, n) in enumerate(zip(config.cat_columns, config.vocab_sizes))
    ]
    out: list[TableProjection | None] = [None] * len(lookups)
    spare = max_bytes
    for j in sorted(range(len(lookups)), key=lambda j: lookups[j][0].size):
        spare -= lookups[j][0].size * row_bytes
        if spare < 0:
            break
        out[j] = TableProjection(*lookups[j], {})
    return out


def _table_product(table: np.ndarray, rows: np.ndarray, w: np.ndarray, chunk: int) -> np.ndarray:
    """``table[rows] @ w``, gathering about ``chunk`` rows of ``table`` at a
    time. No piece has a single row unless ``rows`` has: a BLAS build can
    round a one-row product differently."""
    chunk = max(chunk, 2)
    if rows.size <= chunk:
        return table[rows] @ w
    out = np.empty((rows.size, w.shape[1]), dtype=w.dtype)
    bounds = [*range(0, rows.size - 1, chunk), rows.size]
    for lo, hi in zip(bounds, bounds[1:]):
        np.matmul(table[rows[lo:hi]], w, out=out[lo:hi])
    return out


class _Lookup(NamedTuple):
    """One table's share of a batch: its block, the span of rows it reads
    in a first-layer weight, sorted distinct codes that include the batch's,
    and each row's position among them, so a row's embedding is
    ``table[rows][inverse]``. For a table kept for a whole call,
    ``products`` is its :class:`TableProjection`'s, else None."""

    block: str
    span: slice
    rows: np.ndarray
    inverse: np.ndarray
    products: dict[str, np.ndarray] | None


class _Inputs(NamedTuple):
    """The concatenated input rows in factored form: ``dense`` holds both
    branch ReLU outputs, (n_rows, binary_width + numerical_width), and
    ``lookups`` one :class:`_Lookup` per table. In a first-layer weight the
    dense block's rows follow the last table's span."""

    dense: np.ndarray
    lookups: list[_Lookup]


def _trunk_input(
    params: NetworkParams,
    batch: PreparedDataset,
    tables: list[TableProjection | None] | None = None,
) -> _Inputs:
    """The dense block and each table's lookup: the batch's own distinct
    codes, every code checked against its vocabulary, or for a table with a
    projection in ``tables`` that projection's codes."""
    config = params.config
    _validate_batch(config, batch)
    b = params.blocks
    dtype = config.np_dtype

    lookups, lo = [], 0
    for j, (col, n, m) in enumerate(
        zip(config.cat_columns, config.vocab_sizes, config.embedding_widths)
    ):
        codes = batch.cat_codes[:, j]
        kept = tables[j] if tables else None
        if kept is None:
            rows, position = _distinct(codes, n, col)
            products = None
        else:
            rows, position, products = kept
        lookups.append(_Lookup(f"emb.{col}", slice(lo, lo + m), rows, position[codes], products))
        lo += m
    bw = config.binary_width
    dense = np.empty((batch.n_rows, bw + config.numerical_width), dtype)
    binary = batch.binary.astype(dtype, copy=False)
    numeric = batch.numeric.astype(dtype, copy=False)
    np.maximum(binary @ b["bin.w"] + b["bin.b"], 0.0, out=dense[:, :bw])
    np.maximum(numeric @ b["num.w"] + b["num.b"], 0.0, out=dense[:, bw:])
    return _Inputs(dense, lookups)


def _project(params: NetworkParams, inputs: _Inputs, name: str) -> np.ndarray:
    """``concat @ w + b`` for the first linear map ``name`` (blocks
    ``{name}.w`` and ``{name}.b``), without building the concat.

    The dense block goes through its own rows of ``w``. Each table's touched
    rows go through theirs once, and the projected rows are gathered per
    batch row and added, so a table's multiplies follow its distinct codes,
    not the batch. A table kept for a whole call is projected by the call's
    first batch, a batch's rows of the table at a time, and stored in its
    ``products`` for the batches after it.
    """
    b = params.blocks
    w = b[f"{name}.w"]
    dense, lookups = inputs
    pre = dense @ w[w.shape[0] - dense.shape[1] :]
    pre += b[f"{name}.b"]
    gathered = np.empty_like(pre)
    for t in lookups:
        if t.products is None:  # looked up for this batch alone
            projected = b[t.block][t.rows] @ w[t.span]
        elif name in t.products:
            projected = t.products[name]
        else:  # kept for the whole call; this is the call's first batch
            projected = t.products[name] = _table_product(
                b[t.block], t.rows, w[t.span], len(dense)
            )
        # every position is in range; mode="clip" spares the buffered copy
        # that the default mode makes of ``out``
        projected.take(t.inverse, axis=0, out=gathered, mode="clip")
        pre += gathered
    return pre


def _forward(
    params: NetworkParams,
    inputs: _Inputs,
    acts: dict[str, list[np.ndarray]] | None = None,
) -> np.ndarray:
    """Per-row, per-head probabilities; the one forward pass.

    Each trunk group's first layer reads the concat row through
    :func:`_project`, and each later layer overwrites its own output in
    place. Given ``acts``, the pass records for each trunk group every
    layer's output, which with ``inputs`` is all ``backward`` reads: a
    ReLU's mask is where its output is positive. Without it nothing is kept.
    With an empty trunk each head's ``w`` is the first linear map.
    """
    config = params.config
    b = params.blocks
    probs = np.empty((inputs.dense.shape[0], len(config.heads)), dtype=np.float64)
    for group in config.trunk_groups():
        if config.trunk:
            h = _project(params, inputs, f"trunk.{group}.0")
            np.maximum(h, 0.0, out=h)
            if acts is not None:
                acts[group] = [h]
        for i in range(1, len(config.trunk)):
            h = h @ b[f"trunk.{group}.{i}.w"]
            h += b[f"trunk.{group}.{i}.b"]
            np.maximum(h, 0.0, out=h)
            if acts is not None:
                acts[group].append(h)
        for k, head in enumerate(config.heads):
            if config.trunk_group_of(head) == group:
                if config.trunk:
                    z = h @ b[f"head.{head}.w"] + b[f"head.{head}.b"]
                else:
                    z = _project(params, inputs, f"head.{head}")
                probs[:, k] = _sigmoid(z.astype(np.float64))[:, 0]
    return probs


def forward(
    params: NetworkParams,
    batch: PreparedDataset,
    tables: list[TableProjection | None] | None = None,
) -> np.ndarray:
    """Per-row, per-head probabilities, shape (n_rows, n_heads), all in (0, 1).

    ``tables``, from :func:`project_tables` on a dataset that holds the
    batch's rows, gives tables whose rows are gathered from their products
    rather than projected again. Keeps nothing for a backward pass."""
    return _forward(params, _trunk_input(params, batch, tables))


def _scatter_add(values: np.ndarray, inverse: np.ndarray, grad: np.ndarray) -> None:
    """``values[inverse[i]] += grad[i]`` for every row ``i``, in row order.

    numpy's ``ufunc.at`` has a fast loop only for a 1-D target with 1-D
    indices and values, so each chunk of about ``SCATTER_CHUNK`` elements
    goes in by flat index. Every element still receives its rows one at a
    time in increasing ``i``, as a 2-D ``np.add.at(values, inverse, grad)``
    adds them, so the sums are the same bits.
    """
    n, m = grad.shape
    flat = values.reshape(-1)
    cols = np.arange(m)
    step = max(1, SCATTER_CHUNK // m)
    for lo in range(0, n, step):
        at = inverse[lo : lo + step, None] * m + cols
        np.add.at(flat, at.reshape(-1), grad[lo : lo + step].reshape(-1))


class RowGrad(NamedTuple):
    """Gradient of an embedding table on the rows one batch looked up.

    ``rows`` holds the distinct codes in increasing order and ``values[k]`` is
    the gradient of row ``rows[k]``; every other row's gradient is exactly
    zero, so its size follows the batch, not the vocabulary.
    """

    rows: np.ndarray
    values: np.ndarray


def _project_backward(
    params: NetworkParams,
    batch: PreparedDataset,
    inputs: _Inputs,
    firsts: list[tuple[str, np.ndarray, bool]],
    grads: dict[str, np.ndarray | RowGrad],
) -> None:
    """Gradients through the first linear maps into the embeddings and branches.

    ``firsts`` holds each first map that the loss reaches: its name, the
    gradient ``dpre`` at its output, and whether its own blocks take one.
    Per table, ``dpre`` is summed by code into a (touched rows × width)
    block ``s``; then the map's weight gradient on the table's span is
    ``table[rows].T @ s`` and the table's row gradient is ``s @ w[span].T``.
    Only the dense block gets a per-row input gradient.
    """
    config, b = params.config, params.blocks
    dense, lookups = inputs
    e = config.concat_width - dense.shape[1]
    d_dense = None
    for name, dpre, own in firsts:
        w = b[f"{name}.w"]
        if own:
            grads[f"{name}.w"] = np.empty_like(w)
            np.matmul(dense.T, dpre, out=grads[f"{name}.w"][e:])
            grads[f"{name}.b"] = dpre.sum(axis=0)
        d = dpre @ w[e:].T
        if d_dense is None:
            d_dense = d
        else:
            d_dense += d

    for t in lookups:
        table = b[t.block][t.rows]
        values = None if firsts else np.zeros_like(table)
        for name, dpre, own in firsts:
            s = np.zeros((t.rows.size, dpre.shape[1]), dtype=config.np_dtype)
            _scatter_add(s, t.inverse, dpre)
            if own:
                np.matmul(table.T, s, out=grads[f"{name}.w"][t.span])
            v = s @ b[f"{name}.w"][t.span].T
            if values is None:
                values = v
            else:
                values += v
        if config.freeze_missing_row:
            values[t.rows == 0] = 0.0
        grads[t.block] = RowGrad(t.rows, values)

    if d_dense is None:  # every first map cut off
        d_dense = np.zeros_like(dense)
    d_dense *= dense > 0
    bw = config.binary_width
    grads["bin.w"] = batch.binary.astype(config.np_dtype, copy=False).T @ d_dense[:, :bw]
    grads["bin.b"] = d_dense[:, :bw].sum(axis=0)
    grads["num.w"] = batch.numeric.astype(config.np_dtype, copy=False).T @ d_dense[:, bw:]
    grads["num.b"] = d_dense[:, bw:].sum(axis=0)


def backward(
    params: NetworkParams,
    batch: PreparedDataset,
    labels: np.ndarray,
    frozen_heads: frozenset[str] | None = None,
) -> dict[str, np.ndarray | RowGrad]:
    """Exact gradient of the training loss with respect to every block it reaches.

    The loss is the weighted sum over heads of each head's mean binary
    cross-entropy, ``sum_k w_k * mean_i -(y_ik log p_ik + (1 - y_ik) log(1 - p_ik))``
    with ``w = config.loss_weights``. At each sigmoid head the pre-activation gradient is
    ``weight * (p - y) / n_rows``. An embedding gradient is a :class:`RowGrad`
    on the rows the batch touched; every other row's gradient is zero. Heads in
    ``frozen_heads`` (union of the config's freeze set and the argument)
    contribute no gradient to their own blocks; with duplicated trunks a
    frozen head is cut off entirely, so not even the shared branches and
    embeddings see its loss. A block that receives no gradient has no key
    in the result, so an optimizer step leaves it and its moments alone.

    No array as wide as the concat row is formed: the gradient stops at each
    trunk group's first layer (each head's ``w`` when the trunk is empty) and
    goes on per table through :func:`_project_backward`. Each layer output is
    released once its mask and weight gradient are formed.
    """
    config = params.config
    inputs = _trunk_input(params, batch)
    acts: dict[str, list[np.ndarray]] = {}
    probs = _forward(params, inputs, acts)
    b = params.blocks
    n = batch.n_rows
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != (n, len(config.heads)):
        raise ValueError(f"labels shape {y.shape} != {(n, len(config.heads))}")
    frozen = set(config.freeze_heads) | set(frozen_heads or ())

    grads: dict[str, np.ndarray | RowGrad] = {}
    weights = config.loss_weights
    firsts: list[tuple[str, np.ndarray, bool]] = []  # see _project_backward

    # Each gradient below is summed without a zero-filled array to start
    # from, so a -0.0 that 0.0 + x would turn into +0.0 stays -0.0. That
    # moves only the sign of an exact zero in a gradient: Adam adds it to a
    # moment that is never -0.0, and SGD subtracts it from a parameter that
    # is never -0.0, so no bit of either changes.
    d_out: dict[str, np.ndarray] = {}  # gradient at each trunk group's output
    for k, head in enumerate(config.heads):
        if head in frozen and config.trunk_sharing == "duplicated":
            continue  # its own trunk copy is cut off with it
        dz = (weights[k] * (probs[:, k] - y[:, k]) / n)[:, None].astype(config.np_dtype)
        if not config.trunk:
            firsts.append((f"head.{head}", dz, head not in frozen))
            continue
        group = config.trunk_group_of(head)
        if head not in frozen:
            grads[f"head.{head}.w"] = acts[group][-1].T @ dz
            grads[f"head.{head}.b"] = dz.sum(axis=0)
        d_in = dz @ b[f"head.{head}.w"].T
        if group in d_out:
            d_out[group] += d_in
        else:
            d_out[group] = d_in

    for group, dh in d_out.items():
        layers = acts.pop(group)
        for i in reversed(range(1, len(config.trunk))):
            dh *= layers.pop() > 0  # now the gradient at the layer's pre-activation
            grads[f"trunk.{group}.{i}.w"] = layers[-1].T @ dh
            grads[f"trunk.{group}.{i}.b"] = dh.sum(axis=0)
            dh = dh @ b[f"trunk.{group}.{i}.w"].T
        dh *= layers.pop() > 0
        firsts.append((f"trunk.{group}.0", dh, True))
    acts.clear()  # a cut-off group's outputs
    del d_out

    _project_backward(params, batch, inputs, firsts, grads)
    return {name: grads[name] for name in b if name in grads}


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
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def load_params(path: str | Path) -> tuple[NetworkParams, str | None]:
    """Read a model artifact; returns (params, pipeline_hash).

    Each block is read straight into its own array, so loading holds the
    model once, not the file beside it."""
    with open(path, "rb") as fh:
        preamble = fh.read(16)
        if len(preamble) < 16 or preamble[:4] != MODEL_MAGIC:
            raise ArtifactError(f"{path}: not a model artifact")
        version, header_len = struct.unpack("<IQ", preamble[4:])
        if version != MODEL_VERSION:
            raise ArtifactError(f"{path}: unsupported model version {version}")
        try:
            header = json.loads(fh.read(header_len).decode())
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
        for name, shape in expected:
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise ArtifactError(f"{path}: truncated block {name!r}")
            blocks[name] = arr.astype(config.np_dtype, copy=False)
        trailing = os.fstat(fh.fileno()).st_size - fh.tell()
    if trailing:
        raise ArtifactError(f"{path}: {trailing} trailing bytes after last block")
    return NetworkParams(config=config, blocks=blocks), header["pipeline_hash"]
