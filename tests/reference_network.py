"""The gather-then-matmul forward and backward that ``adinstall.network`` replaced, kept as test oracles.

``forward`` and ``backward`` below build the (n_rows, concat_width) buffer:
every looked-up embedding row is copied into it beside both branch ReLU
outputs, and the first linear map of each trunk group (each head's ``w``
when the trunk is empty) multiplies the whole buffer. The network now
projects each table's touched rows through that map instead, which sums in
another order, so the equivalence tests compare the two within a relative
tolerance rather than by bytes.
"""

from __future__ import annotations

import numpy as np

from adinstall.network import NetworkParams, RowGrad, _scatter_add, _sigmoid
from adinstall.prep import PreparedDataset


def trunk_input(params: NetworkParams, batch: PreparedDataset) -> np.ndarray:
    """Every embedding row and both branch ReLUs in one (n_rows, concat_width) buffer."""
    config, b = params.config, params.blocks
    dtype = config.np_dtype
    concat = np.empty((batch.n_rows, config.concat_width), dtype)
    offset = 0
    for j, (col, m) in enumerate(zip(config.cat_columns, config.embedding_widths)):
        concat[:, offset : offset + m] = b[f"emb.{col}"][batch.cat_codes[:, j]]
        offset += m
    bin_pre = batch.binary.astype(dtype) @ b["bin.w"] + b["bin.b"]
    np.maximum(bin_pre, 0.0, out=concat[:, offset : offset + config.binary_width])
    offset += config.binary_width
    num_pre = batch.numeric.astype(dtype) @ b["num.w"] + b["num.b"]
    np.maximum(num_pre, 0.0, out=concat[:, offset:])
    return concat


def _forward(params: NetworkParams, batch: PreparedDataset,
             acts: dict[str, list[np.ndarray]] | None = None) -> np.ndarray:
    config, b = params.config, params.blocks
    concat = trunk_input(params, batch)
    probs = np.empty((batch.n_rows, len(config.heads)), dtype=np.float64)
    for group in config.trunk_groups():
        h = concat
        if acts is not None:
            acts[group] = [h]
        for i in range(len(config.trunk)):
            h = h @ b[f"trunk.{group}.{i}.w"]
            h += b[f"trunk.{group}.{i}.b"]
            np.maximum(h, 0.0, out=h)
            if acts is not None:
                acts[group].append(h)
        for k, head in enumerate(config.heads):
            if config.trunk_group_of(head) == group:
                z = h @ b[f"head.{head}.w"] + b[f"head.{head}.b"]
                probs[:, k] = _sigmoid(z.astype(np.float64))[:, 0]
    return probs


def forward(params: NetworkParams, batch: PreparedDataset) -> np.ndarray:
    return _forward(params, batch)


def backward(params: NetworkParams, batch: PreparedDataset, labels: np.ndarray,
             frozen_heads: frozenset[str] | None = None) -> dict[str, np.ndarray | RowGrad]:
    """The same gradients as ``adinstall.network.backward``, through the concat buffer."""
    config, b = params.config, params.blocks
    acts: dict[str, list[np.ndarray]] = {}
    probs = _forward(params, batch, acts)
    n = batch.n_rows
    y = np.asarray(labels, dtype=np.float64).reshape(n, len(config.heads))
    frozen = set(config.freeze_heads) | set(frozen_heads or ())
    grads: dict[str, np.ndarray | RowGrad] = {}

    d_out: dict[str, np.ndarray] = {}
    for k, head in enumerate(config.heads):
        dz = (config.loss_weights[k] * (probs[:, k] - y[:, k]) / n)[:, None]
        dz = dz.astype(config.np_dtype)
        group = config.trunk_group_of(head)
        if head not in frozen:
            grads[f"head.{head}.w"] = acts[group][-1].T @ dz
            grads[f"head.{head}.b"] = dz.sum(axis=0)
        d_in = dz @ b[f"head.{head}.w"].T
        d_out[group] = d_out[group] + d_in if group in d_out else d_in

    concat = acts[config.trunk_groups()[0]][0]
    d_concat = np.zeros_like(concat)
    for group in config.trunk_groups():
        layers, dh = acts[group], d_out[group]
        if config.trunk_sharing == "duplicated" and all(
            h in frozen for h in config.heads if config.trunk_group_of(h) == group
        ):
            continue
        for i in reversed(range(len(config.trunk))):
            dh = dh * (layers[i + 1] > 0)
            grads[f"trunk.{group}.{i}.w"] = layers[i].T @ dh
            grads[f"trunk.{group}.{i}.b"] = dh.sum(axis=0)
            dh = dh @ b[f"trunk.{group}.{i}.w"].T
        d_concat += dh

    offset = 0
    for j, (col, m) in enumerate(zip(config.cat_columns, config.embedding_widths)):
        rows, inverse = np.unique(batch.cat_codes[:, j], return_inverse=True)
        values = np.zeros((rows.size, m), dtype=config.np_dtype)
        _scatter_add(values, inverse, d_concat[:, offset : offset + m])
        if config.freeze_missing_row:
            values[rows == 0] = 0.0
        grads[f"emb.{col}"] = RowGrad(rows, values)
        offset += m

    span = slice(offset, offset + config.binary_width)
    dbin = d_concat[:, span] * (concat[:, span] > 0)
    grads["bin.w"] = batch.binary.astype(config.np_dtype).T @ dbin
    grads["bin.b"] = dbin.sum(axis=0)
    offset += config.binary_width
    dnum = d_concat[:, offset:] * (concat[:, offset:] > 0)
    grads["num.w"] = batch.numeric.astype(config.np_dtype).T @ dnum
    grads["num.b"] = dnum.sum(axis=0)
    return {name: grads[name] for name in b if name in grads}
