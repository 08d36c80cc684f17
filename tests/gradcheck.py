"""Central finite-difference oracle for the analytic gradients.

An embedding gradient must cover exactly the rows the batch looked up, so
every other row's gradient is zero by construction (the loss is constant in
those coordinates); the derivative check runs on every remaining parameter.

A central difference is only a valid derivative probe where the loss is
differentiable within the probe radius, so check points are chosen clear
of ReLU kinks: biases are jittered off zero and the batch is redrawn until
every ReLU pre-activation has magnitude above a safety margin (a +-1e-4
parameter nudge moves a pre-activation by far less than that).
"""

from __future__ import annotations

import numpy as np

from adinstall.network import (
    NetworkConfig,
    NetworkParams,
    RowGrad,
    backward,
    forward,
    init_network,
)
from adinstall.prep import PreparedDataset

from conftest import make_batch

KINK_MARGIN = 2e-3


def weighted_bce(probs: np.ndarray, labels: np.ndarray, weights, eps: float = 1e-15) -> float:
    """The loss ``backward`` differentiates: the weighted sum over heads of
    each head's mean binary cross-entropy, probabilities clipped to [eps, 1 - eps]."""
    p = np.clip(np.asarray(probs, dtype=np.float64).reshape(len(labels), -1), eps, 1.0 - eps)
    y = np.asarray(labels, dtype=np.float64).reshape(p.shape)
    per_head = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=0)
    return float(per_head @ np.asarray(weights, dtype=np.float64))


def relative_errors(
    params: NetworkParams, batch: PreparedDataset, h: float = 1e-4
) -> dict[str, float]:
    """Max relative error per block between analytic and numeric gradients."""
    cfg = params.config
    y = batch.labels
    grads = backward(params, batch, y)
    def loss() -> float:
        return weighted_bce(forward(params, batch), y, cfg.loss_weights)

    worst: dict[str, float] = {}
    for name, arr in params.blocks.items():
        g = densify(grads[name], arr.shape)
        if name.startswith("emb."):
            j = cfg.cat_columns.index(name[4:])
            touched = grads[name].rows
            assert np.array_equal(touched, np.unique(batch.cat_codes[:, j])), \
                f"{name}: the gradient must cover exactly the rows looked up"
            coords = [(r, c) for r in touched.tolist() for c in range(arr.shape[1])]
        else:
            coords = list(np.ndindex(arr.shape))
        block_worst = 0.0
        for idx in coords:
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss()
            arr[idx] = orig - h
            lm = loss()
            arr[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            rel = abs(numeric - g[idx]) / max(abs(numeric), abs(g[idx]), 1e-6)
            block_worst = max(block_worst, rel)
        worst[name] = block_worst
    return worst


def densify(grad: np.ndarray | RowGrad, shape: tuple[int, ...]) -> np.ndarray:
    """A gradient as a full array of its block's shape."""
    if not isinstance(grad, RowGrad):
        return grad
    dense = np.zeros(shape, dtype=grad.values.dtype)
    dense[grad.rows] = grad.values
    return dense


def max_relative_error(params: NetworkParams, batch: PreparedDataset, h: float = 1e-4) -> float:
    return max(relative_errors(params, batch, h).values())


def small_config(
    seed: int,
    heads: tuple[str, ...] = ("is_installed",),
    trunk_sharing: str = "shared",
    vocab_sizes: tuple[int, ...] = (3, 300),
    trunk: tuple[int, ...] = (8,),
) -> NetworkConfig:
    return NetworkConfig(
        cat_columns=tuple(f"c{i}" for i in range(len(vocab_sizes))),
        vocab_sizes=vocab_sizes,
        n_binary=3,
        n_numerical=4,
        binary_width=8,
        numerical_width=8,
        trunk=trunk,
        heads=heads,
        trunk_sharing=trunk_sharing,
        freeze_missing_row=False,  # check the true derivative everywhere
        seed=seed,
    )


def relu_pre_margin(params: NetworkParams, batch: PreparedDataset) -> float:
    """Smallest |pre-activation| over every ReLU in the network, from a
    reference forward pass that keeps each one."""
    cfg, b = params.config, params.blocks
    pres = [batch.binary @ b["bin.w"] + b["bin.b"], batch.numeric @ b["num.w"] + b["num.b"]]
    embs = [b[f"emb.{col}"][batch.cat_codes[:, j]] for j, col in enumerate(cfg.cat_columns)]
    concat = np.concatenate([*embs, np.maximum(pres[0], 0.0), np.maximum(pres[1], 0.0)], axis=1)
    for group in cfg.trunk_groups():
        h = concat
        for i in range(len(cfg.trunk)):
            pres.append(h @ b[f"trunk.{group}.{i}.w"] + b[f"trunk.{group}.{i}.b"])
            h = np.maximum(pres[-1], 0.0)
    return min(float(np.abs(p).min()) for p in pres if p.size)


def prepare_check_point(
    cfg: NetworkConfig, batch_seed: int, n_rows: int = 5, attempts: int = 50
) -> tuple[NetworkParams, PreparedDataset]:
    """Random params and batch with every ReLU clear of its kink."""
    params = init_network(cfg)
    rng = np.random.default_rng(batch_seed)
    for _ in range(attempts):
        for name, arr in params.blocks.items():
            if name.endswith(".b") and not name.startswith("head."):
                arr[...] = rng.uniform(0.05, 0.25, arr.shape)
        batch = make_batch(rng, cfg, n_rows)
        if relu_pre_margin(params, batch) >= KINK_MARGIN:
            return params, batch
    raise AssertionError(f"no kink-free check point found for seed {batch_seed}")
