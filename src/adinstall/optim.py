"""Parameter update rules: plain SGD and Adam with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradientError
from .network import NetworkParams, RowGrad

# elements per pass of the Adam update through the scratch buffers
ADAM_CHUNK = 1 << 15


@dataclass
class OptimizerState:
    algorithm: str  # "sgd" or "adam"
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    # two ADAM_CHUNK-element buffers every Adam update runs through
    scratch: tuple[np.ndarray, ...] = ()

    @classmethod
    def create(cls, algorithm: str, learning_rate: float, params: NetworkParams) -> "OptimizerState":
        if algorithm not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {algorithm!r}")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        state = cls(algorithm=algorithm, learning_rate=learning_rate)
        if algorithm == "adam":
            state.m = {k: np.zeros_like(a) for k, a in params.blocks.items()}
            state.v = {k: np.zeros_like(a) for k, a in params.blocks.items()}
            dtype = params.config.np_dtype
            state.scratch = (np.empty(ADAM_CHUNK, dtype), np.empty(ADAM_CHUNK, dtype))
        return state


def optimizer_step(
    state: OptimizerState, params: NetworkParams, grads: dict[str, np.ndarray | RowGrad]
) -> tuple[NetworkParams, OptimizerState]:
    """Apply one update in place; returns the same objects for chaining.

    A gradient is a dense array of its block's shape or a :class:`RowGrad`,
    whose rows outside ``rows`` are zero. Adam stays exact dense Adam on a
    ``RowGrad``: every row's moments decay each step, and only the touched
    rows add their gradient. Skipping the add of ``(1 - beta1) * 0.0``
    changes no bit, because ``x + 0.0`` differs from ``x`` only at
    ``x = -0.0`` and a moment is never -0.0: it starts at +0.0, and with
    ``beta1 > 0.5`` the decay of a nonzero moment never rounds to zero.

    Raises :class:`NonFiniteGradientError` before touching any parameter if
    a gradient block contains NaN or infinity.
    """
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(_rows_values(g)[1]))]
    if bad:
        raise NonFiniteGradientError(f"non-finite gradients in blocks {bad} at step {state.step}")

    state.step += 1
    lr = state.learning_rate
    if state.algorithm == "sgd":
        for name, g in grads.items():
            rows, values = _rows_values(g)
            params.blocks[name][rows] -= lr * values
        return params, state

    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, g in grads.items():
        rows, values = _rows_values(g)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m[rows] += (1.0 - state.beta1) * values
        v *= state.beta2
        v[rows] += (1.0 - state.beta2) * np.square(values)
        _adam_update(params.blocks[name], m, v, lr, bc1, bc2, state.eps, state.scratch)
    return params, state


def _rows_values(g: np.ndarray | RowGrad) -> tuple[np.ndarray | slice, np.ndarray]:
    """The rows a gradient covers, as an index, and its values there."""
    return (g.rows, g.values) if isinstance(g, RowGrad) else (slice(None), g)


def _adam_update(
    p: np.ndarray, m: np.ndarray, v: np.ndarray,
    lr: float, bc1: float, bc2: float, eps: float, scratch: tuple[np.ndarray, ...],
) -> None:
    """``p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)``, a chunk at a time.

    Each element goes through the same operations in the same order as the
    whole-array expression, so the result is the same bits, while the
    temporaries stay two chunks long whatever the block's size.
    """
    p, m, v = (a.reshape(-1, copy=False) for a in (p, m, v))
    for start in range(0, p.size, ADAM_CHUNK):
        part = slice(start, start + ADAM_CHUNK)
        k = min(ADAM_CHUNK, p.size - start)
        step, denom = scratch[0][:k], scratch[1][:k]
        np.divide(m[part], bc1, out=step)
        np.multiply(lr, step, out=step)
        np.divide(v[part], bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p[part] -= step
