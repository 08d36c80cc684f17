from __future__ import annotations

import numpy as np
import pytest

from adinstall.errors import NonFiniteGradientError
from adinstall.network import RowGrad, init_network
from adinstall.optim import ADAM_CHUNK, OptimizerState, optimizer_step

from gradcheck import densify
from test_network import small_config, traced_peak


def constant_grads(params, value):
    return {k: np.full_like(a, value) for k, a in params.blocks.items()}


def test_sgd_example():
    params = init_network(small_config())
    params.blocks["bin.b"][...] = 1.0
    grads = {k: np.zeros_like(a) for k, a in params.blocks.items()}
    grads["bin.b"][...] = 0.5
    opt = OptimizerState.create("sgd", 0.1, params)
    optimizer_step(opt, params, grads)
    assert np.allclose(params.blocks["bin.b"], 0.95, atol=1e-15)
    assert opt.step == 1


def test_adam_first_step_is_bias_corrected_sign_step():
    params = init_network(small_config())
    before = {k: a.copy() for k, a in params.blocks.items()}
    g = 0.5
    opt = OptimizerState.create("adam", 1e-3, params)
    optimizer_step(opt, params, constant_grads(params, g))
    # m_hat = g, v_hat = g^2 at t=1, so the update is lr * g / (|g| + eps)
    expected = 1e-3 * g / (abs(g) + 1e-8)
    for name, arr in params.blocks.items():
        assert np.allclose(before[name] - arr, expected, atol=1e-15), name


def test_zero_gradient_is_a_no_op():
    params = init_network(small_config())
    before = {k: a.copy() for k, a in params.blocks.items()}
    for algorithm in ("sgd", "adam"):
        opt = OptimizerState.create(algorithm, 0.5, params)
        optimizer_step(opt, params, constant_grads(params, 0.0))
        for name, arr in params.blocks.items():
            assert np.array_equal(arr, before[name]), (algorithm, name)


def test_non_finite_gradient_rejected():
    params = init_network(small_config())
    before = {k: a.copy() for k, a in params.blocks.items()}
    grads = constant_grads(params, 0.1)
    grads["num.w"][0, 0] = np.nan
    opt = OptimizerState.create("adam", 1e-3, params)
    with pytest.raises(NonFiniteGradientError, match="num.w"):
        optimizer_step(opt, params, grads)
    # params untouched on abort
    for name, arr in params.blocks.items():
        assert np.array_equal(arr, before[name])
    assert opt.step == 0


def test_adam_moments_accumulate_and_step_counts():
    params = init_network(small_config())
    opt = OptimizerState.create("adam", 1e-3, params)
    for expected_step in (1, 2, 3):
        optimizer_step(opt, params, constant_grads(params, 0.2))
        assert opt.step == expected_step
    assert np.all(opt.m["bin.w"] != 0.0)
    assert np.all(opt.v["bin.w"] > 0.0)


def test_unknown_optimizer_rejected():
    params = init_network(small_config())
    with pytest.raises(ValueError):
        OptimizerState.create("rmsprop", 1e-3, params)
    with pytest.raises(ValueError):
        OptimizerState.create("sgd", -1.0, params)


def dense_reference_step(algorithm, blocks, m, v, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """SGD and Adam as whole-array expressions over dense gradients."""
    for name, g in grads.items():
        if algorithm == "sgd":
            blocks[name] -= lr * g
            continue
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * np.square(g)
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        blocks[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def row_grads(rng, params, step, freeze_missing_row):
    """Dense gradients for every block but the large table, which gets a
    RowGrad: rows 0..29 in most steps, and the whole table in the first step
    and from step 20 on, so most rows go untouched for many steps."""
    grads = {name: rng.normal(scale=1e-2, size=a.shape).astype(a.dtype)
             for name, a in params.blocks.items() if name != "emb.c1"}
    table = params.blocks["emb.c1"]
    high = table.shape[0] if step == 0 or step >= 20 else 30
    rows = np.unique(rng.integers(0, high, 64))
    values = rng.normal(scale=1e-2, size=(rows.size, table.shape[1])).astype(table.dtype)
    if freeze_missing_row:
        values[rows == 0] = 0.0
    grads["emb.c1"] = RowGrad(rows, values)
    return grads


@pytest.mark.parametrize("algorithm", ["adam", "sgd"])
@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("freeze_missing_row", [True, False])
def test_row_gradients_update_exactly_like_dense_ones(rng, algorithm, dtype, freeze_missing_row):
    # a 1,101 x 256 table spans several Adam chunks, the last one short
    cfg = small_config(vocab_sizes=(4, 1100), dtype=dtype, freeze_missing_row=freeze_missing_row)
    params = init_network(cfg)
    assert params.blocks["emb.c1"].size % ADAM_CHUNK and params.blocks["emb.c1"].size > ADAM_CHUNK
    blocks = {name: a.copy() for name, a in params.blocks.items()}
    m = {name: np.zeros_like(a) for name, a in blocks.items()}
    v = {name: np.zeros_like(a) for name, a in blocks.items()}
    opt = OptimizerState.create(algorithm, 3e-3, params)
    for step in range(24):
        grads = row_grads(rng, params, step, freeze_missing_row)
        optimizer_step(opt, params, grads)
        dense = {name: densify(g, blocks[name].shape) for name, g in grads.items()}
        dense_reference_step(algorithm, blocks, m, v, dense, step + 1, 3e-3)
        for name, arr in params.blocks.items():
            assert arr.tobytes() == blocks[name].tobytes(), (step, name)
            if algorithm == "adam":
                assert opt.m[name].tobytes() == m[name].tobytes(), (step, name)
                assert opt.v[name].tobytes() == v[name].tobytes(), (step, name)
    if freeze_missing_row:
        assert params.blocks["emb.c1"][0].tobytes() == init_network(cfg).blocks["emb.c1"][0].tobytes()


def test_a_decaying_moment_never_reaches_negative_zero():
    # Dense Adam adds (1 - beta1) * 0.0 to an untouched row's moment, a
    # RowGrad skips that add, and x + 0.0 differs from x only at x = -0.0.
    # With beta1 = 0.9 the decay of a nonzero moment rounds to a nonzero
    # value, even at the smallest subnormal, so a moment that starts at +0.0
    # is never -0.0 and the skipped add never changes a bit.
    params = init_network(small_config())
    opt = OptimizerState.create("adam", 1e-3, params)
    m = {name: np.zeros_like(a) for name, a in params.blocks.items()}
    v = {name: np.zeros_like(a) for name, a in params.blocks.items()}
    for moments in (opt.m, m):
        moments["emb.c1"][5] = -np.nextafter(0.0, 1.0)  # the smallest negative double
    blocks = {name: a.copy() for name, a in params.blocks.items()}
    grads = {"emb.c1": RowGrad(np.array([1, 2]), np.full((2, 256), 0.1))}
    for t in range(1, 31):
        optimizer_step(opt, params, grads)
        dense_reference_step("adam", blocks, m, v,
                             {"emb.c1": densify(grads["emb.c1"], (301, 256))}, t, 1e-3)
    assert np.all(opt.m["emb.c1"][5] == -np.nextafter(0.0, 1.0))
    assert opt.m["emb.c1"].tobytes() == m["emb.c1"].tobytes()
    assert opt.v["emb.c1"].tobytes() == v["emb.c1"].tobytes()
    assert params.blocks["emb.c1"].tobytes() == blocks["emb.c1"].tobytes()


def test_non_finite_row_gradient_rejected_before_any_change(rng):
    params = init_network(small_config())
    opt = OptimizerState.create("adam", 1e-3, params)
    optimizer_step(opt, params, row_grads(rng, params, 0, True))
    before = [{k: a.copy() for k, a in d.items()} for d in (params.blocks, opt.m, opt.v)]
    grads = row_grads(rng, params, 1, True)
    # the table is the last block, so a check made block by block while
    # updating would already have moved every other block and its moments
    grads["emb.c1"].values[-1, 3] = np.nan
    with pytest.raises(NonFiniteGradientError, match="emb.c1"):
        optimizer_step(opt, params, grads)
    assert opt.step == 1
    for saved, now in zip(before, (params.blocks, opt.m, opt.v)):
        for name, arr in now.items():
            assert arr.tobytes() == saved[name].tobytes(), name


def test_adam_step_memory_follows_the_touched_rows(rng):
    # the rows a 4,096-row batch touches, in a 3,001- and a 30,001-row table:
    # a dense gradient, or a dense Adam temporary, would be 61 MB at 30,001 rows
    rows = np.unique(rng.zipf(1.3, 4096) % 3001)
    values = rng.normal(size=(rows.size, 256))
    peaks = []
    for vocab in (3_000, 30_000):
        params = init_network(small_config(vocab_sizes=(4, vocab)))
        opt = OptimizerState.create("adam", 1e-3, params)
        grads = {name: np.zeros_like(a) for name, a in params.blocks.items() if name != "emb.c1"}
        grads["emb.c1"] = RowGrad(rows, values)
        peaks.append(traced_peak(lambda: optimizer_step(opt, params, grads)))
        del params, opt, grads
    scratch = 2 * ADAM_CHUNK * values.itemsize
    assert peaks[1] < 2 * values.nbytes + scratch
    assert peaks[1] <= 1.05 * peaks[0]
