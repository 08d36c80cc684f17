"""Analytic gradients against the central finite-difference oracle."""

from __future__ import annotations

import numpy as np
import pytest

from adinstall.network import NetworkConfig, RowGrad, backward, init_network

from conftest import make_batch
from gradcheck import densify, max_relative_error, prepare_check_point, small_config, weighted_bce


@pytest.mark.parametrize(
    "heads,sharing",
    [
        (("is_installed",), "shared"),
        (("is_installed", "is_clicked"), "shared"),
        (("is_installed", "is_clicked"), "duplicated"),
    ],
)
def test_gradients_match_finite_differences(heads, sharing):
    cfg = small_config(seed=7, heads=heads, trunk_sharing=sharing)
    params, batch = prepare_check_point(cfg, batch_seed=42)
    assert max_relative_error(params, batch) < 1e-4


def test_unused_embedding_rows_get_zero_gradient(rng):
    cfg = small_config(seed=1)
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 4)
    grads = backward(params, batch, batch.labels)
    for j, col in enumerate(cfg.cat_columns):
        used = set(int(c) for c in batch.cat_codes[:, j])
        g = grads[f"emb.{col}"]
        assert isinstance(g, RowGrad) and g.values.shape == (len(used), cfg.embedding_widths[j])
        assert g.rows.tolist() == sorted(used)
        dense = densify(g, params.blocks[f"emb.{col}"].shape)
        for row in range(dense.shape[0]):
            if row not in used:
                assert np.all(dense[row] == 0.0)


def test_duplicated_trunk_heads_are_independent(rng):
    cfg = NetworkConfig(
        cat_columns=("c0",),
        vocab_sizes=(5,),
        n_binary=2,
        n_numerical=2,
        binary_width=4,
        numerical_width=4,
        trunk=(6,),
        heads=("is_installed", "is_clicked"),
        trunk_sharing="duplicated",
        head_loss_weights=(1.0, 0.0),  # gradient of the first head's loss alone
        seed=9,
    )
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 6)
    grads = backward(params, batch, batch.labels)
    for name, g in grads.items():
        if name.startswith(("trunk.is_clicked.", "head.is_clicked.")):
            assert np.all(g == 0.0), name
    assert np.any(grads["trunk.is_installed.0.w"] != 0.0)


def test_freeze_missing_row_zeroes_row_zero(rng):
    from dataclasses import replace

    cfg = small_config(seed=2)  # gradcheck configs keep the flag off
    cfg_frozen = replace(cfg, freeze_missing_row=True)
    params = init_network(cfg_frozen)
    batch = make_batch(rng, cfg_frozen, 8)
    batch.cat_codes[:, 0] = 0  # every row looks up the reserved code
    grads = backward(params, batch, batch.labels)
    assert grads["emb.c0"].rows.tolist() == [0]
    assert np.all(grads["emb.c0"].values == 0.0)

    unfrozen_params = init_network(cfg)
    grads_unfrozen = backward(unfrozen_params, batch, batch.labels)
    assert grads_unfrozen["emb.c0"].rows.tolist() == [0]
    assert np.any(grads_unfrozen["emb.c0"].values != 0.0)


def test_frozen_heads_argument(rng):
    cfg = small_config(seed=3, heads=("is_installed", "is_clicked"))
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 5)
    grads = backward(params, batch, batch.labels, frozen_heads=frozenset({"is_clicked"}))
    # no gradient at all, so an optimizer step cannot move the frozen head
    assert "head.is_clicked.w" not in grads and "head.is_clicked.b" not in grads
    assert np.any(grads["head.is_installed.w"] != 0.0)
    kept = [name for name in params.blocks if not name.startswith("head.is_clicked.")]
    assert list(grads) == kept


def test_frozen_duplicated_trunk_gets_no_gradient(rng):
    cfg = small_config(seed=3, heads=("is_installed", "is_clicked"), trunk_sharing="duplicated")
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 5)
    grads = backward(params, batch, batch.labels, frozen_heads=frozenset({"is_clicked"}))
    cut = [name for name in params.blocks
           if name.startswith(("trunk.is_clicked.", "head.is_clicked."))]
    assert cut and not set(cut) & set(grads)
    assert list(grads) == [name for name in params.blocks if name not in cut]


def test_single_sgd_step_does_not_increase_loss(rng):
    from adinstall.network import forward
    from adinstall.optim import OptimizerState, optimizer_step

    cfg = small_config(seed=5)
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 32)
    before = weighted_bce(forward(params, batch), batch.labels, cfg.loss_weights)
    grads = backward(params, batch, batch.labels)
    opt = OptimizerState.create("sgd", 1e-3, params)
    optimizer_step(opt, params, grads)
    after = weighted_bce(forward(params, batch), batch.labels, cfg.loss_weights)
    assert after <= before
