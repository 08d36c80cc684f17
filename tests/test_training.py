from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from adinstall import training
from adinstall.errors import PipelineMismatchError
from adinstall.metrics import log_loss
from adinstall.network import NetworkConfig, init_network
from adinstall.prep import PreparedDataset
from adinstall.training import (
    EarlyStopMonitor,
    TrainConfig,
    predict,
    retrain_full,
    split_train_val,
    train_with_early_stopping,
)

from conftest import make_batch


def net_config(**overrides) -> NetworkConfig:
    base = dict(
        cat_columns=("f_2", "f_3"),
        vocab_sizes=(8, 30),
        n_binary=2,
        n_numerical=4,
        binary_width=8,
        numerical_width=8,
        trunk=(16,),
        heads=("is_installed",),
        seed=5,
    )
    base.update(overrides)
    return NetworkConfig(**base)


def train_config(**overrides) -> TrainConfig:
    base = dict(max_epochs=8, patience=2, seed=11, batch_size=256, learning_rate=3e-3)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# early-stop bookkeeping
# ---------------------------------------------------------------------------


def test_early_stop_rule_on_scripted_losses():
    mon = EarlyStopMonitor(patience=2)
    outcomes = [mon.observe(e, loss) for e, loss in enumerate([0.40, 0.35, 0.37, 0.38], start=1)]
    assert outcomes == [False, False, False, True]
    assert mon.best_epoch == 2
    assert mon.best_loss == 0.35


def test_early_stop_improvement_resets_wait():
    mon = EarlyStopMonitor(patience=3)
    for epoch, loss in enumerate([0.5, 0.49, 0.50, 0.48, 0.50, 0.50], start=1):
        stopped = mon.observe(epoch, loss)
    assert not stopped
    assert mon.best_epoch == 4 and mon.wait == 2


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_sizes(small_synth_dataset):
    ds = small_synth_dataset
    tr, va = split_train_val(ds, seed=0)
    assert va.size == round(ds.n_rows / 4)
    assert tr.size + va.size == ds.n_rows


def test_split_four_rows(small_synth_dataset):
    ds = small_synth_dataset.take(np.arange(4))
    tr, va = split_train_val(ds, seed=1)
    assert (tr.size, va.size) == (3, 1)


def test_split_deterministic_disjoint_covering(small_synth_dataset):
    ds = small_synth_dataset
    tr1, va1 = split_train_val(ds, seed=3)
    tr2, va2 = split_train_val(ds, seed=3)
    assert np.array_equal(tr1, tr2) and np.array_equal(va1, va2)
    assert np.all(np.diff(tr1) > 0) and np.all(np.diff(va1) > 0)  # sorted
    assert np.intersect1d(tr1, va1).size == 0
    assert np.array_equal(np.union1d(tr1, va1), np.arange(ds.n_rows))
    tr3, _ = split_train_val(ds, seed=4)
    assert not np.array_equal(tr3, tr1)


def test_split_rejects_unlabeled(small_synth_dataset):
    ds = small_synth_dataset
    unlabeled = ds.take(np.arange(ds.n_rows))
    object.__setattr__(unlabeled, "labels", None)
    with pytest.raises(PipelineMismatchError):
        split_train_val(unlabeled, seed=0)


def test_split_label_balance_at_scale():
    rng = np.random.default_rng(0)
    from conftest import make_batch

    cfg = net_config()
    ds = make_batch(rng, cfg, 10_000)
    base = float(ds.labels[:, 0].mean())
    _, va = split_train_val(ds, seed=9)
    val_rate = float(ds.labels[va, 0].mean())
    assert abs(val_rate - base) < 0.05


# ---------------------------------------------------------------------------
# the training protocol
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(small_synth_dataset):
    params, history = train_with_early_stopping(
        small_synth_dataset, net_config(), train_config()
    )
    return params, history


def test_history_bookkeeping(trained):
    _, history = trained
    assert 1 <= history.best_epoch <= history.stopped_epoch
    monitored = [rec.val_loss[history.monitor_head] for rec in history.epochs]
    assert history.best_val_loss() == min(monitored)
    assert history.epochs[history.best_epoch - 1].is_best


def test_restored_params_reproduce_best_val_loss(trained, small_synth_dataset):
    params, history = trained
    cfg = train_config()
    _, val_rows = split_train_val(small_synth_dataset, cfg.seed, cfg.val_fraction)
    val = small_synth_dataset.take(val_rows)
    probs = predict(params, val)
    re_evaluated = log_loss(val.label_matrix(("is_installed",))[:, 0], probs[:, 0])
    assert abs(re_evaluated - history.best_val_loss()) < 1e-12


def test_training_is_deterministic(small_synth_dataset):
    a, ha = train_with_early_stopping(small_synth_dataset, net_config(), train_config())
    b, hb = train_with_early_stopping(small_synth_dataset, net_config(), train_config())
    assert ha.best_epoch == hb.best_epoch
    for name in a.blocks:
        assert np.array_equal(a.blocks[name], b.blocks[name])


def test_training_beats_base_rate(trained, small_synth_dataset):
    _, history = trained
    y = small_synth_dataset.label_matrix(("is_installed",))
    q = float(y.mean())
    entropy = -(q * np.log(q) + (1 - q) * np.log(1 - q))
    assert history.best_val_loss() < entropy


def test_overfitting_past_best_epoch(small_synth_dataset):
    # memorization-friendly setup: small data, roomy model, many epochs
    ds = small_synth_dataset.take(np.arange(800))
    cfg = net_config(trunk=(64, 32), seed=2)
    stop_cfg = train_config(max_epochs=40, patience=40, learning_rate=5e-3, batch_size=64)
    _, history = train_with_early_stopping(ds, cfg, stop_cfg)
    best = history.best_epoch
    last = history.epochs[-1]
    at_best = history.epochs[best - 1]
    assert history.stopped_epoch >= best + 5
    assert last.train_loss["is_installed"] < at_best.train_loss["is_installed"]
    assert last.val_loss["is_installed"] > at_best.val_loss["is_installed"]


def test_training_takes_only_batches_and_scores_once_per_epoch(small_synth_dataset, monkeypatch):
    # the split is two index arrays into the one dataset: only batches are
    # taken at an index array, and each epoch scores the whole dataset once
    taken, scored = [], []
    real_take, real_predict = PreparedDataset.take, training.predict

    def recording_take(self, indices):
        if not isinstance(indices, slice):
            taken.append(len(indices))
        return real_take(self, indices)

    def recording_predict(params, dataset):
        scored.append(dataset)
        return real_predict(params, dataset)

    monkeypatch.setattr(PreparedDataset, "take", recording_take)
    monkeypatch.setattr(training, "predict", recording_predict)
    cfg = train_config(max_epochs=3, patience=3)
    _, history = train_with_early_stopping(small_synth_dataset, net_config(), cfg)
    assert history.stopped_epoch == len(history.epochs) == 3
    assert max(taken) <= cfg.batch_size
    n_train = small_synth_dataset.n_rows - round(small_synth_dataset.n_rows * cfg.val_fraction)
    assert sum(taken) == 3 * n_train
    assert len(scored) == 3 and all(ds is small_synth_dataset for ds in scored)


def test_monitor_head_must_exist(small_synth_dataset):
    with pytest.raises(ValueError, match="monitor head"):
        train_with_early_stopping(
            small_synth_dataset, net_config(), train_config(monitor_head="nope")
        )


def test_divergence_aborts_gracefully(small_synth_dataset, monkeypatch):
    import adinstall.training as training_mod

    real_backward = training_mod.backward
    calls = {"n": 0}

    def poisoned(params, batch, labels, frozen_heads=None):
        calls["n"] += 1
        grads = real_backward(params, batch, labels, frozen_heads=frozen_heads)
        if calls["n"] > 3:
            grads["bin.w"] = grads["bin.w"] * np.nan
        return grads

    monkeypatch.setattr(training_mod, "backward", poisoned)
    params, history = train_with_early_stopping(
        small_synth_dataset, net_config(), train_config()
    )
    assert history.diverged
    assert "bin.w" in history.diagnostic
    assert all(np.isfinite(block).all() for block in params.blocks.values())


def test_per_head_monitoring_duplicated_trunks(small_synth_dataset):
    cfg = net_config(
        heads=("is_clicked", "is_installed"),
        trunk_sharing="duplicated",
        seed=3,
    )
    params, history = train_with_early_stopping(
        small_synth_dataset,
        cfg,
        train_config(monitor_mode="per_head", max_epochs=6, patience=1),
    )
    assert set(history.per_head_best) == {"is_clicked", "is_installed"}
    assert all(1 <= e <= history.stopped_epoch for e in history.per_head_best.values())
    assert all(np.isfinite(block).all() for block in params.blocks.values())


def test_per_head_returns_each_heads_best_blocks(small_synth_dataset, monkeypatch):
    monitors = []

    class Recording(EarlyStopMonitor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            monitors.append(self)

    monkeypatch.setattr(training, "EarlyStopMonitor", Recording)
    cfg = net_config(heads=("is_clicked", "is_installed"), trunk_sharing="duplicated", seed=3)
    stop_cfg = train_config(monitor_mode="per_head", max_epochs=12, patience=1)
    params, history = train_with_early_stopping(small_synth_dataset, cfg, stop_cfg)
    # one head stopped while the other kept training
    assert any(m.stopped and m.best_epoch + stop_cfg.patience < history.stopped_epoch
               for m in monitors)
    for monitor in monitors:
        for name, best in monitor.best_blocks.items():
            assert params.blocks[name].tobytes() == best.tobytes(), name


def test_per_head_restored_params_reproduce_each_heads_best_val_loss(small_synth_dataset):
    # The shared embeddings and branches keep training for one head after the
    # other stops, so only a model without them makes a head's validation loss
    # a function of its own blocks: here every input column is dropped, and
    # each head learns its base rate through its own trunk copy and output.
    ds = dataclasses.replace(
        small_synth_dataset, cat_names=(), cat_codes=small_synth_dataset.cat_codes[:, :0],
        bin_names=(), binary=small_synth_dataset.binary[:, :0],
        num_names=(), numeric=small_synth_dataset.numeric[:, :0],
    )
    heads = ("is_clicked", "is_installed")
    cfg = net_config(cat_columns=(), vocab_sizes=(), n_binary=0, n_numerical=0, trunk=(4,),
                     heads=heads, trunk_sharing="duplicated", seed=3)
    stop_cfg = train_config(monitor_mode="per_head", max_epochs=30, patience=1,
                            batch_size=64, learning_rate=0.3)
    params, history = train_with_early_stopping(ds, cfg, stop_cfg)
    assert min(history.per_head_best.values()) + stop_cfg.patience < history.stopped_epoch
    _, val_rows = split_train_val(ds, stop_cfg.seed, stop_cfg.val_fraction)
    val = ds.take(val_rows)
    probs = predict(params, val)
    y = val.label_matrix(heads)
    for k, head in enumerate(heads):
        best = history.epochs[history.per_head_best[head] - 1].val_loss[head]
        assert log_loss(y[:, k], probs[:, k]) == best, head


# ---------------------------------------------------------------------------
# full retraining and inference
# ---------------------------------------------------------------------------


def test_retrain_full_deterministic(small_synth_dataset):
    a, _ = retrain_full(small_synth_dataset, net_config(), train_config(), epoch_count=2)
    b, _ = retrain_full(small_synth_dataset, net_config(), train_config(), epoch_count=2)
    for name in a.blocks:
        assert np.array_equal(a.blocks[name], b.blocks[name])


def test_retrain_full_rejects_zero_epochs(small_synth_dataset):
    with pytest.raises(ValueError):
        retrain_full(small_synth_dataset, net_config(), train_config(), epoch_count=0)


def test_retrain_loss_improves_over_first_epoch(small_synth_dataset):
    # both runs share their first epoch: initialization and batch order are seeded
    y = small_synth_dataset.label_matrix(("is_installed",))[:, 0]
    losses = []
    for epochs in (1, 4):
        params, history = retrain_full(small_synth_dataset, net_config(), train_config(), epochs)
        assert history.stopped_epoch == epochs and not history.diverged
        losses.append(log_loss(y, predict(params, small_synth_dataset)[:, 0]))
    assert losses[1] <= losses[0]


def test_retrain_evaluates_nothing(small_synth_dataset, monkeypatch):
    import adinstall.training as training_mod

    def no_scoring(*args, **kwargs):
        raise AssertionError("the retrain scored a dataset")

    monkeypatch.setattr(training_mod, "predict", no_scoring)
    _, history = retrain_full(small_synth_dataset, net_config(), train_config(), epoch_count=2)
    assert history.epochs == [] and history.stopped_epoch == 2


def test_predict_properties(small_synth_dataset, rng):
    cfg = net_config()
    params = init_network(cfg)
    ds = small_synth_dataset.take(np.arange(100))
    p1 = predict(params, ds)
    p2 = predict(params, ds)
    assert np.array_equal(p1, p2)
    perm = rng.permutation(100)
    assert np.array_equal(predict(params, ds.take(perm)), p1[perm])
    for arr in params.blocks.values():
        arr[...] = 0.0
    assert np.all(predict(params, ds) == 0.5)


def test_history_files_have_no_timing_columns(trained):
    _, history = trained
    lines = history.record_lines()
    assert lines[0].split("\t") == ["epoch", "train_loss.is_installed", "val_loss.is_installed", "best"]
    assert len(lines) == len(history.epochs) + 1
    assert sum(line.split("\t")[-1] == "1" for line in lines[1:]) >= 1
    table = history.render_table()
    assert "epoch" in table and "time" not in table.lower()


# ---------------------------------------------------------------------------
# scoring in bounded memory
# ---------------------------------------------------------------------------


def test_eval_batch_rows_follow_the_byte_budget(monkeypatch):
    # an 8 + 8 dense block, one 30-wide embedding row and three arrays as
    # wide as the 16-wide trunk layer
    cfg = net_config()
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 1000 * 8 * (16 + 30 + 3 * 16))
    assert training.eval_batch_rows(cfg) == 960  # 1000 rounded down to a multiple of 64
    assert training.eval_batch_rows(net_config(dtype="f32")) == 1984
    assert training.eval_batch_rows(net_config(trunk=(100, 8))) == 256  # 271 rounded down
    assert training.eval_batch_rows(net_config(vocab_sizes=(8, 300))) == 256  # 293 rounded down
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 1)
    assert training.eval_batch_rows(cfg) == 64


@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 127, 128, 191, 192, 200, 300, 2400])
def test_predict_scores_contiguous_views_of_at_least_64_rows(small_synth_dataset, monkeypatch,
                                                             n_rows):
    params = init_network(net_config())
    ds = small_synth_dataset.take(np.arange(n_rows))
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 128 * 8 * (16 + 30 + 3 * 16))
    batches = []
    real_forward = training.forward

    def recording(params, batch, *rest):
        batches.append(batch)
        return real_forward(params, batch, *rest)

    monkeypatch.setattr(training, "forward", recording)
    probs = predict(params, ds)
    assert probs.shape == (n_rows, 1)
    sizes = [b.n_rows for b in batches]
    assert sum(sizes) == n_rows
    assert all(size == 128 for size in sizes[:-1])
    if sizes:
        assert 64 <= sizes[-1] < 128 + 64 or sizes == [n_rows]
    # contiguous ranges, in order, covering every row once, taken as views
    # rather than copies
    start = 0
    for b in batches:
        for block in ("cat_codes", "binary", "numeric", "labels"):
            view = getattr(ds, block)[start : start + b.n_rows]
            assert getattr(b, block).__array_interface__ == view.__array_interface__, block
        start += b.n_rows
    assert start == n_rows
    if n_rows:
        whole = real_forward(params, ds)
        np.testing.assert_allclose(probs, whole, rtol=0, atol=1e-12)


def test_predict_memory_is_set_by_the_budget_not_the_rows(small_synth_dataset, monkeypatch):
    params = init_network(net_config(vocab_sizes=(8, 300)))  # 8 + 256 + 16 concat columns
    budget = 1 << 20
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", budget)
    rows = training.eval_batch_rows(params.config)

    def traced_peak(n_rows: int) -> tuple[int, int]:
        ds = small_synth_dataset.take(np.arange(n_rows) % small_synth_dataset.n_rows)
        tracemalloc.start()
        try:
            probs = predict(params, ds)
            return tracemalloc.get_traced_memory()[1], probs.nbytes
        finally:
            tracemalloc.stop()

    # the returned array grows with the rows, so the peaks are compared
    # less the output's bytes
    peak, out_bytes = traced_peak(2 * rows)
    assert peak < 1.5 * budget + out_bytes
    peak_8x, out_bytes_8x = traced_peak(8 * rows)
    assert peak_8x - out_bytes_8x < 1.1 * (peak - out_bytes)


def test_predict_keeps_its_per_call_projections_within_the_budget(rng, monkeypatch):
    # some tables are kept for the whole call, one is left per batch; the
    # 8x dataset repeats the 2x one, so both touch the same codes
    params = init_network(net_config(cat_columns=("a", "b", "c"), vocab_sizes=(100, 1000, 5000),
                                     trunk=(512,)))
    budget = 2 << 20  # 128-row batches; 4 KiB of products per code
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", budget)
    rows = training.eval_batch_rows(params.config)
    base = make_batch(rng, params.config, 2 * rows)
    kept = []
    project = training.project_tables
    monkeypatch.setattr(training, "project_tables",
                        lambda *args: kept.append(project(*args)) or kept[-1])

    def traced_peak(ds) -> int:
        tracemalloc.start()
        try:
            predict(params, ds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = traced_peak(base)
    tables = kept[-1]
    assert any(t is None for t in tables) and any(t is not None for t in tables)
    held = sum(p.nbytes for t in tables if t is not None for p in t.products.values())
    assert 0 < held <= budget
    assert peak < 2 * budget
    assert traced_peak(base.take(np.arange(8 * rows) % base.n_rows)) < 1.1 * peak
