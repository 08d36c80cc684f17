"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timing. Criterion 9 needs real challenge data and is skipped
unless ADINSTALL_DATA_DIR points at a directory with schema.txt and
train.tsv.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from adinstall.cli import main
from adinstall.metrics import confusion, log_loss, nir, report
from adinstall.network import NetworkConfig, backward, init_network
from adinstall.prep import fit_imputer, fit_pipeline, impute
from adinstall.synth import SynthSpec, generate
from adinstall.training import TrainConfig, predict, retrain_full, train_with_early_stopping

from conftest import make_batch
from gradcheck import max_relative_error, prepare_check_point, small_config
from test_imputer import brute_mean, brute_median
from test_metrics import naive_confusion, naive_log_loss

# ---------------------------------------------------------------------------
# the shared 50k synthetic run (criteria 4, 5, 6)
# ---------------------------------------------------------------------------

SYNTH_SPEC = SynthSpec(
    n_rows=50_000,
    test_rows=1_000,
    seed=42,
    base_rate=0.17,
    numeric_missing_rate=0.10,
    signal_scale=1.2,
)

TRAIN_CONFIG = TrainConfig(
    max_epochs=16, patience=3, seed=0, batch_size=1024, learning_rate=2e-3
)


@pytest.fixture(scope="module")
def synth_run():
    t0 = time.perf_counter()
    result = generate(SYNTH_SPEC)
    pipeline = fit_pipeline(result.train)
    dataset = pipeline.transform(result.train)
    net = NetworkConfig(
        cat_columns=pipeline.cat_names,
        vocab_sizes=pipeline.vocab_sizes(),
        n_binary=len(pipeline.bin_names),
        n_numerical=len(pipeline.num_names),
        trunk=(64, 32),
        heads=("is_installed",),
        seed=0,
    )
    params, history = train_with_early_stopping(dataset, net, TRAIN_CONFIG)
    elapsed = time.perf_counter() - t0
    return {
        "result": result,
        "pipeline": pipeline,
        "dataset": dataset,
        "net": net,
        "params": params,
        "history": history,
        "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    variants = [
        (("is_installed",), "shared"),
        (("is_installed", "is_clicked"), "shared"),
        (("is_installed", "is_clicked"), "duplicated"),
    ]
    vocab_pairs = [(3, 300), (300, 3), (3, 3), (300, 300)]
    worst = 0.0
    checked = 0
    for seed in range(21):
        heads, sharing = variants[seed % len(variants)]
        vocab = vocab_pairs[seed % len(vocab_pairs)]
        cfg = small_config(seed=seed, heads=heads, trunk_sharing=sharing, vocab_sizes=vocab)
        params, batch = prepare_check_point(cfg, batch_seed=1000 + seed)
        worst = max(worst, max_relative_error(params, batch, h=1e-4))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 20
    assert worst < 1e-4, f"max relative error {worst}"
    assert elapsed < 30.0, f"gradient battery took {elapsed:.1f}s"
    print(f"PASS criterion 1: gradient check, {checked} configs, "
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: imputer oracles
# ---------------------------------------------------------------------------


def test_criterion_2_imputer_oracles():
    rng = np.random.default_rng(7)

    # noiseless affine-dependent columns, one gap per row at most
    n = 200
    base = rng.normal(size=(n, 2))
    dep1 = 2.0 * base[:, 0] - base[:, 1] + 0.5
    dep2 = -base[:, 0] + 3.0 * base[:, 1] - 1.0
    truth = np.column_stack([base, dep1, dep2])
    mat = truth.copy()
    rows = rng.choice(np.arange(5, n - 5), size=60, replace=False)
    mat[rows[:30], 2] = np.nan
    mat[rows[30:], 3] = np.nan
    for j in (2, 3):  # keep the observed extremes so range clipping stays inert
        lo, hi = np.argmin(truth[:, j]), np.argmax(truth[:, j])
        mat[lo, j], mat[hi, j] = truth[lo, j], truth[hi, j]
    model = fit_imputer(mat, ("a", "b", "c", "d"), strategy="iterative")
    recovered = impute(model, mat)
    worst = float(np.abs(recovered - truth).max())
    assert worst < 1e-6, f"iterative imputer off by {worst}"

    # mean / median / zero against brute-force statistics, exactly
    for _ in range(50):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(4, 60))
        grid = rng.integers(-400, 400, size=(m, k)) * 0.25
        mask = rng.uniform(size=(m, k)) < 0.3
        mask[0] = False
        grid[mask] = np.nan
        cols = tuple(f"c{j}" for j in range(k))
        means = fit_imputer(grid, cols, strategy="mean")
        medians = fit_imputer(grid, cols, strategy="median")
        zeros = fit_imputer(grid, cols, strategy="zero")
        for j, c in enumerate(cols):
            assert means.fallback[c] == brute_mean(grid[:, j])
            assert medians.fallback[c] == brute_median(grid[:, j])
            assert zeros.fallback[c] == 0.0
    print(f"PASS criterion 2: iterative recovery {worst:.2e} (< 1e-6); "
          f"mean/median/zero match brute force exactly")


# ---------------------------------------------------------------------------
# criterion 3: metrics oracles
# ---------------------------------------------------------------------------


def test_criterion_3_metrics_oracles():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    checked = 0
    for i in range(1000):
        n = 100_000 if i < 10 else int(rng.integers(1, 3000))
        y = rng.integers(0, 2, n)
        p = rng.uniform(0, 1, n)
        thr = float(rng.uniform(0.05, 0.95))
        assert confusion(y, p, thr) == naive_confusion(y, p, thr)
        assert abs(log_loss(y, p) - naive_log_loss(y, p)) < 1e-12
        majority = 1 if y.sum() * 2 > n else 0
        assert nir(y) == np.count_nonzero(y == majority) / n
        q = float(y.mean())
        if 0.0 < q < 1.0:
            entropy = -(q * math.log(q) + (1 - q) * math.log(1 - q))
            assert abs(log_loss(y, np.full(n, q)) - entropy) < 1e-12
        checked += 1
    assert checked == 1000
    print(f"PASS criterion 3: 1000 instances (10 at n=1e5), "
          f"{time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: preprocessing contract
# ---------------------------------------------------------------------------


def test_criterion_4_preprocessing_contract(synth_run):
    pipeline = synth_run["pipeline"]
    dataset = synth_run["dataset"]
    result = synth_run["result"]

    constant_col = result.train.cat_names[-1]
    assert pipeline.dropped == (constant_col,)

    assert not np.isnan(dataset.numeric).any()
    assert not np.isnan(dataset.binary).any()
    assert dataset.numeric.min() >= 0.0 and dataset.numeric.max() <= 1.0
    for j in range(dataset.numeric.shape[1]):
        col = dataset.numeric[:, j]
        assert col.min() == 0.0 and col.max() == 1.0, "train extremes must hit 0 and 1"

    for j, name in enumerate(dataset.cat_names):
        n = pipeline.vocabularies[name].n
        assert dataset.cat_codes[:, j].min() >= 0
        assert dataset.cat_codes[:, j].max() <= n

    # missing training cells encode to 0
    raw, miss = result.train.cat_column(dataset.cat_names[0])
    j = dataset.cat_names.index(dataset.cat_names[0])
    assert np.all(dataset.cat_codes[miss, j] == 0)

    # unseen test tokens encode to 0 and are counted
    test_ds = pipeline.transform(result.test)
    assert sum(test_ds.unseen_counts.values()) > 0
    assert test_ds.cat_codes.min() >= 0
    print(f"PASS criterion 4: dropped {pipeline.dropped}, no missing cells, "
          f"numericals in [0,1] with exact 0/1 extremes, "
          f"{sum(test_ds.unseen_counts.values())} unseen test tokens -> code 0")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end learning
# ---------------------------------------------------------------------------


def test_criterion_5_end_to_end_learning(synth_run):
    from adinstall.training import split_train_val

    history = synth_run["history"]
    params = synth_run["params"]
    _, val = split_train_val(synth_run["dataset"], TRAIN_CONFIG.seed, TRAIN_CONFIG.val_fraction)
    probs = predict(params, val)[:, 0]
    y = val.label_matrix(("is_installed",))[:, 0]
    rep = report(y, probs, threshold=0.5)

    q = float(y.mean())
    entropy = -(q * math.log(q) + (1 - q) * math.log(1 - q))
    assert rep.log_loss <= 0.9 * entropy, (rep.log_loss, entropy)
    assert rep.log_loss <= 0.4124
    assert rep.tpr > 0.3, rep.tpr
    assert rep.precision > q, (rep.precision, q)
    assert synth_run["elapsed"] < 300.0, f"end-to-end took {synth_run['elapsed']:.0f}s"
    print(f"PASS criterion 5: val log-loss {rep.log_loss:.4f} <= {0.9 * entropy:.4f}, "
          f"TPR {rep.tpr:.3f} > 0.3, precision {rep.precision:.3f} > {q:.3f}, "
          f"{synth_run['elapsed']:.0f}s < 300s (best epoch {history.best_epoch})")


# ---------------------------------------------------------------------------
# criterion 6: early-stopping protocol
# ---------------------------------------------------------------------------


def test_criterion_6_early_stopping_protocol(synth_run):
    from adinstall.training import split_train_val

    history = synth_run["history"]
    params = synth_run["params"]
    dataset = synth_run["dataset"]

    # restored parameters reproduce the recorded minimum monitored loss
    _, val = split_train_val(dataset, TRAIN_CONFIG.seed, TRAIN_CONFIG.val_fraction)
    probs = predict(params, val)
    re_evaluated = log_loss(val.label_matrix(("is_installed",))[:, 0], probs[:, 0])
    assert abs(re_evaluated - history.best_val_loss()) < 1e-12

    # training 5x past the best epoch overfits: lower train, higher val loss
    best = history.best_epoch
    long_cfg = replace(TRAIN_CONFIG, max_epochs=5 * best, patience=10**6)
    _, long_history = train_with_early_stopping(dataset, synth_run["net"], long_cfg)
    at_best = long_history.epochs[best - 1]
    last = long_history.epochs[-1]
    assert last.epoch == 5 * best
    assert last.train_loss["is_installed"] < at_best.train_loss["is_installed"]
    assert last.val_loss["is_installed"] > at_best.val_loss["is_installed"]
    print(f"PASS criterion 6: best val loss reproduced ({re_evaluated:.6f}); "
          f"epoch {last.epoch} vs {best}: train "
          f"{last.train_loss['is_installed']:.4f} < {at_best.train_loss['is_installed']:.4f}, "
          f"val {last.val_loss['is_installed']:.4f} > {at_best.val_loss['is_installed']:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: two-head consistency
# ---------------------------------------------------------------------------


def test_criterion_7_two_head_consistency(small_synth_dataset):
    shared = dict(
        cat_columns=("f_2", "f_3"),
        vocab_sizes=(8, 30),
        n_binary=2,
        n_numerical=4,
        binary_width=16,
        numerical_width=16,
        trunk=(16,),
        seed=21,
    )
    one = NetworkConfig(heads=("is_installed",), **shared)
    two = NetworkConfig(
        heads=("is_installed", "is_clicked"),
        zero_init_heads=frozenset({"is_clicked"}),
        freeze_heads=frozenset({"is_clicked"}),
        head_loss_weights=(1.0, 0.0),
        **shared,
    )
    cfg = TrainConfig(max_epochs=3, patience=3, seed=4, batch_size=256, learning_rate=2e-3)
    p_one, _ = retrain_full(small_synth_dataset, one, cfg, epoch_count=3)
    p_two, _ = retrain_full(small_synth_dataset, two, cfg, epoch_count=3)

    out_one = predict(p_one, small_synth_dataset)
    out_two = predict(p_two, small_synth_dataset)
    assert np.array_equal(out_one[:, 0], out_two[:, 0]), "is_installed outputs must match exactly"
    assert np.all(out_two[:, 1] == 0.5)

    # duplicated trunks: per-head gradients are architecturally independent
    dup = NetworkConfig(
        heads=("is_installed", "is_clicked"),
        trunk_sharing="duplicated",
        head_loss_weights=(1.0, 0.0),
        **shared,
    )
    params = init_network(dup)
    batch = small_synth_dataset.take(np.arange(64))
    grads = backward(params, batch, batch.label_matrix(dup.heads))
    for name, g in grads.items():
        if name.startswith(("trunk.is_clicked.", "head.is_clicked.")):
            assert np.all(g == 0.0), name
    print("PASS criterion 7: zeroed frozen second head leaves is_installed outputs "
          "bit-identical to the one-head model; duplicated-trunk gradients independent")


# ---------------------------------------------------------------------------
# criterion 8: determinism of artifacts
# ---------------------------------------------------------------------------


def test_criterion_8_byte_identical_artifacts(tmp_path):
    args = ["--rows", "800", "--test-rows", "100", "--cat-vocabs", "6,12",
            "--n-binary", "2", "--n-numerical", "4"]
    model_args = ["--trunk", "8", "--max-epochs", "3", "--patience", "2",
                  "--batch-size", "128", "--seed", "17"]
    dirs = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        assert main(["synth", "--out-dir", out, "--seed", "17"] + args) == 0
        assert main(["prepare", "--schema-file", f"{out}/schema.txt",
                     "--train-file", f"{out}/train.tsv", "--out-dir", out]) == 0
        assert main(["train", "--train-file", f"{out}/train.tsv", "--out-dir", out]
                    + model_args) == 0
        assert main(["predict", "--test-file", f"{out}/test.tsv", "--out-dir", out]) == 0
        dirs.append(tmp_path / name)
    a, b = dirs
    artifacts = ["train.tsv", "test.tsv", "schema.txt", "pipeline.json",
                 "model_val.bin", "model_full.bin", "history.tsv", "history.txt",
                 "submission.tsv"]
    for name in artifacts:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    print(f"PASS criterion 8: {len(artifacts)} artifacts byte-identical across reruns")


# ---------------------------------------------------------------------------
# criterion 9 (optional): challenge-data targets
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    "ADINSTALL_DATA_DIR" not in os.environ,
    reason="set ADINSTALL_DATA_DIR to a directory with schema.txt and train.tsv",
)
def test_criterion_9_challenge_targets():
    from adinstall.ingest import load_table
    from adinstall.schema import read_schema_file
    from adinstall.training import split_train_val

    data_dir = os.environ["ADINSTALL_DATA_DIR"]
    schema = read_schema_file(os.path.join(data_dir, "schema.txt"))
    table = load_table(os.path.join(data_dir, "train.tsv"), schema)
    pipeline = fit_pipeline(table)
    dataset = pipeline.transform(table)
    net = NetworkConfig(
        cat_columns=pipeline.cat_names,
        vocab_sizes=pipeline.vocab_sizes(),
        n_binary=len(pipeline.bin_names),
        n_numerical=len(pipeline.num_names),
        heads=("is_installed",),
        seed=0,
    )
    cfg = TrainConfig(seed=0)
    params, history = train_with_early_stopping(dataset, net, cfg)
    _, val = split_train_val(dataset, cfg.seed, cfg.val_fraction)
    probs = predict(params, val)[:, 0]
    rep = report(val.label_matrix(("is_installed",))[:, 0], probs)

    # targets, not gates: hyperparameters behind the published numbers are unknown
    print(f"criterion 9 targets: val log-loss {rep.log_loss:.4f} (target 0.3177 +/- 0.01), "
          f"NIR {rep.nir:.4f} (target 0.8265 +/- 0.002), "
          f"best epoch {history.best_epoch} (target 3)")
    assert history.best_epoch >= 1
