from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from adinstall import network
from adinstall.errors import ArtifactError, PipelineMismatchError
from adinstall.network import (
    SCATTER_CHUNK,
    NetworkConfig,
    RowGrad,
    _forward,
    _project,
    _scatter_add,
    _trunk_input,
    backward,
    block_specs,
    embedding_width_rule,
    forward,
    init_network,
    load_params,
    save_params,
)
from adinstall.prep import PreparedDataset

import reference_network
from conftest import make_batch
from gradcheck import weighted_bce


def test_embedding_width_rule():
    assert embedding_width_rule(10) == 10
    assert embedding_width_rule(256) == 256
    assert embedding_width_rule(300) == 256
    with pytest.raises(ValueError):
        embedding_width_rule(0)


def small_config(**overrides) -> NetworkConfig:
    base = dict(
        cat_columns=("c0", "c1"),
        vocab_sizes=(4, 300),
        n_binary=2,
        n_numerical=3,
        binary_width=5,
        numerical_width=6,
        trunk=(7,),
        heads=("is_installed",),
        seed=3,
    )
    base.update(overrides)
    return NetworkConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="heads"):
        small_config(heads=("a", "b", "c"))
    with pytest.raises(ValueError, match="duplicated"):
        small_config(trunk_sharing="duplicated")
    with pytest.raises(ValueError, match="loss weight"):
        small_config(head_loss_weights=(1.0, 0.0))
    with pytest.raises(ValueError, match="declared head"):
        small_config(zero_init_heads=frozenset({"nope"}))
    with pytest.raises(ValueError, match="vocabulary"):
        small_config(vocab_sizes=(0, 3))


def test_embedding_widths_capped():
    cfg = small_config()
    assert cfg.embedding_widths == (4, 256)
    assert cfg.concat_width == 4 + 256 + 5 + 6


def test_init_deterministic_and_bias_zero():
    cfg = small_config()
    p1, p2 = init_network(cfg), init_network(cfg)
    for name in p1.blocks:
        assert np.array_equal(p1.blocks[name], p2.blocks[name])
    assert np.all(p1.blocks["bin.b"] == 0.0)
    assert np.all(p1.blocks["trunk.shared.0.b"] == 0.0)
    emb = p1.blocks["emb.c0"]
    assert emb.min() >= -0.05 and emb.max() <= 0.05
    different = init_network(small_config(seed=4))
    assert not np.array_equal(different.blocks["bin.w"], p1.blocks["bin.w"])


def test_empty_trunk_connects_heads_to_concat():
    cfg = small_config(trunk=())
    params = init_network(cfg)
    assert params.blocks["head.is_installed.w"].shape == (cfg.concat_width, 1)
    batch = make_batch(np.random.default_rng(0), cfg, 4)
    assert forward(params, batch).shape == (4, 1)


def test_all_zero_params_give_half(rng):
    cfg = small_config()
    params = init_network(cfg)
    for arr in params.blocks.values():
        arr[...] = 0.0
    probs = forward(params, make_batch(rng, cfg, 6))
    assert np.all(probs == 0.5)


def test_hand_computed_tiny_network():
    # one numerical input, two hidden units, one head; binary branch zeroed
    cfg = NetworkConfig(
        cat_columns=(),
        vocab_sizes=(),
        n_binary=0,
        n_numerical=1,
        binary_width=1,
        numerical_width=2,
        trunk=(),
        heads=("is_installed",),
        seed=0,
    )
    params = init_network(cfg)
    for arr in params.blocks.values():
        arr[...] = 0.0
    w1 = np.array([[1.5, -2.0]])
    b1 = np.array([0.25, 0.1])
    w2 = np.array([0.8, -0.3])
    b2 = 0.4
    params.blocks["num.w"][...] = w1
    params.blocks["num.b"][...] = b1
    # head input layout: [binary unit, numerical units]
    params.blocks["head.is_installed.w"][...] = np.array([[0.0], [0.8], [-0.3]])
    params.blocks["head.is_installed.b"][...] = b2

    x = 0.7
    hidden = np.maximum(w1[0] * x + b1, 0.0)
    expected = 1.0 / (1.0 + math.exp(-(float(hidden @ w2) + b2)))

    batch = PreparedDataset(
        source_row_ids=("0",),
        cat_names=(),
        cat_codes=np.zeros((1, 0), dtype=np.int64),
        bin_names=(),
        binary=np.zeros((1, 0)),
        num_names=("x0",),
        numeric=np.array([[x]]),
        label_names=("is_installed",),
        labels=np.array([[1.0]]),
    )
    assert forward(params, batch)[0, 0] == pytest.approx(expected, abs=1e-12)


def test_output_shape_and_bounds(rng):
    cfg = small_config(heads=("is_installed", "is_clicked"))
    params = init_network(cfg)
    probs = forward(params, make_batch(rng, cfg, 9))
    assert probs.shape == (9, 2)
    assert np.all((probs > 0.0) & (probs < 1.0))
    # saturate the head and confirm the open interval survives
    params.blocks["head.is_installed.b"][...] = 80.0
    probs = forward(params, make_batch(rng, cfg, 9))
    assert np.all(probs < 1.0) and np.all(probs > 0.0)


def test_permutation_equivariance(rng):
    cfg = small_config()
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 11)
    perm = rng.permutation(11)
    assert np.array_equal(forward(params, batch)[perm], forward(params, batch.take(perm)))


def test_out_of_range_code_rejected(rng):
    cfg = small_config()
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 3)
    bad = batch.cat_codes.copy()
    bad[0, 0] = cfg.vocab_sizes[0] + 1
    broken = PreparedDataset(
        source_row_ids=batch.row_ids,
        cat_names=batch.cat_names,
        cat_codes=bad,
        bin_names=batch.bin_names,
        binary=batch.binary,
        num_names=batch.num_names,
        numeric=batch.numeric,
        label_names=batch.label_names,
        labels=batch.labels,
    )
    with pytest.raises(PipelineMismatchError, match="out of range"):
        forward(params, broken)


def test_one_head_two_head_consistency(rng):
    shared = dict(
        cat_columns=("c0",),
        vocab_sizes=(5,),
        n_binary=2,
        n_numerical=2,
        binary_width=4,
        numerical_width=4,
        trunk=(6,),
        seed=12,
    )
    one = NetworkConfig(heads=("is_installed",), **shared)
    two = NetworkConfig(
        heads=("is_installed", "is_clicked"),
        zero_init_heads=frozenset({"is_clicked"}),
        **shared,
    )
    p_one, p_two = init_network(one), init_network(two)
    batch = make_batch(np.random.default_rng(5), one, 13)
    two_batch = PreparedDataset(
        source_row_ids=batch.row_ids,
        cat_names=batch.cat_names,
        cat_codes=batch.cat_codes,
        bin_names=batch.bin_names,
        binary=batch.binary,
        num_names=batch.num_names,
        numeric=batch.numeric,
        label_names=two.heads,
        labels=np.column_stack([batch.labels[:, 0], batch.labels[:, 0]]),
    )
    out_one = forward(p_one, batch)
    out_two = forward(p_two, two_batch)
    assert np.array_equal(out_one[:, 0], out_two[:, 0])
    assert np.all(out_two[:, 1] == 0.5)  # zeroed head


# ---------------------------------------------------------------------------
# loss: the weighted BCE that backward differentiates (the gradient oracle)
# ---------------------------------------------------------------------------


def test_bce_examples():
    assert weighted_bce(np.full(4, 0.5), np.array([0, 0, 1, 1]), (1.0,)) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    assert weighted_bce(np.array([0.9, 0.1]), np.array([1, 0]), (1.0,)) == pytest.approx(
        -math.log(0.9), abs=1e-12
    )
    clipped = weighted_bce(np.array([1.0]), np.array([1]), (1.0,))
    assert 0.0 <= clipped < 1e-12


def test_bce_two_head_weighting():
    probs = np.array([[0.9, 0.5], [0.8, 0.5]])
    labels = np.array([[1.0, 1.0], [1.0, 1.0]])
    per_head = [-(math.log(0.9) + math.log(0.8)) / 2, math.log(2.0)]
    total = weighted_bce(probs, labels, (0.5, 0.5))
    assert total == pytest.approx(0.5 * per_head[0] + 0.5 * per_head[1], abs=1e-15)
    custom = weighted_bce(probs, labels, (1.0, 0.0))
    assert custom == pytest.approx(per_head[0], abs=1e-15)


# ---------------------------------------------------------------------------
# artifact round trip
# ---------------------------------------------------------------------------


def test_params_round_trip(tmp_path, rng):
    cfg = small_config(heads=("is_installed", "is_clicked"), trunk_sharing="duplicated")
    params = init_network(cfg)
    path = tmp_path / "model.bin"
    save_params(params, path, pipeline_hash="abc123")
    restored, pipeline_hash = load_params(path)
    assert pipeline_hash == "abc123"
    assert restored.config == cfg
    for name in params.blocks:
        assert np.array_equal(restored.blocks[name], params.blocks[name])
    # deterministic bytes
    path2 = tmp_path / "model2.bin"
    save_params(init_network(cfg), path2, pipeline_hash="abc123")
    assert path.read_bytes() == path2.read_bytes()


def test_params_artifact_corruption(tmp_path):
    cfg = small_config()
    params = init_network(cfg)
    path = tmp_path / "model.bin"
    save_params(params, path)
    raw = bytearray(path.read_bytes())

    (tmp_path / "bad_magic.bin").write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ArtifactError, match="not a model artifact"):
        load_params(tmp_path / "bad_magic.bin")

    (tmp_path / "truncated.bin").write_bytes(bytes(raw[:-16]))
    with pytest.raises(ArtifactError, match="truncated"):
        load_params(tmp_path / "truncated.bin")

    (tmp_path / "trailing.bin").write_bytes(bytes(raw) + b"\x00" * 8)
    with pytest.raises(ArtifactError, match="trailing"):
        load_params(tmp_path / "trailing.bin")


def test_loading_holds_the_model_once(tmp_path):
    # each block is read straight into its array, so no copy of the file
    # lives beside the blocks
    path = tmp_path / "model.bin"
    save_params(init_network(small_config(vocab_sizes=(4, 4200))), path)
    size = path.stat().st_size
    assert size >= 8 << 20
    assert traced_peak(lambda: load_params(path)) < 1.2 * size


def test_block_specs_order_is_stable():
    cfg = small_config(heads=("is_installed", "is_clicked"), trunk_sharing="duplicated")
    names = [name for name, _ in block_specs(cfg)]
    assert names == [
        "emb.c0",
        "emb.c1",
        "bin.w",
        "bin.b",
        "num.w",
        "num.b",
        "trunk.is_installed.0.w",
        "trunk.is_installed.0.b",
        "trunk.is_clicked.0.w",
        "trunk.is_clicked.0.b",
        "head.is_installed.w",
        "head.is_installed.b",
        "head.is_clicked.w",
        "head.is_clicked.b",
    ]


def randomized(cfg: NetworkConfig, rng: np.random.Generator):
    """Parameters with every block drawn from N(0, 1), biases included."""
    params = init_network(cfg)
    for arr in params.blocks.values():
        arr[...] = rng.normal(size=arr.shape)
    return params


# one head, f32, an empty trunk, two shared heads, and duplicated trunks in
# f64, f32 and empty
FORWARD_CONFIGS = [
    dict(),
    dict(trunk=(7, 3), dtype="f32"),
    dict(trunk=()),
    dict(heads=("is_installed", "is_clicked"), trunk=(7, 3)),
    dict(heads=("is_installed", "is_clicked"), trunk_sharing="duplicated", trunk=(7, 3)),
    dict(heads=("is_installed", "is_clicked"), trunk_sharing="duplicated", dtype="f32"),
    dict(heads=("is_installed", "is_clicked"), trunk_sharing="duplicated", trunk=()),
]


@pytest.mark.parametrize("overrides", FORWARD_CONFIGS)
def test_forward_matches_the_training_forward_bitwise(rng, overrides):
    # recording activations for backward must not change a single bit
    cfg = small_config(**overrides)
    params = randomized(cfg, rng)
    batch = make_batch(rng, cfg, 300)
    probs = forward(params, batch)
    assert probs.dtype == np.float64 and probs.shape == (300, len(cfg.heads))
    assert probs.tobytes() == _forward(params, _trunk_input(params, batch), acts={}).tobytes()


def within(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    """``got`` differs from ``want`` by at most ``tol`` times want's largest magnitude."""
    return got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= tol * np.abs(
        want).max(initial=0.0)


TWO = ("is_installed", "is_clicked")


@pytest.mark.parametrize("overrides", FORWARD_CONFIGS + [
    dict(heads=TWO, trunk_sharing="duplicated", trunk=(7, 3), freeze_heads=frozenset({TWO[1]})),
    dict(heads=TWO, trunk_sharing="duplicated", trunk=(7, 3), freeze_heads=frozenset(TWO)),
    dict(heads=TWO, trunk=(), freeze_heads=frozenset({TWO[0]})),
    dict(trunk=(7, 3), freeze_missing_row=False),
    dict(trunk=(7, 3), freeze_missing_row=False, dtype="f32"),
])
def test_projected_pass_matches_the_gather_then_matmul_oracle(rng, overrides):
    # projecting touched rows sums in another order than multiplying the
    # concat buffer, so the two agree to rounding, not to the bit
    cfg = small_config(**overrides)
    tol = 1e-12 if cfg.dtype == "f64" else 1e-5
    params = randomized(cfg, rng)
    batch = make_batch(rng, cfg, 300)
    assert within(forward(params, batch), reference_network.forward(params, batch), tol)
    grads = backward(params, batch, batch.labels)
    want = reference_network.backward(params, batch, batch.labels)
    assert list(grads) == list(want)
    for name, g in grads.items():
        w = want[name]
        if isinstance(w, RowGrad):
            assert g.rows.tobytes() == w.rows.tobytes(), name
            g, w = g.values, w.values
        assert g.dtype == w.dtype and within(g, w, tol), name


def test_forward_leaves_params_and_batch_unchanged(rng):
    cfg = small_config(heads=("is_installed", "is_clicked"), trunk_sharing="duplicated",
                       trunk=(7, 3))
    params = randomized(cfg, rng)
    batch = make_batch(rng, cfg, 50)
    blocks = {name: arr.copy() for name, arr in params.blocks.items()}
    arrays = [batch.cat_codes.copy(), batch.binary.copy(), batch.numeric.copy(),
              batch.labels.copy()]
    forward(params, batch)
    assert list(params.blocks) == list(blocks)
    for name, arr in params.blocks.items():
        assert arr.tobytes() == blocks[name].tobytes(), name
    for before, after in zip(arrays, [batch.cat_codes, batch.binary, batch.numeric,
                                      batch.labels]):
        assert after.tobytes() == before.tobytes()


def traced_peak(run) -> int:
    # numpy reports its buffers to tracemalloc
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_memory_does_not_grow_with_depth(rng):
    # a pass that kept each layer's output would hold 4 more 256-wide layers
    peaks = []
    for depth in (2, 6):
        cfg = small_config(vocab_sizes=(3, 30), trunk=(256,) * depth)
        params = init_network(cfg)
        batch = make_batch(rng, cfg, 2000)
        peaks.append(traced_peak(lambda: forward(params, batch)))
    assert peaks[1] <= 1.05 * peaks[0]


def lookup_bytes(inputs) -> int:
    return sum(t.rows.nbytes + t.inverse.nbytes for t in inputs.lookups)


def test_taped_pass_keeps_only_the_dense_block_and_layer_outputs(rng):
    # backward reads its ReLU masks from the outputs, so no pre-activation,
    # per-layer input copy or concat buffer is kept beside them; 256 KiB is
    # room for the probabilities and numpy's small temporaries, and less
    # than the 704 KB the concat buffer would take
    cfg = small_config(vocab_sizes=(3, 30), trunk=(256,) * 6)
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 2000)
    acts, kept = {}, []
    peak = traced_peak(lambda: kept.append(_forward(params, _trunk_input(params, batch), acts)))
    inputs = _trunk_input(params, batch)
    outputs = acts["shared"]
    assert len(outputs) == 6 and all(out.shape == (2000, 256) for out in outputs)
    bound = inputs.dense.nbytes + lookup_bytes(inputs) + sum(out.nbytes for out in outputs)
    assert peak < bound + (256 << 10)


@pytest.mark.parametrize("sharing", ["shared", "duplicated"])
def test_backward_holds_no_concat_wide_array(rng, sharing):
    # beside the inputs and every layer output, backward holds two arrays as
    # wide as the first trunk layer (the forward's gather buffer and the
    # pre-activation it adds into; later, each trunk group's gradient there),
    # per table two touched-rows blocks (the looked-up rows, and the summed
    # gradient or a second group's row gradient) and the scatter's chunk
    # buffers; the returned gradients come on top. Nothing is concat-wide.
    heads = ("is_installed", "is_clicked") if sharing == "duplicated" else ("is_installed",)
    cfg = small_config(vocab_sizes=(300, 300), trunk=(64, 32), heads=heads,
                       trunk_sharing=sharing)
    params = init_network(cfg)
    batch = make_batch(rng, cfg, 2000)
    inputs = _trunk_input(params, batch)
    widest_block = max(t.rows.size * max(m, cfg.trunk[0]) for t, m in
                       zip(inputs.lookups, cfg.embedding_widths)) * 8
    outputs = len(cfg.trunk_groups()) * 2000 * 8 * sum(cfg.trunk)
    bound = (inputs.dense.nbytes + lookup_bytes(inputs) + outputs + 2 * 2000 * 8 * cfg.trunk[0]
             + 2 * widest_block + 4 * SCATTER_CHUNK * 8)
    assert bound < 2000 * cfg.concat_width * 8
    del inputs
    grads = {}
    peak = traced_peak(lambda: grads.update(backward(params, batch, batch.labels)))
    returned = sum(g.rows.nbytes + g.values.nbytes if isinstance(g, RowGrad) else g.nbytes
                   for g in grads.values())
    assert peak < bound + returned


# ---------------------------------------------------------------------------
# embedding kernels
# ---------------------------------------------------------------------------


def add_at_2d(values, inverse, grad):
    """The reference scatter: numpy's 2-D ``add.at`` over whole rows."""
    np.add.at(values, inverse, grad)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("m", [1, 12, 256])
def test_scatter_add_matches_a_two_d_add_at_bitwise(rng, dtype, m):
    # each element receives its rows one at a time, in row order, from a
    # zero start, so even 0.0 + -0.0 gives the same bits
    n = 3 * (SCATTER_CHUNK // m) + 5  # three whole chunks and a short one
    codes = np.minimum(rng.zipf(1.5, n), 40)
    wide = rng.normal(size=(n, m + 3)).astype(dtype)
    wide[rng.random(n) < 0.2] = -0.0
    wide[codes == 7] = -0.0  # a row that receives nothing but -0.0
    grad = wide[:, 1 : m + 1]  # a column slice, as backward passes it
    rows, inverse = np.unique(codes, return_inverse=True)
    assert 7 in rows and rows.size < n / 2
    values = np.zeros((rows.size, m), dtype)
    _scatter_add(values, inverse, grad)
    expected = np.zeros_like(values)
    add_at_2d(expected, inverse, grad)
    assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("freeze_missing_row", [True, False])
def test_backward_embedding_gradients_match_a_two_d_add_at(rng, monkeypatch, dtype,
                                                           freeze_missing_row):
    # widths 1, 12 and 256; 3,000 rows is no multiple of any chunk's rows
    cfg = small_config(cat_columns=("c0", "c1", "c2"), vocab_sizes=(1, 12, 300),
                       dtype=dtype, freeze_missing_row=freeze_missing_row)
    assert cfg.embedding_widths == (1, 12, 256)
    params = randomized(cfg, rng)
    batch = make_batch(rng, cfg, 3000)
    grads = backward(params, batch, batch.labels)
    monkeypatch.setattr(network, "_scatter_add", add_at_2d)
    expected = backward(params, batch, batch.labels)
    assert list(grads) == list(expected)
    for name, g in grads.items():
        if isinstance(g, RowGrad):
            assert g.rows.tobytes() == expected[name].rows.tobytes(), name
            assert 0 in g.rows and g.rows.size < batch.n_rows
            g, want = g.values, expected[name].values
            assert not freeze_missing_row or not want[0].any()
        else:
            want = expected[name]
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_projected_lookup_holds_no_table_wide_gather(rng, dtype):
    # the first layer reads each table through its touched rows: beside its
    # output and one gather buffer as wide, it holds the looked-up rows and
    # their projection, never a (n_rows x table width) gather
    cfg = small_config(dtype=dtype)
    params = randomized(cfg, rng)
    batch = make_batch(rng, cfg, 4000)
    inputs = _trunk_input(params, batch)
    kept = []
    peak = traced_peak(lambda: kept.append(_project(params, inputs, "trunk.shared.0")))
    (pre,) = kept
    w, b = params.blocks["trunk.shared.0.w"], params.blocks["trunk.shared.0.b"]
    expected = reference_network.trunk_input(params, batch) @ w + b
    assert pre.dtype == expected.dtype and within(pre, expected, 1e-12 if dtype == "f64" else 1e-5)
    touched = sum(t.rows.size * (m + w.shape[1]) for t, m in
                  zip(inputs.lookups, cfg.embedding_widths)) * pre.itemsize
    bound = 2 * pre.nbytes + touched + (64 << 10)
    assert bound < batch.n_rows * max(cfg.embedding_widths) * pre.itemsize
    assert peak < bound


def test_scatter_add_transient_does_not_grow_with_the_batch(rng):
    # one chunk's flat indices, its values and numpy's broadcast buffer for
    # the indices at a time, whatever the batch
    m, peaks = 256, []
    for n in (4096, 32768):
        rows, inverse = np.unique(rng.integers(0, 500, n), return_inverse=True)
        grad = rng.normal(size=(n, m + 8))[:, 4 : m + 4]
        values = np.zeros((rows.size, m))
        peaks.append(traced_peak(lambda: _scatter_add(values, inverse, grad)))
    assert peaks[1] <= 1.05 * peaks[0]
    assert peaks[1] < 4 * SCATTER_CHUNK * 8
