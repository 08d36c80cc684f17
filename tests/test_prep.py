from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinstall.errors import DataFormatError, PipelineMismatchError
from adinstall.ingest import load_table
from adinstall.prep import (
    PrepConfig,
    Vocabulary,
    apply_minmax,
    fit_minmax,
    fit_pipeline,
    fit_vocabulary,
    load_pipeline,
    save_pipeline,
)
from adinstall.schema import FeatureSchema
from adinstall.synth import SynthSpec, generate

# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def vocab(column: str, cells: list) -> Vocabulary:
    """``fit_vocabulary`` over a list of cells, None marking a missing cell."""
    raw = np.array([0 if c is None else c for c in cells], dtype=np.int64)
    return fit_vocabulary(column, raw, np.array([c is None for c in cells], dtype=bool))


def codes_of(v: Vocabulary, cells: list) -> list[int]:
    raw = np.array([0 if c is None else c for c in cells], dtype=np.int64)
    return v.encode_array(raw, np.array([c is None for c in cells], dtype=bool))[0].tolist()


def test_fit_vocabulary_ascending_order():
    v = vocab("c", [12, 7, 7, 30])
    assert v.tokens == (7, 12, 30)
    assert v.n == 3
    assert codes_of(v, [7, 12, 30]) == [1, 2, 3]


def test_fit_vocabulary_singleton_and_missing():
    assert vocab("c", [5]).tokens == (5,)
    v = vocab("c", [9, None, 9])
    assert v.tokens == (9,) and v.n == 1


def test_fit_vocabulary_all_missing_errors():
    with pytest.raises(DataFormatError, match="all cells missing"):
        vocab("c", [None, None])


def test_encode_categorical_total():
    v = vocab("c", [7, 12])
    assert codes_of(v, [12]) == [2]
    assert codes_of(v, [None]) == [0]
    assert codes_of(v, [99]) == [0]


@given(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=200))
def test_vocabulary_round_trip(tokens):
    v = vocab("c", tokens)
    distinct = sorted(set(tokens))
    codes = codes_of(v, distinct)
    assert [v.tokens[code - 1] for code in codes] == distinct
    assert v.tokens == tuple(distinct)
    # codes are exactly 1..n
    assert sorted(codes) == list(range(1, v.n + 1))


def test_encode_array_counts_unseen():
    v = Vocabulary("c", (5, 9))
    raw = np.array([5, 9, 11, 5, 0])
    missing = np.array([False, False, False, True, False])
    codes, unseen = v.encode_array(raw, missing)
    assert codes.tolist() == [1, 2, 0, 0, 0]
    assert unseen == 2  # 11 and 0 observed but never trained


# ---------------------------------------------------------------------------
# min-max scaling
# ---------------------------------------------------------------------------


def test_fit_minmax_examples():
    p = fit_minmax("x", [2, 4, 6])
    assert (p.min_x, p.max_x) == (2.0, 6.0)
    p = fit_minmax("x", [5, 5])
    assert (p.min_x, p.max_x) == (5.0, 5.0)
    p = fit_minmax("x", [0.0, 0.1157])
    assert (p.min_x, p.max_x) == (0.0, 0.1157)


def test_fit_minmax_rejects_empty_and_missing():
    with pytest.raises(DataFormatError):
        fit_minmax("x", [])
    with pytest.raises(DataFormatError):
        fit_minmax("x", [1.0, np.nan])


def scaled(p, x: float) -> float:
    return float(apply_minmax(p, np.array([x]))[0])


def test_apply_minmax_examples():
    p = fit_minmax("x", [2, 4, 6])
    assert scaled(p, 4.0) == 0.5
    assert scaled(p, 8.0) == 1.0  # clipped above the train range
    assert scaled(p, 0.0) == 0.0  # clipped below
    degenerate = fit_minmax("x", [5, 5])
    assert scaled(degenerate, 5.0) == 0.0


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=2,
        max_size=50,
    ).filter(lambda xs: min(xs) < max(xs)),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
)
def test_minmax_bounds_and_monotonicity(cells, x, y):
    p = fit_minmax("x", cells)
    assert scaled(p, min(cells)) == 0.0
    assert scaled(p, max(cells)) == 1.0
    lo, hi = sorted((x, y))
    assert scaled(p, lo) <= scaled(p, hi)
    assert 0.0 <= scaled(p, x) <= 1.0


def test_apply_minmax_array_matches_scalar(rng):
    p = fit_minmax("x", [0.0, 10.0])
    xs = rng.uniform(-5, 15, 100)
    vec = apply_minmax(p, xs)
    # the scalar formula, one cell at a time
    assert vec.tolist() == [min(1.0, max(0.0, (float(v) - 0.0) / (10.0 - 0.0))) for v in xs]


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

SCHEMA = FeatureSchema(
    columns=(
        ("f_0", "row_id"),
        ("f_2", "categorical"),
        ("f_7", "categorical"),
        ("f_33", "binary"),
        ("f_42", "numerical"),
        ("f_43", "numerical"),
        ("is_installed", "label"),
    ),
)


@pytest.fixture
def train_file(tmp_path):
    rows = [
        "f_0\tf_2\tf_7\tf_33\tf_42\tf_43\tis_installed",
        "1\t12\t9\t0\t2.0\t10.0\t0",
        "2\t7\t9\t1\t\t20.0\t1",
        "3\t30\t9\t1\t6.0\t40.0\t0",
        "4\t7\t\t0\t4.0\t\t1",
        "5\t12\t9\t1\t2.0\t30.0\t0",
        "6\t7\t9\t0\t6.0\t20.0\t1",
    ]
    path = tmp_path / "train.tsv"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_fit_pipeline_drops_constant_and_encodes(train_file):
    table = load_table(train_file, SCHEMA)
    pipeline = fit_pipeline(table, PrepConfig(impute_strategy="mean"))
    assert pipeline.dropped == ("f_7",)
    assert pipeline.cat_names == ("f_2",)
    assert pipeline.vocabularies["f_2"].tokens == (7, 12, 30)
    ds = pipeline.transform(table)
    assert not np.isnan(ds.numeric).any()
    assert ds.numeric.min() >= 0.0 and ds.numeric.max() <= 1.0
    assert ds.labels is not None and set(np.unique(ds.labels)) <= {0.0, 1.0}
    # codes of the training column are within 0..n
    assert ds.cat_codes.max() <= 3 and ds.cat_codes.min() >= 0


def test_transform_handles_unseen_and_out_of_range(train_file, tmp_path):
    table = load_table(train_file, SCHEMA)
    pipeline = fit_pipeline(table, PrepConfig(impute_strategy="mean"))
    test_rows = [
        "f_0\tf_2\tf_7\tf_33\tf_42\tf_43\tis_installed",
        "9\t999\t9\t1\t100.0\t-5.0\t0",  # unseen token, values beyond train range
        "10\t\t9\t0\t3.0\t15.0\t1",
    ]
    test_path = tmp_path / "test.tsv"
    test_path.write_text("\n".join(test_rows) + "\n")
    ds = pipeline.transform(load_table(test_path, SCHEMA))
    assert ds.cat_codes[0, 0] == 0  # unseen -> reserved code
    assert ds.cat_codes[1, 0] == 0  # missing -> reserved code
    assert ds.unseen_counts == {"f_2": 1}
    assert ds.numeric[0, 0] == 1.0  # clipped above
    assert ds.numeric[0, 1] == 0.0  # clipped below


def test_transform_rejects_mismatched_columns(train_file, tmp_path):
    table = load_table(train_file, SCHEMA)
    pipeline = fit_pipeline(table, PrepConfig(impute_strategy="mean"))
    other_schema = FeatureSchema(
        columns=(("f_0", "row_id"), ("f_99", "categorical"), ("l", "label")),
    )
    path = tmp_path / "other.tsv"
    path.write_text("f_0\tf_99\tl\n1\t3\t0\n")
    with pytest.raises(PipelineMismatchError):
        pipeline.transform(load_table(path, other_schema))


def test_pipeline_determinism_and_round_trip(train_file, tmp_path):
    table = load_table(train_file, SCHEMA)
    p1 = fit_pipeline(table)
    p2 = fit_pipeline(table)
    assert p1 == p2

    path = tmp_path / "pipeline.json"
    save_pipeline(p1, path)
    restored = load_pipeline(path)
    assert restored == p1

    # byte-identical artifact when refitted and saved again
    path2 = tmp_path / "pipeline2.json"
    save_pipeline(p2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_binary_fill_majority(train_file):
    table = load_table(train_file, SCHEMA)
    pipeline = fit_pipeline(table, PrepConfig(impute_strategy="mean"))
    # f_33 holds [0,1,1,0,1,0]: tie -> 0
    assert pipeline.binary_fill["f_33"] == 0


def test_binary_gap_filled_with_majority(train_file):
    # parsed files never carry binary gaps, but hand-built tables may
    from dataclasses import replace as dc_replace

    table = load_table(train_file, SCHEMA)
    pipeline = fit_pipeline(table, PrepConfig(impute_strategy="mean"))
    holey = np.array(table.binary, dtype=np.float64)
    holey[0, 0] = np.nan
    patched = dc_replace(table, binary=holey)
    ds = pipeline.transform(patched)
    assert ds.binary[0, 0] == float(pipeline.binary_fill["f_33"])
    assert not np.isnan(ds.binary).any()


def test_iterative_pipeline_requires_two_numericals(tmp_path):
    schema = FeatureSchema(
        columns=(("f_0", "row_id"), ("f_2", "categorical"), ("x", "numerical"), ("l", "label")),
    )
    path = tmp_path / "t.tsv"
    path.write_text("f_0\tf_2\tx\tl\n1\t3\t1.0\t0\n2\t4\t2.0\t1\n")
    with pytest.raises(ValueError, match="at least 2 numerical"):
        fit_pipeline(load_table(path, schema), PrepConfig(impute_strategy="iterative"))


@pytest.mark.parametrize("n_numerical", [5, 12])
def test_transform_makes_no_second_copy_of_the_numerical_block(n_numerical):
    # synth tables carry a constant categorical column, which the pipeline drops
    table = generate(SynthSpec(n_rows=4_000, n_numerical=n_numerical, seed=3)).train
    pipeline = fit_pipeline(table)
    assert pipeline.dropped
    tracemalloc.start()
    try:
        ds = pipeline.transform(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = sum(a.nbytes for a in (ds.cat_codes, ds.binary, ds.numeric, ds.labels))
    assert peak - out_bytes < table.numeric.nbytes
