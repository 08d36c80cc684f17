"""Imputation strategies against independent brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinstall.errors import PipelineMismatchError
from adinstall.prep import ColumnRegression, ImputerModel, fit_imputer, impute

COLS3 = ("a", "b", "c")


def nanmat(rows):
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# mean / median / zero against brute-force statistics
# ---------------------------------------------------------------------------


def brute_mean(values):
    obs = [v for v in values if not np.isnan(v)]
    return sum(obs) / len(obs)


def brute_median(values):
    obs = sorted(v for v in values if not np.isnan(v))
    m = len(obs) // 2
    return obs[m] if len(obs) % 2 else (obs[m - 1] + obs[m]) / 2.0


def test_mean_strategy_matches_example():
    mat = nanmat([[2.0, 1.0], [4.0, 1.0], [np.nan, 1.0], [8.0, 1.0]])
    model = fit_imputer(mat, ("b", "k"), strategy="mean")
    assert model.fallback["b"] == 14.0 / 3.0
    out = impute(model, mat)
    assert out[2, 0] == 14.0 / 3.0


def test_zero_strategy():
    mat = nanmat([[2.0, np.nan], [4.0, 5.0]])
    model = fit_imputer(mat, ("a", "b"), strategy="zero")
    assert impute(model, mat)[0, 1] == 0.0


@pytest.mark.parametrize("strategy", ["mean", "median"])
def test_statistics_match_brute_force_exactly(strategy, rng):
    # values are multiples of 0.25, so every correct summation is exact
    for _ in range(25):
        n, k = int(rng.integers(3, 40)), int(rng.integers(2, 6))
        mat = rng.integers(-200, 200, size=(n, k)) * 0.25
        mask = rng.uniform(size=(n, k)) < 0.3
        mask[0] = False  # keep every column at least one observation
        mat[mask] = np.nan
        model = fit_imputer(mat, tuple(f"c{j}" for j in range(k)), strategy=strategy)
        oracle = brute_mean if strategy == "mean" else brute_median
        for j in range(k):
            assert model.fallback[f"c{j}"] == oracle(mat[:, j])


def test_observed_cells_never_altered(rng):
    mat = rng.normal(size=(30, 4))
    mask = rng.uniform(size=mat.shape) < 0.25
    mask[0] = False
    mat[mask] = np.nan
    for strategy in ("mean", "median", "zero", "iterative"):
        model = fit_imputer(mat, ("a", "b", "c", "d"), strategy=strategy)
        out = impute(model, mat)
        assert np.array_equal(out[~mask], mat[~mask])
        assert not np.isnan(out).any()


def test_complete_matrix_passes_through():
    mat = nanmat([[1.0, 2.0], [3.0, 4.0]])
    model = fit_imputer(mat, ("a", "b"), strategy="iterative")
    assert np.array_equal(impute(model, mat), mat)


@st.composite
def imputation_cases(draw):
    """A matrix with gaps (rows may miss several cells) and a hand-built model
    in which some columns of the iterative strategy have no regression."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(2, 5))
    quarters = st.integers(-40, 40).map(lambda v: v * 0.25)
    matrix = np.array(draw(st.lists(quarters, min_size=n * k, max_size=n * k))).reshape(n, k)
    holes = np.array(draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))).reshape(n, k)
    matrix[holes] = np.nan
    columns = tuple(f"c{j}" for j in range(k))
    strategy = draw(st.sampled_from(("mean", "median", "zero", "iterative")))
    models = {}
    if strategy == "iterative":
        for name in columns:
            if draw(st.booleans()):
                coef = tuple(draw(st.lists(quarters, min_size=k - 1, max_size=k - 1)))
                models[name] = ColumnRegression(draw(quarters), coef)
    model = ImputerModel(
        strategy=strategy,
        columns=columns,
        fallback={c: draw(quarters) for c in columns},
        observed_min={c: -6.0 for c in columns},
        observed_max={c: 6.0 for c in columns},
        models=models,
    )
    return model, matrix


@settings(max_examples=200, deadline=None)
@given(case=imputation_cases())
def test_missing_cells_follow_the_fallback_or_the_seeded_row(case):
    model, matrix = case
    before = matrix.copy()
    missing = np.isnan(matrix)
    out = impute(model, matrix)
    assert np.array_equal(matrix, before, equal_nan=True)
    assert np.array_equal(out[~missing], matrix[~missing])

    seeded = matrix.copy()
    for j, name in enumerate(model.columns):
        seeded[missing[:, j], j] = model.fallback[name]
    for i, j in zip(*np.nonzero(missing)):
        name = model.columns[j]
        reg = model.models.get(name)
        if reg is None:
            assert out[i, j] == model.fallback[name]
        else:
            others = [c for c in range(len(model.columns)) if c != j]
            value = reg.intercept + seeded[i, others] @ np.asarray(reg.coef)
            expected = min(max(value, model.observed_min[name]), model.observed_max[name])
            assert out[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# iterative strategy: closed-form least-squares oracle
# ---------------------------------------------------------------------------


def closed_form_ols(x, y):
    """Normal-equation fit of y = a + b x over the given points."""
    design = np.column_stack([np.ones(len(x)), x])
    return np.linalg.solve(design.T @ design, design.T @ y)


def test_iterative_recovers_exact_linear_relation():
    # b = 2a exactly; observed rows of b: (1,2), (2,4), (4,8)
    mat = nanmat([[1.0, 2.0], [2.0, 4.0], [3.0, np.nan], [4.0, 8.0]])
    model = fit_imputer(mat, ("a", "b"), strategy="iterative")
    reg = model.models["b"]
    a, b = closed_form_ols(np.array([1.0, 2.0, 4.0]), np.array([2.0, 4.0, 8.0]))
    assert a == pytest.approx(0.0, abs=1e-9) and b == pytest.approx(2.0, abs=1e-9)
    assert reg.intercept == pytest.approx(a, abs=1e-6)
    assert reg.coef[0] == pytest.approx(b, abs=1e-6)
    out = impute(model, mat)
    assert out[2, 1] == pytest.approx(6.0, abs=1e-6)


def test_iterative_exactness_on_affine_dependent_columns(rng):
    # base columns fully observed; dependent columns exact affine functions
    n = 60
    base = rng.normal(size=(n, 2))
    dep1 = 2.0 * base[:, 0] - base[:, 1] + 0.5
    dep2 = -base[:, 0] + 3.0 * base[:, 1] - 1.0
    truth = np.column_stack([base, dep1, dep2])
    mat = truth.copy()
    # missing only in the dependent columns, at most one gap per row: a row
    # lacking both has no single-pass recoverable value
    rows = rng.choice(np.arange(5, n - 5), size=20, replace=False)
    m1, m2 = rows[:10], rows[10:]
    mat[m1, 2] = np.nan
    mat[m2, 3] = np.nan
    # keep the columns' observed extremes in place
    for j in (2, 3):
        lo, hi = np.argmin(truth[:, j]), np.argmax(truth[:, j])
        mat[lo, j], mat[hi, j] = truth[lo, j], truth[hi, j]

    model = fit_imputer(mat, ("a", "b", "c", "d"), strategy="iterative")
    out = impute(model, mat)
    assert np.abs(out - truth).max() < 1e-6


def test_iterative_terminates_and_records_changes(rng):
    n = 40
    mat = rng.normal(size=(n, 3))
    mat[rng.uniform(size=(n, 3)) < 0.2] = np.nan
    mat[0] = [1.0, 1.0, 1.0]
    model = fit_imputer(mat, COLS3, strategy="iterative", iteration_count=7, tolerance=1e-12)
    assert model.passes_run <= 7
    assert len(model.max_change_per_pass) == model.passes_run
    # converged runs end with a change below tolerance
    if model.converged and model.passes_run:
        assert model.max_change_per_pass[-1] < 1e-12 or model.passes_run == 7


def test_iterative_early_stop_on_tolerance():
    # one-pass-exact construction: converges on the second pass
    mat = nanmat([[1.0, 2.0], [2.0, 4.0], [3.0, np.nan], [4.0, 8.0]])
    model = fit_imputer(mat, ("a", "b"), strategy="iterative", tolerance=1e-9)
    assert model.converged
    assert model.passes_run <= 10


def test_underdetermined_column_falls_back_to_mean():
    # column b observed in only 2 rows but there are 3 predictors + intercept
    mat = nanmat(
        [
            [1.0, 2.0, 3.0, 1.0],
            [2.0, np.nan, 1.0, 5.0],
            [3.0, np.nan, 4.0, 2.0],
            [4.0, 7.0, 2.0, 8.0],
        ]
    )
    model = fit_imputer(mat, ("a", "b", "c", "d"), strategy="iterative")
    assert "b" in model.fallback_columns
    out = impute(model, mat)
    assert out[1, 1] == model.fallback["b"]


def test_imputed_values_clipped_to_observed_range():
    # relation would extrapolate to 20 at a=10, far above the observed max of b
    mat = nanmat([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [10.0, np.nan]])
    model = fit_imputer(mat, ("a", "b"), strategy="iterative")
    out = impute(model, mat)
    assert out[3, 1] == 6.0  # clipped to the observed max


def test_column_count_mismatch_rejected():
    mat = nanmat([[1.0, 2.0], [3.0, 4.0]])
    model = fit_imputer(mat, ("a", "b"), strategy="mean")
    with pytest.raises(PipelineMismatchError):
        impute(model, nanmat([[1.0, 2.0, 3.0]]))


def test_iterative_needs_two_columns():
    with pytest.raises(ValueError):
        fit_imputer(nanmat([[1.0], [2.0]]), ("a",), strategy="iterative")


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        fit_imputer(nanmat([[1.0, 2.0]]), ("a", "b"), strategy="knn")
