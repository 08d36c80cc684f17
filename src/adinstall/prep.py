"""Preprocessing: fit on the training table only, transform any table.

Pipeline stages, in order: drop degenerate columns, re-code categorical
tokens to contiguous codes (0 reserved for missing/unseen), impute missing
numerical cells, scale numericals to [0, 1]. Binary columns and labels
pass through. A fitted :class:`PrepPipeline` is immutable and serializes
to a single versioned JSON artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import write_text
from .errors import ArtifactError, DataFormatError, PipelineMismatchError
from .ingest import RawTable, detect_constant_features, drop_columns
from .schema import FeatureSchema

PIPELINE_FORMAT = "adinstall-pipeline"
PIPELINE_VERSION = 1


# ---------------------------------------------------------------------------
# categorical encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocabulary:
    """Bijection between the distinct training tokens of one column and 1..n.

    Codes follow ascending raw-token order; code 0 is reserved for missing
    and unseen tokens and never appears in the mapping itself.
    """

    column: str
    tokens: tuple[int, ...]  # sorted ascending; code of tokens[i] is i + 1

    @property
    def n(self) -> int:
        return len(self.tokens)

    def encode_array(self, raw: np.ndarray, missing: np.ndarray) -> tuple[np.ndarray, int]:
        """Vectorized total encoding; returns (codes, unseen_count)."""
        arr = np.asarray(self.tokens, dtype=np.int64)
        idx = np.searchsorted(arr, raw)
        idx_c = np.minimum(idx, len(arr) - 1)
        known = (idx < len(arr)) & (arr[idx_c] == raw)
        codes = np.where(known & ~missing, idx + 1, 0).astype(np.int64)
        unseen = int(np.count_nonzero(~known & ~missing))
        return codes, unseen


def fit_vocabulary(column: str, raw: np.ndarray, missing: np.ndarray) -> Vocabulary:
    """Map the distinct tokens of the non-missing cells to codes 1..n."""
    observed = np.unique(raw[~missing])
    if not observed.size:
        raise DataFormatError("all cells missing; column should have been dropped", column=column)
    return Vocabulary(column=column, tokens=tuple(observed.tolist()))


# ---------------------------------------------------------------------------
# numerical scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalerParams:
    column: str
    min_x: float
    max_x: float

    def __post_init__(self):
        if not (np.isfinite(self.min_x) and np.isfinite(self.max_x)):
            raise DataFormatError("scaler bounds must be finite", column=self.column)
        if self.min_x > self.max_x:
            raise DataFormatError("scaler min exceeds max", column=self.column)


def fit_minmax(column: str, cells) -> ScalerParams:
    arr = np.asarray(cells, dtype=np.float64)
    if arr.size == 0:
        raise DataFormatError("cannot fit a scaler on an empty column", column=column)
    if np.isnan(arr).any():
        raise DataFormatError("scaler input still has missing cells", column=column)
    return ScalerParams(column=column, min_x=float(arr.min()), max_x=float(arr.max()))


def apply_minmax(params: ScalerParams, x: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min), clipped to [0, 1]; degenerate columns map to 0."""
    if params.max_x == params.min_x:
        return np.zeros_like(x, dtype=np.float64)
    return np.clip((x - params.min_x) / (params.max_x - params.min_x), 0.0, 1.0)


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRegression:
    """Least-squares model of one column given all other numerical columns."""

    intercept: float
    coef: tuple[float, ...]  # over the other columns, in column order


@dataclass(frozen=True)
class ImputerModel:
    """Fitted replacement rule for missing numerical cells.

    ``fallback`` holds the per-column statistic used by the mean, median, and
    zero strategies; the iterative strategy stores column means (its seed
    values) plus one :class:`ColumnRegression` per column. Predictions are
    clipped to the observed training range of their column, recorded in
    ``observed_min``/``observed_max``, to prevent extrapolation blow-ups.
    """

    strategy: str
    columns: tuple[str, ...]
    fallback: dict[str, float]
    observed_min: dict[str, float]
    observed_max: dict[str, float]
    models: dict[str, ColumnRegression] = field(default_factory=dict)
    fallback_columns: frozenset[str] = frozenset()
    iteration_count: int = 10
    tolerance: float = 1e-3
    passes_run: int = 0
    converged: bool = True
    max_change_per_pass: tuple[float, ...] = ()


STRATEGIES = ("mean", "median", "zero", "iterative")


def _observed_stats(matrix: np.ndarray, columns: tuple[str, ...]):
    means, mins, maxs = {}, {}, {}
    for j, name in enumerate(columns):
        col = matrix[:, j]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            raise DataFormatError(
                "all cells missing; column should have been dropped", column=name
            )
        means[name] = float(np.mean(observed))
        mins[name] = float(observed.min())
        maxs[name] = float(observed.max())
    return means, mins, maxs


def _fit_regression(work: np.ndarray, target_j: int, rows: np.ndarray) -> ColumnRegression | None:
    """OLS of column ``target_j`` on all others, over ``rows``; None if underdetermined."""
    n_pred = work.shape[1] - 1
    if rows.sum() < n_pred + 1:
        return None
    others = [j for j in range(work.shape[1]) if j != target_j]
    design = np.column_stack([np.ones(int(rows.sum())), work[rows][:, others]])
    beta, *_ = np.linalg.lstsq(design, work[rows, target_j], rcond=None)
    if not np.all(np.isfinite(beta)):
        return None
    return ColumnRegression(intercept=float(beta[0]), coef=tuple(float(b) for b in beta[1:]))


def fit_imputer(
    matrix: np.ndarray,
    columns: tuple[str, ...],
    strategy: str = "iterative",
    iteration_count: int = 10,
    tolerance: float = 1e-3,
) -> ImputerModel:
    """Fit the chosen strategy on a training matrix (NaN marks missing).

    The iterative strategy seeds missing cells with column means, then
    round-robins over the columns that had missing cells: refit the
    least-squares model of the column on all other columns using rows where
    it was originally observed, re-predict its originally-missing cells, and
    stop early once the largest cell change in a full pass drops below
    ``tolerance``. Final models are fitted for every column on the converged
    matrix, so transform-time tables may have missing cells in columns the
    training data had complete.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(columns):
        raise ValueError("matrix shape does not match the column list")
    means, mins, maxs = _observed_stats(matrix, columns)

    if strategy == "zero":
        return ImputerModel("zero", columns, {c: 0.0 for c in columns}, mins, maxs)
    if strategy == "mean":
        return ImputerModel("mean", columns, dict(means), mins, maxs)
    if strategy == "median":
        fallback = {}
        for j, name in enumerate(columns):
            col = matrix[:, j]
            fallback[name] = float(np.median(col[~np.isnan(col)]))
        return ImputerModel("median", columns, fallback, mins, maxs)

    if len(columns) < 2:
        raise ValueError("iterative imputation needs at least 2 numerical columns")

    missing = np.isnan(matrix)
    work = matrix.copy()
    for j, name in enumerate(columns):
        work[missing[:, j], j] = means[name]

    targets = [j for j in range(len(columns)) if missing[:, j].any()]
    passes = 0
    converged = True
    changes: list[float] = []
    fallback_cols: set[str] = set()
    if targets:
        converged = False
        for _ in range(iteration_count):
            passes += 1
            pass_change = 0.0
            for j in targets:
                rows = ~missing[:, j]
                model = _fit_regression(work, j, rows)
                if model is None:
                    continue  # underdetermined this pass; seed values stand
                others = [k for k in range(len(columns)) if k != j]
                pred = model.intercept + work[np.ix_(missing[:, j], others)] @ np.asarray(
                    model.coef
                )
                pred = np.clip(pred, mins[columns[j]], maxs[columns[j]])
                delta = np.abs(pred - work[missing[:, j], j])
                if delta.size:
                    pass_change = max(pass_change, float(delta.max()))
                work[missing[:, j], j] = pred
            changes.append(pass_change)
            if pass_change < tolerance:
                converged = True
                break

    models: dict[str, ColumnRegression] = {}
    for j, name in enumerate(columns):
        model = _fit_regression(work, j, ~missing[:, j])
        if model is None:
            fallback_cols.add(name)
        else:
            models[name] = model

    return ImputerModel(
        strategy="iterative",
        columns=columns,
        fallback=dict(means),
        observed_min=mins,
        observed_max=maxs,
        models=models,
        fallback_columns=frozenset(fallback_cols),
        iteration_count=iteration_count,
        tolerance=tolerance,
        passes_run=passes,
        converged=converged,
        max_change_per_pass=tuple(changes),
    )


def impute(model: ImputerModel, matrix: np.ndarray) -> np.ndarray:
    """Complete ``matrix`` (NaN marks missing); observed cells pass unchanged.

    The iterative strategy predicts each missing cell from the row's other
    cells, seeding any of those that are themselves missing with the column
    means; mean/median/zero substitute the stored per-column statistic.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(model.columns):
        raise PipelineMismatchError(
            f"imputer was fitted on {len(model.columns)} columns, got {matrix.shape[1]}"
        )
    missing = np.isnan(matrix)
    out = matrix.copy()
    if not missing.any():
        return out

    if model.strategy != "iterative":
        for j, name in enumerate(model.columns):
            out[missing[:, j], j] = model.fallback[name]
        return out

    seeded = matrix.copy()
    for j, name in enumerate(model.columns):
        seeded[missing[:, j], j] = model.fallback[name]
    for j, name in enumerate(model.columns):
        rows = missing[:, j]
        if not rows.any():
            continue
        reg = model.models.get(name)
        if reg is None:
            out[rows, j] = model.fallback[name]
            continue
        others = [k for k in range(len(model.columns)) if k != j]
        pred = reg.intercept + seeded[np.ix_(rows, others)] @ np.asarray(reg.coef)
        out[rows, j] = np.clip(pred, model.observed_min[name], model.observed_max[name])
    return out


# ---------------------------------------------------------------------------
# the fitted pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrepConfig:
    impute_strategy: str = "iterative"
    imputer_iterations: int = 10
    imputer_tolerance: float = 1e-3


@dataclass(frozen=True)
class PreparedDataset:
    """Model-ready blocks: no missing cells, codes in 0..n, numericals in [0, 1].

    ``source_row_ids`` are the row ids of the rows, or, for a dataset taken
    at an index array, those of the dataset it was taken from, with
    ``source_rows`` the positions of its rows there. ``row_ids`` is built on
    first read, so a training batch, which never reads it, never builds it.
    """

    source_row_ids: tuple[str, ...]
    cat_names: tuple[str, ...]
    cat_codes: np.ndarray  # (n, C) int64
    bin_names: tuple[str, ...]
    binary: np.ndarray  # (n, B) float64 in {0, 1}
    num_names: tuple[str, ...]
    numeric: np.ndarray  # (n, N) float64 in [0, 1]
    label_names: tuple[str, ...]
    labels: np.ndarray | None  # (n, L) float64 in {0, 1}, or None
    unseen_counts: dict[str, int] = field(default_factory=dict)
    source_rows: np.ndarray | None = None  # None: every source row, in order

    @cached_property
    def row_ids(self) -> tuple[str, ...]:
        if self.source_rows is None:
            return self.source_row_ids
        return tuple(map(self.source_row_ids.__getitem__, self.source_rows.tolist()))

    @property
    def n_rows(self) -> int:
        return len(self.cat_codes)

    def take(self, indices: np.ndarray | slice) -> "PreparedDataset":
        """The rows at ``indices``: copies for an index array, views for a slice."""
        if isinstance(indices, slice):
            idx = indices
            if self.source_rows is None:
                ids, rows = self.source_row_ids[indices], None
            else:  # a view of the positions, so row_ids stays unbuilt
                ids, rows = self.source_row_ids, self.source_rows[indices]
        else:
            idx = rows = np.array(indices)  # a copy: row_ids reads it later
            ids = self.row_ids
        return PreparedDataset(
            source_row_ids=ids,
            cat_names=self.cat_names,
            cat_codes=self.cat_codes[idx],
            bin_names=self.bin_names,
            binary=self.binary[idx],
            num_names=self.num_names,
            numeric=self.numeric[idx],
            label_names=self.label_names,
            labels=None if self.labels is None else self.labels[idx],
            unseen_counts=dict(self.unseen_counts),
            source_rows=rows,
        )

    def label_matrix(self, heads: tuple[str, ...]) -> np.ndarray:
        if self.labels is None:
            raise PipelineMismatchError("dataset has no labels")
        missing = [h for h in heads if h not in self.label_names]
        if missing:
            raise PipelineMismatchError(f"dataset lacks label column(s) {missing}")
        cols = [self.label_names.index(h) for h in heads]
        return self.labels[:, cols]


@dataclass(frozen=True)
class PrepPipeline:
    """Everything fitted on the training table; apply with :meth:`transform`."""

    schema: FeatureSchema  # training schema as declared, before drops
    dropped: tuple[str, ...]
    vocabularies: dict[str, Vocabulary]
    imputer: ImputerModel | None
    scalers: dict[str, ScalerParams]
    binary_fill: dict[str, int]
    train_rows: int
    train_missing: dict[str, int]  # per-column missing cells seen while fitting

    @property
    def cat_names(self) -> tuple[str, ...]:
        kept = self.schema.drop(self.dropped)
        return kept.names_with_role("categorical")

    @property
    def bin_names(self) -> tuple[str, ...]:
        kept = self.schema.drop(self.dropped)
        return kept.names_with_role("binary")

    @property
    def num_names(self) -> tuple[str, ...]:
        kept = self.schema.drop(self.dropped)
        return kept.names_with_role("numerical")

    def vocab_sizes(self) -> tuple[int, ...]:
        return tuple(self.vocabularies[c].n for c in self.cat_names)

    def transform(self, table: RawTable) -> PreparedDataset:
        """Apply drop, encode, impute, and scale; labels copy through if present."""
        table = drop_columns(table, self.dropped, missing_ok=True)
        if table.cat_names != self.cat_names:
            raise PipelineMismatchError(
                f"categorical columns {table.cat_names} != fitted {self.cat_names}"
            )
        if table.bin_names != self.bin_names:
            raise PipelineMismatchError(
                f"binary columns {table.bin_names} != fitted {self.bin_names}"
            )
        if table.num_names != self.num_names:
            raise PipelineMismatchError(
                f"numerical columns {table.num_names} != fitted {self.num_names}"
            )

        n = table.n_rows
        codes = np.zeros((n, len(self.cat_names)), dtype=np.int64)
        unseen: dict[str, int] = {}
        for j, name in enumerate(self.cat_names):
            raw, miss = table.cat_column(name)
            codes[:, j], count = self.vocabularies[name].encode_array(raw, miss)
            if count:
                unseen[name] = count

        binary = table.binary.astype(np.float64)
        for j, name in enumerate(self.bin_names):
            # only reachable for hand-built tables; parsed binaries are complete
            col = binary[:, j]
            col[np.isnan(col)] = float(self.binary_fill[name])

        if self.num_names:
            completed = impute(self.imputer, table.numeric)
            numeric = np.empty_like(completed)
            for j, name in enumerate(self.num_names):
                numeric[:, j] = apply_minmax(self.scalers[name], completed[:, j])
        else:
            numeric = np.zeros((n, 0), dtype=np.float64)

        labels = table.labels.astype(np.float64) if table.label_names else None
        prepared = PreparedDataset(
            source_row_ids=table.row_ids,
            cat_names=self.cat_names,
            cat_codes=codes,
            bin_names=self.bin_names,
            binary=binary,
            num_names=self.num_names,
            numeric=numeric,
            label_names=table.label_names,
            labels=labels,
            unseen_counts=unseen,
        )
        _check_prepared(prepared, self)
        return prepared


def _check_prepared(ds: PreparedDataset, pipeline: PrepPipeline) -> None:
    if np.isnan(ds.numeric).any() or np.isnan(ds.binary).any():
        raise PipelineMismatchError("prepared dataset still contains missing cells")
    if ds.numeric.size and (ds.numeric.min() < 0.0 or ds.numeric.max() > 1.0):
        raise PipelineMismatchError("scaled numerical cells left [0, 1]")
    for j, name in enumerate(ds.cat_names):
        n = pipeline.vocabularies[name].n
        col = ds.cat_codes[:, j]
        if col.size and (col.min() < 0 or col.max() > n):
            raise PipelineMismatchError(f"categorical codes out of 0..{n} in {name!r}")


def fit_pipeline(train: RawTable, config: PrepConfig | None = None) -> PrepPipeline:
    """Fit drop list, vocabularies, imputer, scalers, and binary fill values."""
    config = config or PrepConfig()
    constant = detect_constant_features(train)
    table = drop_columns(train, constant)

    missing_counts: dict[str, int] = {}
    vocabs: dict[str, Vocabulary] = {}
    for name in table.cat_names:
        raw, miss = table.cat_column(name)
        vocabs[name] = fit_vocabulary(name, raw, miss)
        if int(miss.sum()):
            missing_counts[name] = int(miss.sum())

    imputer = None
    scalers: dict[str, ScalerParams] = {}
    if table.num_names:
        for j, name in enumerate(table.num_names):
            count = int(np.isnan(table.numeric[:, j]).sum())
            if count:
                missing_counts[name] = count
        if config.impute_strategy == "iterative" and len(table.num_names) < 2:
            raise ValueError(
                "iterative imputation needs at least 2 numerical columns; "
                "pick mean, median, or zero"
            )
        imputer = fit_imputer(
            table.numeric,
            table.num_names,
            strategy=config.impute_strategy,
            iteration_count=config.imputer_iterations,
            tolerance=config.imputer_tolerance,
        )
        completed = impute(imputer, table.numeric)
        for j, name in enumerate(table.num_names):
            scalers[name] = fit_minmax(name, completed[:, j])

    binary_fill: dict[str, int] = {}
    for j, name in enumerate(table.bin_names):
        ones = int(table.binary[:, j].sum())
        binary_fill[name] = 1 if ones * 2 > table.n_rows else 0

    return PrepPipeline(
        schema=train.schema,
        dropped=tuple(constant),
        vocabularies=vocabs,
        imputer=imputer,
        scalers=scalers,
        binary_fill=binary_fill,
        train_rows=train.n_rows,
        train_missing=missing_counts,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_pipeline(pipeline: PrepPipeline, path: str | Path) -> None:
    imp = None
    if pipeline.imputer is not None:
        m = pipeline.imputer
        imp = {
            "strategy": m.strategy,
            "columns": list(m.columns),
            "fallback": m.fallback,
            "observed_min": m.observed_min,
            "observed_max": m.observed_max,
            "models": {
                c: {"intercept": r.intercept, "coef": list(r.coef)} for c, r in m.models.items()
            },
            "fallback_columns": sorted(m.fallback_columns),
            "iteration_count": m.iteration_count,
            "tolerance": m.tolerance,
            "passes_run": m.passes_run,
            "converged": m.converged,
            "max_change_per_pass": list(m.max_change_per_pass),
        }
    payload = {
        "format": PIPELINE_FORMAT,
        "version": PIPELINE_VERSION,
        "schema": {
            "columns": [list(c) for c in pipeline.schema.columns],
            "delimiter": pipeline.schema.delimiter,
            "has_header": pipeline.schema.has_header,
        },
        "dropped": list(pipeline.dropped),
        "categorical": {c: list(v.tokens) for c, v in pipeline.vocabularies.items()},
        "imputer": imp,
        "scalers": {c: [s.min_x, s.max_x] for c, s in pipeline.scalers.items()},
        "binary_fill": pipeline.binary_fill,
        "train_rows": pipeline.train_rows,
        "train_missing": pipeline.train_missing,
    }
    write_text(path, json.dumps(payload, indent=1) + "\n")


def load_pipeline(path: str | Path) -> PrepPipeline:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not a pipeline artifact: {exc}") from exc
    if payload.get("format") != PIPELINE_FORMAT:
        raise ArtifactError(f"{path}: unrecognized artifact format")
    if payload.get("version") != PIPELINE_VERSION:
        raise ArtifactError(f"{path}: unsupported pipeline version {payload.get('version')}")

    schema = FeatureSchema(
        columns=tuple((n, r) for n, r in payload["schema"]["columns"]),
        delimiter=payload["schema"]["delimiter"],
        has_header=payload["schema"]["has_header"],
    )
    imp = None
    if payload["imputer"] is not None:
        d = payload["imputer"]
        imp = ImputerModel(
            strategy=d["strategy"],
            columns=tuple(d["columns"]),
            fallback={c: float(v) for c, v in d["fallback"].items()},
            observed_min={c: float(v) for c, v in d["observed_min"].items()},
            observed_max={c: float(v) for c, v in d["observed_max"].items()},
            models={
                c: ColumnRegression(float(r["intercept"]), tuple(float(b) for b in r["coef"]))
                for c, r in d["models"].items()
            },
            fallback_columns=frozenset(d["fallback_columns"]),
            iteration_count=int(d["iteration_count"]),
            tolerance=float(d["tolerance"]),
            passes_run=int(d["passes_run"]),
            converged=bool(d["converged"]),
            max_change_per_pass=tuple(float(x) for x in d["max_change_per_pass"]),
        )
    return PrepPipeline(
        schema=schema,
        dropped=tuple(payload["dropped"]),
        vocabularies={
            c: Vocabulary(column=c, tokens=tuple(int(t) for t in toks))
            for c, toks in payload["categorical"].items()
        },
        imputer=imp,
        scalers={
            c: ScalerParams(column=c, min_x=float(lo), max_x=float(hi))
            for c, (lo, hi) in payload["scalers"].items()
        },
        binary_fill={c: int(v) for c, v in payload["binary_fill"].items()},
        train_rows=int(payload["train_rows"]),
        train_missing={c: int(v) for c, v in payload["train_missing"].items()},
    )
