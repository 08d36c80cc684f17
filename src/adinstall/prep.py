"""Preprocessing: fit on the training table only, transform any table.

Pipeline stages, in order: drop degenerate columns, re-code categorical
tokens to contiguous codes (0 reserved for missing/unseen), impute missing
numerical cells, scale numericals to [0, 1]. Binary columns and labels
pass through. A fitted :class:`PrepPipeline` is immutable and serializes
to a single versioned JSON artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .atomic import write_text
from .errors import ArtifactError, DataFormatError, PipelineMismatchError
from .ingest import RawTable, detect_constant_features
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


def _predict(
    reg: ColumnRegression, work: np.ndarray, rows: np.ndarray, j: int, lo: float, hi: float
) -> np.ndarray:
    """``intercept + work[rows, others] @ coef`` for column ``j``, clipped to ``[lo, hi]``."""
    others = [k for k in range(work.shape[1]) if k != j]
    return np.clip(reg.intercept + work[np.ix_(rows, others)] @ np.asarray(reg.coef), lo, hi)


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
                pred = _predict(model, work, missing[:, j], j, mins[columns[j]], maxs[columns[j]])
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
    """A completed copy of ``matrix`` (NaN marks missing); observed cells pass unchanged.

    Every missing cell is first seeded with its column's ``fallback``, which
    is the whole rule for mean, median and zero. A column with a regression
    (the iterative strategy) then replaces its missing cells by predictions
    from the row's seeded cells; all predictions are computed before any is
    written, so none reads another's output.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(model.columns):
        raise PipelineMismatchError(
            f"imputer was fitted on {len(model.columns)} columns, got {matrix.shape[1]}"
        )
    missing = np.isnan(matrix)
    work = matrix.copy()
    for j, name in enumerate(model.columns):
        work[missing[:, j], j] = model.fallback[name]
    predicted = []
    for j, name in enumerate(model.columns):
        rows = missing[:, j]
        reg = model.models.get(name)
        if reg is not None and rows.any():
            lo, hi = model.observed_min[name], model.observed_max[name]
            predicted.append((rows, j, _predict(reg, work, rows, j, lo, hi)))
    for rows, j, pred in predicted:
        work[rows, j] = pred
    return work


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

    A dataset holds its blocks only; the row ids stay with the parsed table
    (``RawTable.row_ids``). Training and evaluation select rows by index
    arrays into one dataset, so only a batch is ever taken at an index array.
    """

    cat_names: tuple[str, ...]
    cat_codes: np.ndarray  # (n, C) int64
    bin_names: tuple[str, ...]
    binary: np.ndarray  # (n, B) float64 in {0, 1}
    num_names: tuple[str, ...]
    numeric: np.ndarray  # (n, N) float64 in [0, 1]
    label_names: tuple[str, ...]
    labels: np.ndarray | None  # (n, L) float64 in {0, 1}, or None
    unseen_counts: dict[str, int] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.cat_codes)

    def take(self, indices: np.ndarray | slice) -> "PreparedDataset":
        """The rows at ``indices``: copies for an index array, views for a slice."""
        return replace(
            self,
            cat_codes=self.cat_codes[indices],
            binary=self.binary[indices],
            numeric=self.numeric[indices],
            labels=None if self.labels is None else self.labels[indices],
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
        for role, names, fitted in (
            ("categorical", table.cat_names, self.cat_names),
            ("binary", table.bin_names, self.bin_names),
            ("numerical", table.num_names, self.num_names),
        ):
            kept = tuple(name for name in names if name not in self.dropped)
            if kept != fitted:
                raise PipelineMismatchError(f"{role} columns {kept} != fitted {fitted}")

        n = table.n_rows
        codes = np.zeros((n, len(self.cat_names)), dtype=np.int64)
        unseen: dict[str, int] = {}
        for j, name in enumerate(self.cat_names):
            raw, miss = table.cat_column(name)
            codes[:, j], count = self.vocabularies[name].encode_array(raw, miss)
            if count:
                unseen[name] = count

        binary = _kept(table.binary, table.bin_names, self.bin_names).astype(np.float64)
        for j, name in enumerate(self.bin_names):
            # only reachable for hand-built tables; parsed binaries are complete
            col = binary[:, j]
            col[np.isnan(col)] = float(self.binary_fill[name])

        if self.num_names:
            numeric = impute(self.imputer, _kept(table.numeric, table.num_names, self.num_names))
            for j, name in enumerate(self.num_names):
                numeric[:, j] = apply_minmax(self.scalers[name], numeric[:, j])
        else:
            numeric = np.zeros((n, 0), dtype=np.float64)

        labels = table.labels.astype(np.float64) if table.label_names else None
        prepared = PreparedDataset(
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


def _kept(block: np.ndarray, names: tuple[str, ...], kept: tuple[str, ...]) -> np.ndarray:
    """The columns ``kept`` of a block whose columns are ``names``; the block
    itself when none was dropped."""
    if names == kept:
        return block
    return block[:, [names.index(name) for name in kept]]


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
    kept = train.schema.drop(constant)

    missing_counts: dict[str, int] = {}
    vocabs: dict[str, Vocabulary] = {}
    for name in kept.names_with_role("categorical"):
        raw, miss = train.cat_column(name)
        vocabs[name] = fit_vocabulary(name, raw, miss)
        if int(miss.sum()):
            missing_counts[name] = int(miss.sum())

    imputer = None
    scalers: dict[str, ScalerParams] = {}
    num_names = kept.names_with_role("numerical")
    if num_names:
        numeric = _kept(train.numeric, train.num_names, num_names)
        for j, name in enumerate(num_names):
            count = int(np.isnan(numeric[:, j]).sum())
            if count:
                missing_counts[name] = count
        if config.impute_strategy == "iterative" and len(num_names) < 2:
            raise ValueError(
                "iterative imputation needs at least 2 numerical columns; "
                "pick mean, median, or zero"
            )
        imputer = fit_imputer(
            numeric,
            num_names,
            strategy=config.impute_strategy,
            iteration_count=config.imputer_iterations,
            tolerance=config.imputer_tolerance,
        )
        completed = impute(imputer, numeric)
        for j, name in enumerate(num_names):
            scalers[name] = fit_minmax(name, completed[:, j])

    binary_fill: dict[str, int] = {}
    for name in kept.names_with_role("binary"):
        ones = int(train.bin_column(name).sum())
        binary_fill[name] = 1 if ones * 2 > train.n_rows else 0

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
