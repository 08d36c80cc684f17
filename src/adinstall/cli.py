"""Command-line entry points: prepare, train, predict, evaluate, synth.

Every option lives in a flat key=value config file and can be overridden
per key on the command line; every run is reproducible given its config
and seed. Error exits are nonzero and print one machine-parsable line:
``adinstall: error: <Kind>: <message>``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .atomic import write_text
from .errors import AdinstallError, DataFormatError, PipelineMismatchError
from .ingest import (
    load_table,
    raise_first,
    read_line_chunks,
    row_chunks,
    split_columns,
    write_delimited,
    write_table,
)
from .metrics import render_reports, report, report_record_lines
from .network import NetworkConfig, NetworkParams, load_params, save_params
from .prep import PrepConfig, PrepPipeline, fit_pipeline, load_pipeline, save_pipeline
from .schema import FeatureSchema, read_schema_file, write_schema_file
from .synth import SynthSpec, generate
from .training import (
    TrainConfig,
    predict,
    retrain_full,
    split_train_val,
    train_with_early_stopping,
)

SUBMISSION_COLUMNS = ("row_id", "is_clicked", "is_installed")
# probability written for a submission column the model has no head for
PLACEHOLDER = 0.5


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of every subcommand, with its documented default."""

    # paths
    schema_file: str = ""
    train_file: str = ""
    test_file: str = ""
    data_file: str = ""
    predictions_file: str = ""
    pipeline_file: str = ""
    model_file: str = ""
    out_dir: str = "."
    # preprocessing
    impute_strategy: str = "iterative"
    imputer_iterations: int = 10
    imputer_tolerance: float = 1e-3
    # model
    trunk: tuple[int, ...] = (256, 128)
    heads: tuple[str, ...] = ("is_installed",)
    trunk_sharing: str = "shared"
    freeze_missing_row: bool = True
    precision: str = "f64"
    # training
    val_fraction: float = 0.25
    max_epochs: int = 50
    patience: int = 3
    monitor_head: str = "is_installed"
    monitor_mode: str = "single"
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 4096
    seed: int = 0
    # metrics
    threshold: float = 0.5
    split_eval: bool = False
    # synth
    rows: int = 10_000
    test_rows: int = 2_000
    base_rate: float = 0.17
    click_rate: float = 0.22
    cat_vocabs: tuple[int, ...] = (12, 40, 300)
    n_binary: int = 3
    n_numerical: int = 5
    cat_missing_rate: float = 0.05
    numeric_missing_rate: float = 0.10
    unseen_rate: float = 0.02
    constant_column: bool = True
    signal_scale: float = 1.0


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    return tuple(int(p) for p in text.split(",") if p.strip()) if text else ()


def _parse_str_tuple(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


_PARSERS = {str: str, int: int, float: float, bool: _parse_bool}


def _field_parsers() -> dict[str, callable]:
    out = {}
    for f in fields(RunConfig):
        if f.name in ("trunk", "cat_vocabs"):
            out[f.name] = _parse_int_tuple
        elif f.name == "heads":
            out[f.name] = _parse_str_tuple
        else:
            out[f.name] = _PARSERS[type(getattr(RunConfig(), f.name))]
    return out


def load_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` text; unknown keys are an error."""
    parsers = _field_parsers()
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise AdinstallError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in parsers:
            raise AdinstallError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise AdinstallError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return replace(cfg, **overrides)


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if not getattr(cfg, n)]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")


class UsageError(AdinstallError):
    pass


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _out(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _network_config(pipeline: PrepPipeline, cfg: RunConfig) -> NetworkConfig:
    return NetworkConfig(
        cat_columns=pipeline.cat_names,
        vocab_sizes=pipeline.vocab_sizes(),
        n_binary=len(pipeline.bin_names),
        n_numerical=len(pipeline.num_names),
        trunk=cfg.trunk,
        heads=cfg.heads,
        trunk_sharing=cfg.trunk_sharing,
        freeze_missing_row=cfg.freeze_missing_row,
        seed=cfg.seed,
        dtype=cfg.precision,
    )


def _train_config(cfg: RunConfig) -> TrainConfig:
    monitor = cfg.monitor_head
    if monitor not in cfg.heads:
        if len(cfg.heads) == 1:
            monitor = cfg.heads[0]
        else:
            raise UsageError(
                f"monitor_head {monitor!r} is not one of the heads {list(cfg.heads)}"
            )
    return TrainConfig(
        val_fraction=cfg.val_fraction,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        monitor_head=monitor,
        monitor_mode=cfg.monitor_mode,
        seed=cfg.seed,
        optimizer=cfg.optimizer,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_prepare(cfg: RunConfig) -> int:
    _require(cfg, "schema_file", "train_file")
    schema = read_schema_file(cfg.schema_file)
    table = load_table(cfg.train_file, schema)
    pipeline = fit_pipeline(
        table,
        PrepConfig(
            impute_strategy=cfg.impute_strategy,
            imputer_iterations=cfg.imputer_iterations,
            imputer_tolerance=cfg.imputer_tolerance,
        ),
    )
    path = Path(cfg.pipeline_file) if cfg.pipeline_file else _out(cfg, "pipeline.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    save_pipeline(pipeline, path)

    print(f"rows: {table.n_rows}")
    print(f"dropped constant columns: {list(pipeline.dropped) or 'none'}")
    for name in pipeline.cat_names:
        extra = f", {pipeline.train_missing[name]} missing" if name in pipeline.train_missing else ""
        print(f"categorical {name}: {pipeline.vocabularies[name].n} distinct values{extra}")
    for name in pipeline.num_names:
        s = pipeline.scalers[name]
        imputed = pipeline.train_missing.get(name, 0)
        print(f"numerical {name}: range [{s.min_x:g}, {s.max_x:g}], {imputed} cells imputed")
    if pipeline.imputer is not None and pipeline.imputer.strategy == "iterative":
        m = pipeline.imputer
        print(
            f"iterative imputer: {m.passes_run} passes, converged={m.converged}, "
            f"fallback columns: {sorted(m.fallback_columns) or 'none'}"
        )
    for name, count in sorted(table.parse_warnings.items()):
        print(f"warning: {count} unparsable cells treated as missing in {name}")
    print(f"pipeline written to {path} (sha256 {file_sha256(path)[:12]})")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "train_file")
    pipeline_path = Path(cfg.pipeline_file) if cfg.pipeline_file else _out(cfg, "pipeline.json")
    if not pipeline_path.exists():
        raise UsageError(f"pipeline artifact {pipeline_path} not found; run prepare first")
    pipeline = load_pipeline(pipeline_path)
    pipeline_hash = file_sha256(pipeline_path)

    table = load_table(cfg.train_file, pipeline.schema)
    dataset = pipeline.transform(table)
    net_config = _network_config(pipeline, cfg)
    train_config = _train_config(cfg)

    best_params, history = train_with_early_stopping(dataset, net_config, train_config)
    if history.diverged:
        print(f"warning: training diverged: {history.diagnostic}", file=sys.stderr)
    if history.best_epoch < 1:
        raise AdinstallError(f"no usable epoch completed: {history.diagnostic or 'unknown'}")

    print(history.render_table())
    print(
        f"early stopping: best epoch {history.best_epoch} of {history.stopped_epoch}, "
        f"val {history.monitor_head} loss {history.best_val_loss():.6f}"
    )
    if history.per_head_best:
        for head, epoch in history.per_head_best.items():
            print(f"per-head best: {head} at epoch {epoch}")

    full_params, full_history = retrain_full(dataset, net_config, train_config, history.best_epoch)
    if full_history.diverged:
        raise AdinstallError(f"full retrain diverged: {full_history.diagnostic}")

    val_path = _out(cfg, "model_val.bin")
    full_path = _out(cfg, "model_full.bin")
    save_params(best_params, val_path, pipeline_hash=pipeline_hash)
    save_params(full_params, full_path, pipeline_hash=pipeline_hash)
    write_text(_out(cfg, "history.tsv"), "\n".join(history.record_lines()) + "\n")
    write_text(_out(cfg, "history.txt"), history.render_table() + "\n")
    print(f"retrained on 100% of rows for {history.best_epoch} epochs")
    print(f"model artifacts: {val_path} (validation-selected), {full_path} (full retrain)")
    return 0


def _schema_for_file(path: str | Path, schema: FeatureSchema) -> FeatureSchema:
    """Pick the labeled or label-free schema variant matching the file."""
    candidates = [schema, schema.without_labels()]
    with Path(path).open("r", encoding="utf-8") as fh:
        first = ""
        for line in fh:
            first = line.rstrip("\r\n")
            if first:
                break
    n_fields = len(first.split(schema.delimiter))
    for cand in candidates:
        if n_fields == cand.n_columns:
            return cand
    raise DataFormatError(
        f"{path}: first line has {n_fields} fields; expected "
        f"{candidates[0].n_columns} (labeled) or {candidates[1].n_columns} (unlabeled)",
        line=1,
    )


def _load_model(cfg: RunConfig, not_found_hint: str = "") -> tuple[PrepPipeline, NetworkParams]:
    """The pipeline and model a scoring command uses.

    Refuses a model whose stored pipeline hash is absent or differs from the
    hash of the pipeline file, since its codes and scales would not match.
    """
    pipeline_path = Path(cfg.pipeline_file) if cfg.pipeline_file else _out(cfg, "pipeline.json")
    model_path = Path(cfg.model_file) if cfg.model_file else _out(cfg, "model_full.bin")
    for p in (pipeline_path, model_path):
        if not p.exists():
            raise UsageError(f"artifact {p} not found{not_found_hint}")
    pipeline = load_pipeline(pipeline_path)
    params, expected_hash = load_params(model_path)
    if expected_hash is None:
        raise PipelineMismatchError(
            f"model {model_path} stores no pipeline hash, so it cannot be checked "
            f"against {pipeline_path}; retrain it with this pipeline"
        )
    actual_hash = file_sha256(pipeline_path)
    if expected_hash != actual_hash:
        raise PipelineMismatchError(
            f"model {model_path} was trained with pipeline {expected_hash[:12]}, "
            f"but {pipeline_path} hashes to {actual_hash[:12]}"
        )
    return pipeline, params


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, "test_file")
    pipeline, params = _load_model(cfg)
    schema = _schema_for_file(cfg.test_file, pipeline.schema)
    table = load_table(cfg.test_file, schema)
    dataset = pipeline.transform(table)
    probs = predict(params, dataset)

    heads = params.config.heads
    out_path = _out(cfg, "submission.tsv")
    filled = [h for h in SUBMISSION_COLUMNS[1:] if h not in heads]

    def columns(rows: slice) -> list:
        out: list = [dataset.row_ids[rows]]
        for head in SUBMISSION_COLUMNS[1:]:
            if head in heads:
                out.append(map("{:.9f}".format, probs[rows, heads.index(head)].tolist()))
            else:
                out.append(repeat(f"{PLACEHOLDER:.9f}"))
        return out

    write_delimited(out_path, SUBMISSION_COLUMNS, map(columns, row_chunks(dataset.n_rows)), "\t")

    print(f"submission written to {out_path} ({dataset.n_rows} rows)")
    if filled:
        print(f"note: model has no head for {filled}; those columns hold the 0.5 placeholder")
    total_unseen = sum(dataset.unseen_counts.values())
    if total_unseen:
        per_col = ", ".join(f"{k}: {v}" for k, v in sorted(dataset.unseen_counts.items()))
        print(f"unseen categorical tokens encoded as 0: {total_unseen} ({per_col})")
    return 0


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_predictions(path: str | Path, row_ids: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Parse a submission-format file into per-head probability arrays.

    The file's rows must carry ``row_ids``, the row ids of the labeled data
    file, in the same order. It is read in chunks of lines and converted
    column by column; the first faulty row is located, with its file line,
    only on an error.
    """
    heads = SUBMISSION_COLUMNS[1:]
    parts: dict[str, list[np.ndarray]] = {h: [] for h in heads}
    n_read = 0
    header_seen = False
    for first_line, lines in read_line_chunks(path):
        if not header_seen:
            header_seen = True
            header = lines[0].split("\t")
            if header != list(SUBMISSION_COLUMNS):
                raise DataFormatError(
                    f"{path}: expected header {list(SUBMISSION_COLUMNS)}, got {header}", line=1
                )
            first_line, lines = 2, lines[1:]
        rows = list(filter(None, lines))
        cols, bad_count = split_columns(rows, "\t", len(SUBMISSION_COLUMNS))
        errors: list[tuple[int, int, str, str | None]] = []
        if bad_count is not None:
            n_fields = rows[bad_count].count("\t") + 1
            errors.append((bad_count, -1, f"{path}: row has {n_fields} fields, "
                           f"expected {len(SUBMISSION_COLUMNS)}", None))
        ids = list(map(str.strip, cols[0]))
        expected = list(row_ids[n_read : n_read + len(ids)])
        n_read += len(ids)
        if ids[: len(expected)] != expected:
            bad = next(i for i, (got, want) in enumerate(zip(ids, expected)) if got != want)
            errors.append((bad, -1, f"{path}: row_id {ids[bad]!r} where the data file has "
                           f"{expected[bad]!r}", "row_id"))
        for order, (head, cells) in enumerate(zip(heads, cols[1:])):
            try:
                parts[head].append(np.fromiter(map(float, cells), np.float64, len(cells)))
            except ValueError:
                bad = next(i for i, c in enumerate(cells) if not _parses_as_float(c))
                errors.append((bad, order, f"{path}: non-numeric probability {cells[bad]!r}", head))
        raise_first(errors, first_line, lines)
    if not header_seen:
        raise DataFormatError(f"{path}: empty predictions file")
    if n_read != len(row_ids):
        raise DataFormatError(f"{path}: {n_read} prediction rows vs {len(row_ids)} labeled rows")
    return {h: np.concatenate(v) if v else np.empty(0) for h, v in parts.items()}


def cmd_evaluate(cfg: RunConfig) -> int:
    _require(cfg, "data_file")

    if cfg.predictions_file:
        if cfg.schema_file:
            schema = read_schema_file(cfg.schema_file)
        elif cfg.pipeline_file or Path(cfg.out_dir, "pipeline.json").exists():
            path = cfg.pipeline_file or Path(cfg.out_dir, "pipeline.json")
            schema = load_pipeline(path).schema
        else:
            raise UsageError("predictions mode needs schema_file or a pipeline artifact")
        schema.require_labels()
        table = load_table(cfg.data_file, schema)
        preds = _read_predictions(cfg.predictions_file, table.row_ids)
        for head in table.label_names:
            if head not in preds:
                continue
            if np.all(preds[head] == PLACEHOLDER):
                print(f"note: {head!r} holds only the {PLACEHOLDER} placeholder; not scored")
                continue
            rep = report(table.label_column(head), preds[head], threshold=cfg.threshold)
            print(render_reports({"All rows": rep}, title=f"Output {head!r}"))
            print()
        return 0

    pipeline, params = _load_model(cfg, "; pass predictions_file or model_file")
    schema = _schema_for_file(cfg.data_file, pipeline.schema)
    schema.require_labels()
    table = load_table(cfg.data_file, schema)
    dataset = pipeline.transform(table)

    heads = params.config.heads
    record_lines: list[str] = []
    for head in heads:
        if head not in dataset.label_names:
            raise PipelineMismatchError(f"data file has no label column {head!r}")
        columns: dict[str, np.ndarray] = {}
        if cfg.split_eval:
            tr, va = split_train_val(dataset, cfg.seed, cfg.val_fraction)
            frac = 100 * (1 - cfg.val_fraction)
            columns[f"Training set ({frac:.0f}%)"] = tr
            columns[f"Validation set ({100 - frac:.0f}%)"] = va
        else:
            columns["All rows"] = dataset
        reports = {}
        for name, subset in columns.items():
            probs = predict(params, subset)
            y = subset.label_matrix((head,))[:, 0]
            reports[name] = report(y, probs[:, heads.index(head)], threshold=cfg.threshold)
        print(render_reports(reports, title=f"Output {head!r}"))
        print()
        record_lines += [f"{head}\t{line}" for line in report_record_lines(reports)]
    write_text(_out(cfg, "metrics.tsv"), "\n".join(record_lines) + "\n")
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    spec = SynthSpec(
        n_rows=cfg.rows,
        test_rows=cfg.test_rows,
        seed=cfg.seed,
        base_rate=cfg.base_rate,
        click_rate=cfg.click_rate,
        cat_vocab_sizes=cfg.cat_vocabs,
        include_constant_column=cfg.constant_column,
        n_binary=cfg.n_binary,
        n_numerical=cfg.n_numerical,
        cat_missing_rate=cfg.cat_missing_rate,
        numeric_missing_rate=cfg.numeric_missing_rate,
        test_unseen_rate=cfg.unseen_rate,
        signal_scale=cfg.signal_scale,
    )
    result = generate(spec)
    schema_path = _out(cfg, "schema.txt")
    train_path = _out(cfg, "train.tsv")
    test_path = _out(cfg, "test.tsv")
    write_schema_file(result.schema, schema_path)
    write_table(result.train, train_path)
    write_table(result.test, test_path)

    for head in ("is_clicked", "is_installed"):
        mean = float(result.train.label_column(head).mean())
        print(f"train {head} rate: {mean:.4f}")
    print(f"wrote {train_path} ({result.train.n_rows} rows), "
          f"{test_path} ({result.test.n_rows} rows), {schema_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "prepare": (cmd_prepare, "fit the preprocessing pipeline on a training file"),
    "train": (cmd_train, "run the split / early-stop / full-retrain protocol"),
    "predict": (cmd_predict, "write a submission file for a test file"),
    "evaluate": (cmd_evaluate, "render the metrics report for labeled data"),
    "synth": (cmd_synth, "generate a seeded synthetic dataset"),
}

_FLAG_HELP = {
    "schema_file": "schema text file (name = role per line)",
    "train_file": "delimited training data",
    "test_file": "delimited test data (labels optional)",
    "data_file": "labeled data file to evaluate on",
    "predictions_file": "submission-format predictions to evaluate",
    "pipeline_file": "pipeline artifact path (default: OUT_DIR/pipeline.json)",
    "model_file": "model artifact path (default: OUT_DIR/model_full.bin)",
    "out_dir": "directory for artifacts and reports",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adinstall",
        description="Ad-install prediction pipeline: preprocessing, training, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = _field_parsers()
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            if parsers[f.name] is _parse_bool:
                p.add_argument(flag, dest=f.name, type=_parse_bool, metavar="BOOL",
                               help=_FLAG_HELP.get(f.name))
            else:
                p.add_argument(flag, dest=f.name, type=parsers[f.name],
                               help=_FLAG_HELP.get(f.name))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        command = _COMMANDS[args.command][0]
        return command(cfg)
    except UsageError as exc:
        print(f"adinstall: error: usage: {exc}", file=sys.stderr)
        return 2
    except AdinstallError as exc:
        print(f"adinstall: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"adinstall: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
