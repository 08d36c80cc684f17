"""End-to-end benchmark of the adinstall CLI flow on seeded synthetic inputs.

Run from the repository root:

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 30 --trace 0

Set-up writes ``train_rows + holdout_rows`` labeled rows with ``adinstall
synth`` and splits the file itself: the first rows train, the last rows are
the labeled hold-out set. Each round then runs ``prepare -> train -> predict
-> evaluate`` in-process through ``adinstall.cli.main`` and checks the
outputs; rounds repeat until ``--seconds`` would be exceeded. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. ``--smoke`` shrinks
every workload to a few seconds. See README.md in this directory.
"""

import os

# One BLAS thread, set before numpy is imported: two threads run faster on a
# 2-core machine but compete with its other tenants, so the figures spread more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    train_rows: int
    holdout_rows: int
    cat_vocabs: str
    epochs: int  # max_epochs = patience, so early stopping always runs this many
    batch_size: int
    # synth --signal-scale changes the labels, not the work; sparse tables and a
    # small training slice learn little in two epochs, so those workloads double
    # it to keep the hold-out log-loss clear of the base rate on every seed
    signal_scale: str
    # runs of each timed stage per round (prepare, train, predict, evaluate);
    # stages of a few seconds run three times or more and report the median run
    repeats: tuple[int, int, int, int]


STAGES = ("prepare", "train", "predict", "evaluate")
WORKLOADS = {
    # Train time is mostly backward and the per-epoch evaluation passes: shows
    # matmul, precision and evaluation changes; the no-change control for
    # embedding-gradient and optimizer changes.
    "train_default": Workload(50_000, 50_000, "12,40,300", 2, 4096, "1.0", (3, 1, 3, 3)),
    # Three 256-wide embedding tables with ~34k rows: dense Adam and the
    # embedding scatter carry the extra work, and the hold-out rows carry
    # naturally unseen tokens.
    "train_wide_vocab": Workload(50_000, 50_000, "2000,8000,30000", 2, 4096, "2.0", (3, 1, 1, 1)),
    # A small slice trains the default model, then 150k hold-out rows are
    # parsed, scored and written: shows columnar ingest and output, and is the
    # no-change control for training changes.
    "score_bulk": Workload(10_000, 150_000, "12,40,300", 2, 1024, "2.0", (5, 3, 1, 1)),
}
# every stage and check in a few seconds; smaller batches so the model still
# learns, and a tenth of the wide vocabularies so hold-out tokens were seen
SMOKE = {
    "train_default": replace(WORKLOADS["train_default"], train_rows=6_000, holdout_rows=1_000,
                             batch_size=256),
    "train_wide_vocab": replace(WORKLOADS["train_wide_vocab"], train_rows=6_000, holdout_rows=1_000,
                                cat_vocabs="200,800,3000", batch_size=256),
    "score_bulk": replace(WORKLOADS["score_bulk"], train_rows=2_000, holdout_rows=4_000,
                          batch_size=256),
}
# three times the default step, so that two epochs clear the base-rate
# entropy by several percent on every seed
LEARNING_RATE = "0.003"
SETUP_REPEATS = 3
WARMUP_ROWS = (2_000, 500)
ORACLE_SAMPLE = 256


class Ledger:
    """Counts the stages and checks a run attempted and how many failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, fn):
        """Run ``fn``; a raised exception or a non-zero exit code is a failure."""
        self.attempted += 1
        try:
            result = fn()
        except Exception:  # the run goes on and reports the failure
            self.failed += 1
            print(f"perfbench: {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return result


def run_cli(argv: list[str]) -> tuple[float, str]:
    """Time one ``adinstall`` subcommand in-process; returns (seconds, stdout)."""
    from adinstall import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"adinstall {argv[0]} exited with {code}")
    return seconds, buf.getvalue()


def flow_argv(d: Path, schema: Path, train: Path, holdout: Path, seed: int, wl: Workload,
              epochs: int) -> dict[str, list[list[str]]]:
    """The commands of each timed stage, in run order."""
    s = str
    return {
        "prepare": [["prepare", "--schema-file", s(schema), "--train-file", s(train), "--out-dir", s(d)]],
        "train": [["train", "--train-file", s(train), "--out-dir", s(d), "--seed", s(seed),
                   "--max-epochs", s(epochs), "--patience", s(epochs),
                   "--batch-size", s(wl.batch_size), "--learning-rate", LEARNING_RATE]],
        "predict": [["predict", "--test-file", s(holdout), "--out-dir", s(d)]],
        # from the predictions file, then from the model (which writes metrics.tsv)
        "evaluate": [["evaluate", "--data-file", s(holdout), "--predictions-file",
                      s(d / "submission.tsv"), "--out-dir", s(d)],
                     ["evaluate", "--data-file", s(holdout), "--out-dir", s(d)]],
    }


def write_inputs(work: Path, wl: Workload, seed: int) -> float:
    """Generate the rows and write the training and hold-out files; returns seconds."""
    t0 = time.perf_counter()
    gen = work / "gen"
    run_cli(["synth", "--out-dir", str(gen), "--rows", str(wl.train_rows + wl.holdout_rows),
             "--test-rows", "1", "--seed", str(seed), "--cat-vocabs", wl.cat_vocabs,
             "--signal-scale", wl.signal_scale])
    header, *rows = (gen / "train.tsv").read_text().splitlines(keepends=True)
    (work / "train.tsv").write_text(header + "".join(rows[: wl.train_rows]))
    (work / "holdout.tsv").write_text(header + "".join(rows[wl.train_rows :]))
    return time.perf_counter() - t0


def warm_up(work: Path, wl: Workload, seed: int) -> float:
    """Run the whole flow once on a slice of the inputs; returns seconds."""
    t0 = time.perf_counter()
    warm = work / "warm"
    warm.mkdir(exist_ok=True)
    for name, rows in (("train.tsv", WARMUP_ROWS[0]), ("holdout.tsv", WARMUP_ROWS[1])):
        lines = (work / name).read_text().splitlines(keepends=True)
        (warm / name).write_text("".join(lines[: 1 + rows]))
    for commands in flow_argv(warm, work / "gen" / "schema.txt", warm / "train.tsv",
                              warm / "holdout.tsv", seed, wl, 1).values():
        for argv in commands:
            run_cli(argv)
    return time.perf_counter() - t0


def run_round(work: Path, wl: Workload, seed: int, facts: checks.InputFacts,
              ledger: Ledger) -> dict[str, float]:
    """One pass of the timed stages, then every check; returns the round's metrics."""
    d = work / "run"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    gc.collect()
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    printed = ""  # what evaluate --predictions-file prints
    flow = flow_argv(d, work / "gen" / "schema.txt", work / "train.tsv", work / "holdout.tsv",
                     seed, wl, wl.epochs)
    complete = True
    for stage, repeats in zip(STAGES, wl.repeats):
        for _ in range(repeats):
            seconds = 0.0
            for argv in flow[stage]:
                result = ledger.op(stage, lambda: run_cli(argv))
                if result is None:
                    complete = False
                    continue
                seconds += result[0]
                if "--predictions-file" in argv:
                    printed = result[1]
            times[stage].append(seconds)

    labels = facts.holdout_labels
    probs = ledger.op("submission", lambda: checks.check_submission(d / "submission.tsv", facts))
    ours = checks.log_loss(labels, probs) if probs is not None else float("nan")
    ledger.op("log_loss_agrees", lambda: checks.check_log_loss_agrees(
        ours, probs, d / "metrics.tsv", printed))
    ledger.op("below_entropy", lambda: checks.check_below_entropy(ours, labels))
    ledger.op("vocabularies", lambda: checks.check_vocabularies(d / "pipeline.json", facts))
    ledger.op("history", lambda: checks.check_history(d / "history.tsv"))
    ledger.op("forward_oracle", lambda: checks.check_oracle(
        d / "model_full.bin", d / "pipeline.json", facts, probs))

    if not complete:
        return {}
    # example-epochs: split-train rows x early-stop epochs, plus all rows x
    # retrain epochs, so the rate stays comparable if the best epoch moves
    losses, best = checks.read_history(d / "history.tsv")
    n_val = max(1, min(wl.train_rows - 1, int(round(wl.train_rows * 0.25))))
    example_epochs = (wl.train_rows - n_val) * len(losses) + wl.train_rows * best
    # the median run of each stage, so a burst of load on the machine during
    # one repeat does not set the figure
    t = {stage: statistics.median(runs) for stage, runs in times.items()}
    return {
        "wall_s": sum(t.values()),
        "prepare_rows_per_s": wl.train_rows / t["prepare"],
        "train_rows_per_s": example_epochs / t["train"],
        "predict_rows_per_s": wl.holdout_rows / t["predict"],
        # evaluate scores the hold-out rows twice: from the file and from the model
        "evaluate_rows_per_s": 2 * wl.holdout_rows / t["evaluate"],
        "holdout_logloss": ours,
        # read from the artifacts, reported with the traced run
        "prep.imputer_passes": json.loads((d / "pipeline.json").read_text())["imputer"]["passes_run"],
        "training.epochs_run": len(losses) + best,
    }


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink the workload to a few seconds")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "adinstall" / "cli.py").is_file():
        print(f"perfbench: no adinstall sources under {src}", file=sys.stderr)
        return 2
    # the checkout's sources, never an installed copy
    sys.path.insert(0, str(src))

    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.instrument(tracer)

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        write_s, setup_phases = [], []
        for k in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.phase = f"setup{k}"
                setup_phases.append(tracer.phase)
            write_s.append(write_inputs(work, wl, args.seed))
        if tracer is not None:
            tracer.phase = "warmup"
        setup_s = statistics.median(write_s) + warm_up(work, wl, args.seed)
        facts = checks.read_inputs(work / "gen" / "schema.txt", work / "train.tsv",
                                   work / "holdout.tsv", args.seed, ORACLE_SAMPLE)

        ledger = Ledger()
        rounds, layers = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.phase = f"round{len(rounds)}"
            rounds.append(run_round(work, wl, args.seed, facts, ledger))
            if tracer is not None:
                layers.append(tracing.round_metrics(tracer, tracer.phase))
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    complete = [r for r in rounds if r]
    if not complete:
        print("perfbench: no round completed its stages", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (median_of(complete, "wall_s"), "s"),
            "prepare_rows_per_s": (median_of(complete, "prepare_rows_per_s"), "1/s"),
            "train_rows_per_s": (median_of(complete, "train_rows_per_s"), "1/s"),
            "predict_rows_per_s": (median_of(complete, "predict_rows_per_s"), "1/s"),
            "evaluate_rows_per_s": (median_of(complete, "evaluate_rows_per_s"), "1/s"),
            "holdout_logloss": (median_of(complete, "holdout_logloss"), "nats"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        values = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        values.update(tracing.setup_metrics(tracer, setup_phases))
        for name in ("prep.imputer_passes", "training.epochs_run"):
            values[name] = median_of(complete, name)
        metrics = {name: (values[name], unit) for name, unit in tracing.UNITS.items()}
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"perfbench: traced wall_s {median_of(complete, 'wall_s'):.4f}; "
              f"spans in {trace_path}", file=sys.stderr)

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
