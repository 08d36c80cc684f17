"""Span tracer for the benchmark's traced run, and the per-layer metrics it gives.

The tracer wraps public functions of adinstall where the calling module
looks them up (``adinstall.training.backward``, ``adinstall.cli.load_table``
and so on), so the program itself is unchanged. Spans stay in memory as
``[name, start, end, parent, phase]`` and are written out once at the end.
A layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# every per-layer metric, with its unit, in the order the traced run reports them
UNITS = {
    "ingest.load_table_s": "s",
    "ingest.rows_per_s": "1/s",
    "ingest.write_table_s": "s",
    "synth.generate_s": "s",
    "prep.fit_pipeline_s": "s",
    "prep.imputer_passes": "count",
    "prep.load_pipeline_s": "s",
    "prep.transform_s": "s",
    "prep.take_s": "s",
    "prep.take_calls": "count",
    "network.backward_s": "s",
    "network.backward_calls": "count",
    "network.backward_gflop_per_s": "GFLOP/s",
    "network.forward_s": "s",
    "network.emb_rows_touched_frac": "ratio",
    "optim.step_s": "s",
    "optim.step_calls": "count",
    "training.eval_s": "s",
    "training.epochs_run": "count",
    "metrics.report_s": "s",
    "cli.submission_write_s": "s",
    "cli.read_predictions_s": "s",
    "network.save_params_s": "s",
    "network.load_params_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = ""
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, name)] += value

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` inside a span; ``before``/``after`` run outside it, for counting."""

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.phase])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name in ``phase``: total seconds, self seconds and calls."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for idx, (name, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
            entry["calls"] += 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans_fields": ["name", "start", "end", "parent", "phase"],
            "spans": self.spans,
            "counts": [[phase, name, value] for (phase, name), value in self.counts.items()],
        }
        path.write_text(json.dumps(payload) + "\n")


def backward_flop_per_row(config) -> int:
    """Multiply-add FLOPs per row of one ``backward`` call, from the layer shapes.

    ``backward`` runs the forward pass, then a weight-gradient and an
    input-gradient matmul per dense layer (the branch layers need no input
    gradient). Embedding gathers, scatters and elementwise work are not counted.
    """
    branches = config.n_binary * config.binary_width + config.n_numerical * config.numerical_width
    dense = 0
    width = config.concat_width
    for out in config.trunk:
        dense += width * out
        width = out
    dense *= len(config.trunk_groups())
    heads = width * len(config.heads)
    forward = 2 * (branches + dense + heads)
    gradients = 2 * branches + 4 * (dense + heads)
    return forward + gradients


def instrument(tracer: Tracer) -> None:
    """Wrap the adinstall functions each per-layer metric is measured at."""
    from adinstall import cli, prep, training

    def count_rows(table) -> None:
        tracer.count("ingest.rows", table.n_rows)

    def count_backward(params, batch, *args, **kwargs) -> None:
        config = params.config
        tracer.count("network.backward_flop", batch.n_rows * backward_flop_per_row(config))
        for j, n in enumerate(config.vocab_sizes):
            tracer.count("network.emb_rows_touched", np.unique(batch.cat_codes[:, j]).size)
            tracer.count("network.emb_rows", n + 1)

    cli.generate = tracer.wrap(cli.generate, "synth.generate")
    cli.write_table = tracer.wrap(cli.write_table, "ingest.write_table")
    cli.load_table = tracer.wrap(cli.load_table, "ingest.load_table", after=count_rows)
    cli.fit_pipeline = tracer.wrap(cli.fit_pipeline, "prep.fit_pipeline")
    cli.load_pipeline = tracer.wrap(cli.load_pipeline, "prep.load_pipeline")
    prep.PrepPipeline.transform = tracer.wrap(prep.PrepPipeline.transform, "prep.transform")
    prep.PreparedDataset.take = tracer.wrap(prep.PreparedDataset.take, "prep.take")
    training.backward = tracer.wrap(training.backward, "network.backward", before=count_backward)
    training.forward = tracer.wrap(training.forward, "network.forward")
    training.optimizer_step = tracer.wrap(training.optimizer_step, "optim.step")
    # only the two training loops look predict up in the training module;
    # the CLI holds its own reference
    training.predict = tracer.wrap(training.predict, "training.eval")
    cli.report = tracer.wrap(cli.report, "metrics.report")
    cli._read_predictions = tracer.wrap(cli._read_predictions, "cli.read_predictions")
    cli.save_params = tracer.wrap(cli.save_params, "network.save_params")
    cli.load_params = tracer.wrap(cli.load_params, "network.load_params")
    # subcommands are dispatched through this table, not by module attribute
    for command, (fn, help_text) in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = (tracer.wrap(fn, f"cli.{command}"), help_text)


def round_metrics(tracer: Tracer, phase: str) -> dict[str, float]:
    """Per-layer metrics measured in the spans and counts of one round."""
    s = tracer.summary(phase)

    def count(name: str) -> float:
        return tracer.counts.get((phase, name), 0.0)

    load_s = s["ingest.load_table"]["s"]
    backward_s = s["network.backward"]["s"]
    emb_rows = count("network.emb_rows")
    return {
        "ingest.load_table_s": load_s,
        "ingest.rows_per_s": count("ingest.rows") / load_s if load_s else 0.0,
        "prep.fit_pipeline_s": s["prep.fit_pipeline"]["s"],
        "prep.load_pipeline_s": s["prep.load_pipeline"]["s"],
        "prep.transform_s": s["prep.transform"]["s"],
        "prep.take_s": s["prep.take"]["s"],
        "prep.take_calls": s["prep.take"]["calls"],
        "network.backward_s": backward_s,
        "network.backward_calls": s["network.backward"]["calls"],
        "network.backward_gflop_per_s": (
            count("network.backward_flop") / backward_s / 1e9 if backward_s else 0.0
        ),
        "network.forward_s": s["network.forward"]["s"],
        "network.emb_rows_touched_frac": (
            count("network.emb_rows_touched") / emb_rows if emb_rows else 0.0
        ),
        "optim.step_s": s["optim.step"]["s"],
        "optim.step_calls": s["optim.step"]["calls"],
        "training.eval_s": s["training.eval"]["s"],
        "metrics.report_s": s["metrics.report"]["s"],
        "cli.submission_write_s": s["cli.predict"]["self_s"],
        "cli.read_predictions_s": s["cli.read_predictions"]["s"],
        "network.save_params_s": s["network.save_params"]["s"],
        "network.load_params_s": s["network.load_params"]["s"],
    }


def setup_metrics(tracer: Tracer, phases: list[str]) -> dict[str, float]:
    """Input-generation layers, as medians over the set-up repetitions."""
    summaries = [tracer.summary(p) for p in phases]
    return {
        "synth.generate_s": statistics.median(s["synth.generate"]["s"] for s in summaries),
        "ingest.write_table_s": statistics.median(s["ingest.write_table"]["s"] for s in summaries),
    }
