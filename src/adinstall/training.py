"""Training protocol: seeded 3:1 split, early stopping on validation loss
with best-weights restore, and full-data retraining at the chosen epoch
count.

All randomness (split, initialization, per-epoch batch order) derives from
declared seeds, so a run is reproducible bit for bit on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradientError, PipelineMismatchError
from .metrics import log_loss
from .network import (
    NetworkConfig,
    NetworkParams,
    backward,
    forward,
    init_network,
    project_tables,
)
from .optim import OptimizerState, optimizer_step
from .prep import PreparedDataset

# bytes a scoring batch may take: its dense block (both branch outputs), one
# embedding row per batch row (a table's looked-up rows, which are never more
# than the batch's), and three arrays as wide as the widest layer: the first
# layer's pre-activation, the buffer a table's projected rows are gathered
# into and those projected rows, or later a layer's input beside its output.
# The rows per batch follow from the model's widths and dtype. The tables
# projected once per call take at most as many bytes again.
EVAL_BATCH_BYTES = 32 << 20
# scoring batches are a multiple of this many rows, and never fewer
EVAL_ROW_ALIGN = 64


@dataclass(frozen=True)
class TrainConfig:
    val_fraction: float = 0.25
    max_epochs: int = 50
    patience: int = 3
    monitor_head: str = "is_installed"
    monitor_mode: str = "single"  # "single" or "per_head"
    seed: int = 0
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 4096

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie strictly between 0 and 1")
        if self.max_epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ValueError("max_epochs, patience, and batch_size must be >= 1")
        if self.monitor_mode not in ("single", "per_head"):
            raise ValueError(f"unknown monitor_mode {self.monitor_mode!r}")


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    train_loss: dict[str, float]
    val_loss: dict[str, float]
    is_best: bool = False


@dataclass
class TrainingHistory:
    """Per-epoch losses plus the bookkeeping early stopping relied on."""

    heads: tuple[str, ...]
    monitor_head: str
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    per_head_best: dict[str, int] = field(default_factory=dict)
    diverged: bool = False
    diagnostic: str = ""

    def monitored(self, epoch: int) -> float:
        return self.epochs[epoch - 1].val_loss[self.monitor_head]

    def best_val_loss(self) -> float:
        return self.monitored(self.best_epoch)

    # -- exports (wall times stay out of both files so artifacts are
    #    byte-identical across reruns) --------------------------------------

    def record_lines(self) -> list[str]:
        cols = ["epoch"]
        cols += [f"train_loss.{h}" for h in self.heads]
        cols += [f"val_loss.{h}" for h in self.heads]
        cols.append("best")
        lines = ["\t".join(cols)]
        for rec in self.epochs:
            row = [str(rec.epoch)]
            row += [repr(rec.train_loss[h]) for h in self.heads]
            row += [repr(rec.val_loss[h]) for h in self.heads]
            row.append("1" if rec.is_best else "0")
            lines.append("\t".join(row))
        return lines

    def render_table(self) -> str:
        headers = ["epoch"]
        headers += [f"train {h}" for h in self.heads]
        headers += [f"val {h}" for h in self.heads]
        headers.append("best")
        rows = []
        for rec in self.epochs:
            row = [str(rec.epoch)]
            row += [f"{rec.train_loss[h]:.6f}" for h in self.heads]
            row += [f"{rec.val_loss[h]:.6f}" for h in self.heads]
            row.append("*" if rec.is_best else "")
            rows.append(row)
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        fmt = "  ".join(f"{{:>{w}}}" for w in widths)
        out = [fmt.format(*headers)]
        out += [fmt.format(*r) for r in rows]
        return "\n".join(out)


@dataclass(eq=False)
class EarlyStopMonitor:
    """Tracks the minimum of one monitored loss and the stop decision.

    ``observe`` returns True once ``patience`` consecutive epochs failed to
    produce a new strict minimum. In training a monitor also owns a set of
    parameter blocks: ``best_blocks`` holds their values at the best epoch so
    far, and ``stopped`` is set once its patience has run out.
    """

    patience: int
    best_blocks: dict[str, np.ndarray] = field(default_factory=dict)
    best_loss: float = np.inf
    best_epoch: int = 0
    wait: int = 0
    stopped: bool = False

    def observe(self, epoch: int, loss: float) -> bool:
        if loss < self.best_loss:
            self.best_loss = loss
            self.best_epoch = epoch
            self.wait = 0
            return False
        self.wait += 1
        return self.wait >= self.patience

    def save(self, params: NetworkParams) -> None:
        for name, saved in self.best_blocks.items():
            saved[...] = params.blocks[name]

    def restore(self, params: NetworkParams) -> None:
        for name, saved in self.best_blocks.items():
            params.blocks[name][...] = saved


def split_train_val(
    dataset: PreparedDataset, seed: int, val_fraction: float = 0.25
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform split into the sorted row indices of the training and
    the validation rows; validation gets round(n * fraction) rows."""
    if dataset.labels is None:
        raise PipelineMismatchError("cannot split an unlabeled dataset")
    n = dataset.n_rows
    if n < 4:
        raise ValueError("need at least 4 rows to split")
    n_val = int(round(n * val_fraction))
    n_val = max(1, min(n - 1, n_val))
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def eval_batch_rows(config: NetworkConfig) -> int:
    """Rows per scoring batch under ``EVAL_BATCH_BYTES``: a multiple of
    ``EVAL_ROW_ALIGN``, and at least that many."""
    dense = config.binary_width + config.numerical_width
    widest = max(config.trunk, default=1)
    table = max(config.embedding_widths, default=0)
    row_bytes = config.np_dtype.itemsize * (dense + table + 3 * widest)
    return max(1, EVAL_BATCH_BYTES // row_bytes // EVAL_ROW_ALIGN) * EVAL_ROW_ALIGN


def predict(params: NetworkParams, dataset: PreparedDataset) -> np.ndarray:
    """Pure forward pass in row order; shape (n_rows, n_heads).

    Each table's distinct codes are found once, and as many tables as fit in
    ``EVAL_BATCH_BYTES``, smallest first, go through the first layer once;
    the rest are projected per batch. Rows are scored in contiguous batches
    of ``eval_batch_rows`` rows, so the working memory does not grow with
    the dataset. A last batch shorter than ``EVAL_ROW_ALIGN`` rows joins the
    one before it: a BLAS build can round a row differently when the matrix
    has only a few rows.
    """
    n = dataset.n_rows
    starts = list(range(0, n, eval_batch_rows(params.config)))
    if len(starts) > 1 and n - starts[-1] < EVAL_ROW_ALIGN:
        starts.pop()
    tables = project_tables(params, dataset, EVAL_BATCH_BYTES)
    probs = np.empty((n, len(params.config.heads)))
    for start, stop in zip(starts, starts[1:] + [n]):
        probs[start:stop] = forward(params, dataset.take(slice(start, stop)), tables)
    return probs


def _eval_losses(
    params: NetworkParams, dataset: PreparedDataset, labels: np.ndarray, *row_sets: np.ndarray
) -> list[dict[str, float]]:
    """Each row set's loss per head, from one scoring pass over ``dataset``."""
    probs = predict(params, dataset)
    heads = params.config.heads
    return [{h: log_loss(labels[rows, k], probs[rows, k]) for k, h in enumerate(heads)}
            for rows in row_sets]


def _fit(
    params: NetworkParams,
    dataset: PreparedDataset,
    rows: np.ndarray,
    train_config: TrainConfig,
    max_epochs: int,
    val_rows: np.ndarray | None = None,
    monitors: dict[str, EarlyStopMonitor] | None = None,
) -> TrainingHistory:
    """The epoch loop of both entry points; trains ``params`` in place on the
    rows of ``dataset`` at the index array ``rows``.

    Batch order is reshuffled every epoch from the training seed, and each
    batch is taken from ``dataset`` at its indices, so no other subset of the
    dataset is ever copied. Without ``monitors`` the loop runs ``max_epochs``
    epochs and evaluates nothing. Otherwise, after each epoch the whole
    dataset is scored once, the train and validation losses are read from
    that pass at ``rows`` and ``val_rows``, and each running monitor observes
    its head's validation loss: a new minimum saves the monitor's blocks; a
    monitor whose patience runs out restores them and freezes its head. The
    loop ends when every monitor has stopped, at ``max_epochs``, or on a
    non-finite gradient or loss (``history.diverged``); every monitor still
    running then restores its blocks.
    """
    heads = params.config.heads
    monitors = monitors or {}
    labels = dataset.label_matrix(heads)
    opt = OptimizerState.create(train_config.optimizer, train_config.learning_rate, params)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 1]))
    history = TrainingHistory(heads=heads, monitor_head=train_config.monitor_head)

    for epoch in range(1, max_epochs + 1):
        frozen = frozenset(h for h, m in monitors.items() if m.stopped)
        order = shuffle_rng.permutation(rows.size)
        try:
            for start in range(0, rows.size, train_config.batch_size):
                idx = rows[order[start : start + train_config.batch_size]]
                grads = backward(params, dataset.take(idx), labels[idx], frozen_heads=frozen)
                optimizer_step(opt, params, grads)
                del grads  # not alive through the next backward
        except NonFiniteGradientError as exc:
            history.diverged = True
            history.diagnostic = f"epoch {epoch}: {exc}"
            break
        history.stopped_epoch = epoch
        if not monitors:
            continue

        train_loss, val_loss = _eval_losses(params, dataset, labels, rows, val_rows)
        record = EpochRecord(epoch, train_loss, val_loss)
        history.epochs.append(record)
        if not np.all(np.isfinite([*train_loss.values(), *val_loss.values()])):
            history.diverged = True
            history.diagnostic = f"epoch {epoch}: non-finite loss {val_loss}"
            break

        for head, monitor in monitors.items():
            if monitor.stopped:
                continue
            monitor.stopped = monitor.observe(epoch, val_loss[head])
            if monitor.wait == 0:
                monitor.save(params)
                record.is_best = record.is_best or head == train_config.monitor_head
            elif monitor.stopped:
                monitor.restore(params)
        if all(m.stopped for m in monitors.values()):
            break

    for monitor in monitors.values():
        if not monitor.stopped:
            monitor.restore(params)
    return history


def _owned_blocks(params: NetworkParams, head: str) -> list[str]:
    """Blocks a per-head monitor owns: its output unit, and its trunk copy
    when trunks are duplicated."""
    prefixes = [f"head.{head}."]
    if params.config.trunk_sharing == "duplicated":
        prefixes.append(f"trunk.{head}.")
    return [name for name in params.blocks if name.startswith(tuple(prefixes))]


def train_with_early_stopping(
    dataset: PreparedDataset,
    net_config: NetworkConfig,
    train_config: TrainConfig,
) -> tuple[NetworkParams, TrainingHistory]:
    """Split, train with early stopping, return the best-epoch snapshot.

    In ``single`` mode one monitor watches the monitor head's validation loss
    and owns every block, so the returned parameters are those of its best
    epoch. In ``per_head`` mode each head has its own monitor, owning the
    head's output unit (and its trunk copy when trunks are duplicated); a
    head whose patience runs out is frozen at its best snapshot while the
    rest keeps training, and the loop ends when every head has stopped.

    A non-finite loss or gradient aborts the loop; the best snapshot seen so
    far is returned with ``history.diverged`` set and a diagnostic message.
    ``best_epoch`` stays 0 only when no epoch produced a finite monitored
    loss; the caller then receives the initial weights.
    """
    if train_config.monitor_head not in net_config.heads:
        raise ValueError(
            f"monitor head {train_config.monitor_head!r} not among heads {net_config.heads}"
        )
    rows, val_rows = split_train_val(dataset, train_config.seed, train_config.val_fraction)
    params = init_network(net_config)
    per_head = train_config.monitor_mode == "per_head"
    owners = (
        {h: _owned_blocks(params, h) for h in net_config.heads}
        if per_head
        else {train_config.monitor_head: list(params.blocks)}
    )
    monitors = {
        h: EarlyStopMonitor(train_config.patience, {n: params.blocks[n].copy() for n in names})
        for h, names in owners.items()
    }
    history = _fit(params, dataset, rows, train_config, train_config.max_epochs, val_rows,
                   monitors)
    history.best_epoch = monitors[train_config.monitor_head].best_epoch
    if per_head:
        history.per_head_best = {h: m.best_epoch for h, m in monitors.items()}
    return params, history


def retrain_full(
    dataset: PreparedDataset,
    net_config: NetworkConfig,
    train_config: TrainConfig,
    epoch_count: int,
) -> tuple[NetworkParams, TrainingHistory]:
    """Train on 100% of the labeled data for exactly ``epoch_count`` epochs.

    No validation, no stopping, and no per-epoch evaluation: the history
    holds no epoch records, only ``stopped_epoch`` and the divergence flag.
    Initialization and batch order are seeded exactly like the early-stopped
    run.
    """
    if epoch_count < 1:
        raise ValueError("epoch_count must be >= 1")
    params = init_network(net_config)
    return params, _fit(params, dataset, np.arange(dataset.n_rows), train_config, epoch_count)
