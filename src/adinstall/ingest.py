"""Load delimited tabular files into typed, immutable column blocks.

Missing cells are tracked per cell (mask for categorical tokens, NaN for
numerical values); no in-band magic number is used, so 0 stays a legal
value everywhere. Binary and label cells must be exactly 0 or 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import DataFormatError, SchemaError
from .schema import FEATURE_ROLES, FeatureSchema


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RawTable:
    """Parsed table: per-role column blocks sharing one row order.

    Arrays are write-protected after construction; a RawTable is safe to
    share read-only. ``ignore`` columns are parsed for field-count checks
    but their cells are not retained.
    """

    schema: FeatureSchema
    n_rows: int
    row_ids: tuple[str, ...]
    cat_names: tuple[str, ...]
    cat_tokens: np.ndarray  # (n_rows, n_cat) int64, value undefined where missing
    cat_missing: np.ndarray  # (n_rows, n_cat) bool
    bin_names: tuple[str, ...]
    binary: np.ndarray  # (n_rows, n_bin) int8
    num_names: tuple[str, ...]
    numeric: np.ndarray  # (n_rows, n_num) float64, NaN where missing
    label_names: tuple[str, ...]
    labels: np.ndarray  # (n_rows, n_labels) int8
    parse_warnings: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.cat_tokens, self.cat_missing, self.binary, self.numeric, self.labels):
            _frozen(arr)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.cat_names + self.bin_names + self.num_names

    def cat_column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        j = self.cat_names.index(name)
        return self.cat_tokens[:, j], self.cat_missing[:, j]

    def num_column(self, name: str) -> np.ndarray:
        return self.numeric[:, self.num_names.index(name)]

    def bin_column(self, name: str) -> np.ndarray:
        return self.binary[:, self.bin_names.index(name)]

    def label_column(self, name: str) -> np.ndarray:
        return self.labels[:, self.label_names.index(name)]


# Files are read in chunks of about this many characters, and written in
# chunks of this many rows, so the transient memory of parsing and formatting
# scales with the chunk, not with the file. Writing 1,024 rows at a time is as
# fast as 16,384, and in a process that goes on to train (perfbench runs synth
# and train in one process) it leaves less freed heap unreturned, which showed
# in the peak RSS of the training.
CHUNK_CHARS = 1 << 20
CHUNK_ROWS = 1 << 10

_BITS = frozenset(("0", "1"))


def read_line_chunks(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    r"""``(number of the chunk's first line, its lines)`` for each chunk of ``path``.

    Lines end at ``\n``, ``\r\n`` or ``\r`` and are returned without their
    ending; blank lines are kept, so line numbers can be recovered.
    """
    lineno = 1
    with Path(path).open("r", encoding="utf-8") as fh:
        while lines := fh.readlines(CHUNK_CHARS):
            yield lineno, "".join(lines).split("\n")[: len(lines)]
            lineno += len(lines)


def split_columns(rows: list[str], delim: str, n_cols: int) -> tuple[list[list[str]], int | None]:
    """Cells of ``rows`` column by column, and the index of the first row without ``n_cols`` fields.

    Only the rows before that first faulty row are split; the index is None
    when every row fits.
    """
    counts = list(map(str.count, rows, repeat(delim)))
    bad = None
    if counts.count(n_cols - 1) != len(counts):
        bad = next(i for i, c in enumerate(counts) if c != n_cols - 1)
        rows = rows[:bad]
    if not rows:
        return [[] for _ in range(n_cols)], bad
    flat = delim.join(rows).split(delim)
    return [flat[j::n_cols] for j in range(n_cols)], bad


def _convert(cells: list[str], parse, dtype) -> tuple[np.ndarray, np.ndarray, int]:
    """``(present mask, parsed values of the present cells, unparsable count)``.

    A cell that is empty after stripping is missing; one that ``parse``
    rejects is missing and counted. The fast path converts the whole column;
    only a column it cannot convert is re-scanned cell by cell.
    """
    present = np.fromiter(map(bool, cells), bool, len(cells))
    try:
        return present, np.fromiter(map(parse, filter(None, cells)), dtype), 0
    except ValueError:
        pass
    flags, values, unparsable = [], [], 0
    for cell in map(str.strip, cells):
        ok = bool(cell)
        if ok:
            try:
                values.append(parse(cell))
            except ValueError:
                ok = False
                unparsable += 1
        flags.append(ok)
    return np.array(flags, dtype=bool), np.array(values, dtype=dtype), unparsable


def _bits(cells: list[str]) -> tuple[np.ndarray | None, int | None]:
    """Cells as int8 0/1, or None and the index of the first cell not 0 or 1 once stripped."""
    if not _BITS.issuperset(cells):
        cells = list(map(str.strip, cells))
        if not _BITS.issuperset(cells):
            return None, next(i for i, c in enumerate(cells) if c not in _BITS)
    return np.frombuffer("".join(cells).encode("ascii"), np.int8) - 48, None


def _line_of(first_line: int, lines: list[str], index: int) -> int:
    """File line of the ``index``-th non-blank line of a chunk."""
    return [first_line + k for k, line in enumerate(lines) if line][index]


def raise_first(errors: list[tuple[int, int, str, str | None]], first_line: int,
                lines: list[str], skipped: int = 0) -> None:
    """Raise the error of the earliest faulty row of a chunk, if any.

    Each error is ``(row, check order, message, column)``, where ``row``
    counts the chunk's non-blank lines after the first ``skipped`` and the
    check order breaks ties within a row.
    """
    if errors:
        row, _, message, column = min(errors, key=lambda e: e[:2])
        line = _line_of(first_line, lines, skipped + row)
        raise DataFormatError(message, line=line, column=column)


def _block(columns: list[np.ndarray], n: int, dtype) -> np.ndarray:
    out = np.empty((n, len(columns)), dtype=dtype)
    for j, col in enumerate(columns):
        out[:, j] = col
    return out


def _stacked(blocks: list[np.ndarray], width: int, dtype) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.empty((0, width), dtype=dtype)


def load_table(path: str | Path, schema: FeatureSchema) -> RawTable:
    """Parse ``path`` according to ``schema``.

    Empty fields and non-parsable tokens in categorical/numerical columns
    become missing (counted in ``parse_warnings``); binary or label cells
    outside {0, 1} raise :class:`DataFormatError` with line context. Blank
    lines are skipped. Row order is preserved.

    The file is read in chunks of lines and each chunk is converted column
    by column. The first faulty row is located, with its file line, only
    when a chunk holds an error.
    """
    names = schema.names()
    roles = [role for _, role in schema.columns]
    n_cols = len(names)
    delim = schema.delimiter

    cat_idx = [i for i, r in enumerate(roles) if r == "categorical"]
    bin_idx = [i for i, r in enumerate(roles) if r == "binary"]
    num_idx = [i for i, r in enumerate(roles) if r == "numerical"]
    lab_idx = [i for i, r in enumerate(roles) if r == "label"]
    id_idx = [i for i, r in enumerate(roles) if r == "row_id"]
    # binary cells are checked before label cells, each in file order
    bit_checks = [(i, "binary") for i in bin_idx] + [(i, "label") for i in lab_idx]

    row_ids: list[str] = []
    cat_blocks: list[np.ndarray] = []
    miss_blocks: list[np.ndarray] = []
    bin_blocks: list[np.ndarray] = []
    num_blocks: list[np.ndarray] = []
    lab_blocks: list[np.ndarray] = []
    warnings: dict[str, int] = {}

    def warn(column: str, count: int) -> None:
        if count:
            warnings[column] = warnings.get(column, 0) + count

    overflow: OverflowError | None = None
    header_pending = schema.has_header
    for first_line, lines in read_line_chunks(path):
        rows = list(filter(None, lines))
        header_rows = 0
        if header_pending and rows:
            header_pending = False
            header_rows = 1
            lineno = _line_of(first_line, lines, 0)
            fields = rows[0].split(delim)
            if len(fields) != n_cols:
                raise DataFormatError(
                    f"header has {len(fields)} fields, schema declares {n_cols}",
                    line=lineno,
                )
            got = tuple(f.strip() for f in fields)
            if got != names:
                raise DataFormatError(
                    f"header names {got} do not match schema columns {names}",
                    line=lineno,
                )
            rows = rows[1:]

        cols, bad_count = split_columns(rows, delim, n_cols)
        n = len(cols[0])
        errors: list[tuple[int, int, str, str | None]] = []
        if bad_count is not None:
            errors.append((bad_count, -1, f"row has {rows[bad_count].count(delim) + 1} fields, "
                           f"schema declares {n_cols}", None))

        bits: dict[int, np.ndarray] = {}
        for order, (i, kind) in enumerate(bit_checks):
            values, bad = _bits(cols[i])
            if bad is None:
                bits[i] = values
            else:
                cell = cols[i][bad].strip()
                errors.append((bad, order, f"{kind} cell {cell!r} is not 0 or 1", names[i]))
        raise_first(errors, first_line, lines, header_rows)

        row_ids.extend(map(str.strip, cols[id_idx[0]]) if id_idx
                       else map(str, range(len(row_ids), len(row_ids) + n)))

        tokens, missing = [], []
        for i in cat_idx:
            try:
                present, values, unparsable = _convert(cols[i], int, np.int64)
            except OverflowError as exc:
                # a token beyond int64; the row-wise parser failed on it only
                # after reading every row, so a later format error comes first
                overflow = overflow or exc
                present, values, unparsable = np.zeros(n, dtype=bool), [], 0
            col = np.zeros(n, dtype=np.int64)
            col[present] = values
            tokens.append(col)
            missing.append(~present)
            warn(names[i], unparsable)
        cat_blocks.append(_block(tokens, n, np.int64))
        miss_blocks.append(_block(missing, n, bool))

        numeric = []
        for i in num_idx:
            present, values, unparsable = _convert(cols[i], float, np.float64)
            # inf/nan literals parse but carry no usable magnitude
            nonfinite = ~np.isfinite(values)
            values[nonfinite] = np.nan
            col = np.full(n, np.nan)
            col[present] = values
            numeric.append(col)
            warn(names[i], unparsable + int(nonfinite.sum()))
        num_blocks.append(_block(numeric, n, np.float64))

        bin_blocks.append(_block([bits[i] for i in bin_idx], n, np.int8))
        lab_blocks.append(_block([bits[i] for i in lab_idx], n, np.int8))

    if overflow is not None:
        raise overflow
    return RawTable(
        schema=schema,
        n_rows=len(row_ids),
        row_ids=tuple(row_ids),
        cat_names=tuple(names[i] for i in cat_idx),
        cat_tokens=_stacked(cat_blocks, len(cat_idx), np.int64),
        cat_missing=_stacked(miss_blocks, len(cat_idx), bool),
        bin_names=tuple(names[i] for i in bin_idx),
        binary=_stacked(bin_blocks, len(bin_idx), np.int8),
        num_names=tuple(names[i] for i in num_idx),
        numeric=_stacked(num_blocks, len(num_idx), np.float64),
        label_names=tuple(names[i] for i in lab_idx),
        labels=_stacked(lab_blocks, len(lab_idx), np.int8),
        parse_warnings=warnings,
    )


def detect_constant_features(table: RawTable) -> list[str]:
    """Feature columns whose non-missing cells hold at most one distinct value.

    All-missing columns are included; they carry no information either.
    """
    if table.n_rows == 0:
        raise DataFormatError("cannot analyze an empty table")
    constant: list[str] = []
    for name in table.schema.names():
        role = table.schema.role_of(name)
        if role not in FEATURE_ROLES:
            continue
        if role == "categorical":
            tokens, missing = table.cat_column(name)
            observed = tokens[~missing]
        elif role == "binary":
            observed = table.bin_column(name)
        else:
            col = table.num_column(name)
            observed = col[~np.isnan(col)]
        if np.unique(observed).size <= 1:
            constant.append(name)
    return constant


def drop_columns(
    table: RawTable, names: list[str] | tuple[str, ...], *, missing_ok: bool = False
) -> RawTable:
    """Table without the given feature columns.

    Only categorical/binary/numerical columns can be dropped; label, row_id,
    and ignore columns raise. With ``missing_ok`` names already absent are
    skipped, which makes repeated drops of the same list a no-op.
    """
    present = set(table.schema.names())
    todo = []
    for name in names:
        if name not in present:
            if missing_ok:
                continue
            raise SchemaError(f"cannot drop unknown column {name!r}")
        if table.schema.role_of(name) not in FEATURE_ROLES:
            raise SchemaError(
                f"cannot drop column {name!r} with role {table.schema.role_of(name)!r}"
            )
        todo.append(name)
    if not todo:
        return table

    todo_set = set(todo)
    cat_keep = [j for j, n in enumerate(table.cat_names) if n not in todo_set]
    bin_keep = [j for j, n in enumerate(table.bin_names) if n not in todo_set]
    num_keep = [j for j, n in enumerate(table.num_names) if n not in todo_set]
    return RawTable(
        schema=table.schema.drop(todo),
        n_rows=table.n_rows,
        row_ids=table.row_ids,
        cat_names=tuple(table.cat_names[j] for j in cat_keep),
        cat_tokens=table.cat_tokens[:, cat_keep].copy(),
        cat_missing=table.cat_missing[:, cat_keep].copy(),
        bin_names=tuple(table.bin_names[j] for j in bin_keep),
        binary=table.binary[:, bin_keep].copy(),
        num_names=tuple(table.num_names[j] for j in num_keep),
        numeric=table.numeric[:, num_keep].copy(),
        label_names=table.label_names,
        labels=table.labels,
        parse_warnings=dict(table.parse_warnings),
    )


def write_table(table: RawTable, path: str | Path) -> None:
    """Serialize back to the delimited format of ``table.schema``.

    Missing cells become empty fields; floats use shortest round-trip
    formatting, so reloading reproduces every parsed value bit-exactly.
    Cells of ``ignore`` columns were not retained and are written empty.
    Cells are formatted column by column, a chunk of rows at a time, and the
    file is written atomically.
    """
    schema = table.schema

    def cells(values: np.ndarray, fmt, blank: np.ndarray | None = None) -> list[str]:
        out = list(map(fmt, values.tolist()))
        if blank is not None:
            for i in np.flatnonzero(blank).tolist():
                out[i] = ""
        return out

    def columns(rows: slice) -> list:
        out: list = []
        for name, role in schema.columns:
            if role == "row_id":
                out.append(table.row_ids[rows])
            elif role == "ignore":
                out.append(repeat(""))
            elif role == "categorical":
                tokens, missing = table.cat_column(name)
                out.append(cells(tokens[rows], str, missing[rows]))
            elif role == "binary":
                out.append(cells(table.bin_column(name)[rows], str))
            elif role == "numerical":
                values = table.num_column(name)[rows]
                out.append(cells(values, repr, np.isnan(values)))
            else:
                out.append(cells(table.label_column(name)[rows], str))
        return out

    header = schema.names() if schema.has_header else None
    write_delimited(path, header, map(columns, row_chunks(table.n_rows)), schema.delimiter)


def row_chunks(n_rows: int) -> Iterator[slice]:
    """Slices of ``CHUNK_ROWS`` rows covering ``n_rows`` rows, for writing."""
    return (slice(lo, lo + CHUNK_ROWS) for lo in range(0, n_rows, CHUNK_ROWS))


def write_delimited(path: str | Path, header, chunks: Iterable[list], delim: str) -> None:
    """Write an optional header line, then rows given chunk by chunk as columns of cell strings.

    A column may be an unbounded iterable (``itertools.repeat``) as long as
    another column of the chunk is finite. The file is written atomically.
    """
    batches = (list(map(delim.join, zip(*columns))) for columns in chunks)
    if header is not None:
        batches = chain([[delim.join(header)]], batches)
    with atomic_write(path) as fh:
        empty = True
        for lines in batches:
            if lines:
                fh.write("\n".join(lines) + "\n")
                empty = False
        if empty:
            fh.write("\n")  # a file of no lines has always been written as one newline
