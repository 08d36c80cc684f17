"""The row-wise parser and writer that ``adinstall.ingest`` replaced, kept as test oracles.

``load_table`` and ``write_table`` below are the original per-row, per-cell
implementations, unchanged. The differential tests assert that the columnar
parser returns an identical ``RawTable``, or raises an identical error, and
that the columnar writer writes identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from adinstall.errors import DataFormatError
from adinstall.ingest import RawTable
from adinstall.schema import FeatureSchema


def load_table(path: str | Path, schema: FeatureSchema) -> RawTable:
    """Parse ``path`` according to ``schema``.

    Empty fields and non-parsable tokens in categorical/numerical columns
    become missing (counted in ``parse_warnings``); binary or label cells
    outside {0, 1} raise :class:`DataFormatError` with line context. Blank
    lines are skipped. Row order is preserved.
    """
    path = Path(path)
    names = schema.names()
    roles = [role for _, role in schema.columns]
    n_cols = len(names)

    cat_idx = [i for i, r in enumerate(roles) if r == "categorical"]
    bin_idx = [i for i, r in enumerate(roles) if r == "binary"]
    num_idx = [i for i, r in enumerate(roles) if r == "numerical"]
    lab_idx = [i for i, r in enumerate(roles) if r == "label"]
    id_idx = [i for i, r in enumerate(roles) if r == "row_id"]

    row_ids: list[str] = []
    cat_rows: list[list[int]] = []
    cat_miss_rows: list[list[bool]] = []
    bin_rows: list[list[int]] = []
    num_rows: list[list[float]] = []
    lab_rows: list[list[int]] = []
    warnings: dict[str, int] = {}

    def warn(column: str) -> None:
        warnings[column] = warnings.get(column, 0) + 1

    with path.open("r", encoding="utf-8") as fh:
        lineno = 0
        header_pending = schema.has_header
        for raw_line in fh:
            lineno += 1
            line = raw_line.rstrip("\r\n")
            if line == "":
                continue
            fields = line.split(schema.delimiter)
            if header_pending:
                header_pending = False
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
                continue
            if len(fields) != n_cols:
                raise DataFormatError(
                    f"row has {len(fields)} fields, schema declares {n_cols}",
                    line=lineno,
                )

            row_ids.append(fields[id_idx[0]].strip() if id_idx else str(len(row_ids)))

            tokens: list[int] = []
            miss: list[bool] = []
            for i in cat_idx:
                cell = fields[i].strip()
                if cell == "":
                    tokens.append(0)
                    miss.append(True)
                    continue
                try:
                    tokens.append(int(cell))
                    miss.append(False)
                except ValueError:
                    tokens.append(0)
                    miss.append(True)
                    warn(names[i])
            cat_rows.append(tokens)
            cat_miss_rows.append(miss)

            brow: list[int] = []
            for i in bin_idx:
                cell = fields[i].strip()
                if cell not in ("0", "1"):
                    raise DataFormatError(
                        f"binary cell {cell!r} is not 0 or 1", line=lineno, column=names[i]
                    )
                brow.append(int(cell))
            bin_rows.append(brow)

            nrow: list[float] = []
            for i in num_idx:
                cell = fields[i].strip()
                if cell == "":
                    nrow.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = np.nan
                # inf/nan literals parse but carry no usable magnitude
                if not np.isfinite(value):
                    value = np.nan
                    warn(names[i])
                nrow.append(value)
            num_rows.append(nrow)

            lrow: list[int] = []
            for i in lab_idx:
                cell = fields[i].strip()
                if cell not in ("0", "1"):
                    raise DataFormatError(
                        f"label cell {cell!r} is not 0 or 1", line=lineno, column=names[i]
                    )
                lrow.append(int(cell))
            lab_rows.append(lrow)

    n = len(row_ids)
    return RawTable(
        schema=schema,
        n_rows=n,
        row_ids=tuple(row_ids),
        cat_names=tuple(names[i] for i in cat_idx),
        cat_tokens=np.array(cat_rows, dtype=np.int64).reshape(n, len(cat_idx)),
        cat_missing=np.array(cat_miss_rows, dtype=bool).reshape(n, len(cat_idx)),
        bin_names=tuple(names[i] for i in bin_idx),
        binary=np.array(bin_rows, dtype=np.int8).reshape(n, len(bin_idx)),
        num_names=tuple(names[i] for i in num_idx),
        numeric=np.array(num_rows, dtype=np.float64).reshape(n, len(num_idx)),
        label_names=tuple(names[i] for i in lab_idx),
        labels=np.array(lab_rows, dtype=np.int8).reshape(n, len(lab_idx)),
        parse_warnings=warnings,
    )


def write_table(table: RawTable, path: str | Path) -> None:
    """Serialize back to the delimited format of ``table.schema``.

    Missing cells become empty fields; floats use shortest round-trip
    formatting, so reloading reproduces every parsed value bit-exactly.
    Cells of ``ignore`` columns were not retained and are written empty.
    """
    schema = table.schema
    delim = schema.delimiter
    lines: list[str] = []
    if schema.has_header:
        lines.append(delim.join(schema.names()))

    cat_pos = {n: j for j, n in enumerate(table.cat_names)}
    bin_pos = {n: j for j, n in enumerate(table.bin_names)}
    num_pos = {n: j for j, n in enumerate(table.num_names)}
    lab_pos = {n: j for j, n in enumerate(table.label_names)}

    for i in range(table.n_rows):
        fields: list[str] = []
        for name, role in schema.columns:
            if role == "row_id":
                fields.append(table.row_ids[i])
            elif role == "ignore":
                fields.append("")
            elif role == "categorical":
                j = cat_pos[name]
                fields.append("" if table.cat_missing[i, j] else str(int(table.cat_tokens[i, j])))
            elif role == "binary":
                fields.append(str(int(table.binary[i, bin_pos[name]])))
            elif role == "numerical":
                v = table.numeric[i, num_pos[name]]
                fields.append("" if np.isnan(v) else repr(float(v)))
            else:
                fields.append(str(int(table.labels[i, lab_pos[name]])))
        lines.append(delim.join(fields))
    Path(path).write_text("\n".join(lines) + "\n")
