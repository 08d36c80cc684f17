"""Differential tests: the columnar, chunked parser against the row-wise oracle.

Every generated file is parsed by ``adinstall.ingest.load_table`` with a
small chunk size, so files span several chunks and errors can fall in a
later chunk, and by the original row-wise parser kept in
``reference_ingest``. Both must return an identical table or raise an
identical error.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_ingest
from adinstall import ingest
from adinstall.errors import DataFormatError
from adinstall.schema import FeatureSchema

DELIMITERS = ("\t", ",", ";", "|")
# whitespace that str.strip() removes and that is not a line end
PADDING = (" ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000")
ARRAYS = ("cat_tokens", "cat_missing", "binary", "numeric", "labels")
FIELDS = ("schema", "n_rows", "row_ids", "cat_names", "bin_names", "num_names",
          "label_names", "parse_warnings")


def padded(cell: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    pad = st.sampled_from(("",) * 6 + PADDING)
    return st.tuples(pad, cell, pad).map("".join)


INTS = st.integers(-(10**6), 10**6).map(str)
FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
CATEGORICAL = padded(st.one_of(
    INTS, INTS, INTS, st.sampled_from(("", "", " ", "abc", "3.7", "1_000", "+5", "-0")),
))

CELLS = {
    "row_id": padded(st.text("abc0123", min_size=0, max_size=4)),
    "ignore": st.text("xyz 09.", max_size=4),
    # now and then a token beyond int64, a format error of its row in both parsers
    "categorical": st.integers(0, 199).flatmap(
        lambda k: padded(st.sampled_from(("99999999999999999999", "-9223372036854775809")))
        if k == 0 else CATEGORICAL),
    "numerical": padded(st.one_of(
        FLOATS, FLOATS, INTS,
        st.sampled_from(("", "", " ", "inf", "-inf", "nan", "-nan", "Infinity", "1e400",
                         "-1e400", "1e-320", "-0.0", "xyz", "1_0.5", "0x10")),
    )),
    "binary": st.integers(0, 14).flatmap(
        lambda k: padded(st.sampled_from(("0", "1", "2", "", "0.0", "x", "-1"))) if k == 0
        else st.sampled_from(("0", "1"))
    ),
}
CELLS["label"] = CELLS["binary"]


@st.composite
def schemas(draw, min_columns: int = 1) -> FeatureSchema:
    roles = draw(st.lists(st.sampled_from(tuple(CELLS)), min_size=min_columns, max_size=7))
    if not any(r in ("categorical", "binary", "numerical") for r in roles):
        roles.append(draw(st.sampled_from(("categorical", "binary", "numerical"))))
    if roles.count("row_id") > 1:
        first = roles.index("row_id")
        roles = [r for i, r in enumerate(roles) if r != "row_id" or i == first]
    columns = tuple((f"c{i}", r) for i, r in enumerate(roles))
    return FeatureSchema(columns, draw(st.sampled_from(DELIMITERS)), draw(st.booleans()))


@st.composite
def files(draw, valid_only: bool = False) -> tuple[FeatureSchema, str]:
    """A schema and the text of a file for it, with the defects the parser must handle."""
    # a one-column row whose only cell is written empty would reload as a blank line
    schema = draw(schemas(min_columns=2 if valid_only else 1))
    roles = [r for _, r in schema.columns]
    cell = {r: (CELLS[r].filter(lambda c: c.strip() in ("0", "1"))
                if valid_only and r in ("binary", "label") else CELLS[r]) for r in roles}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(cell[r]) for r in roles]
        if not valid_only and draw(st.integers(0, 39)) == 0:
            # a wrong field count: one field too many or too few
            fields = fields + ["1"] if draw(st.booleans()) or len(fields) == 1 else fields[:-1]
        rows.append(schema.delimiter.join(fields))
        if draw(st.integers(0, 7)) == 0:
            rows.append("")  # blank line
    if schema.has_header:
        header = [f" {n}" if draw(st.integers(0, 5)) == 0 else n for n in schema.names()]
        if not valid_only and draw(st.integers(0, 29)) == 0:
            header = header[::-1] if len(header) > 1 else header + ["extra"]
        rows.insert(0, schema.delimiter.join(header))
    if draw(st.booleans()):
        rows.insert(0, "")
    if valid_only:
        # a huge categorical token is an error of its own, outside this test's scope
        rows = [r.replace("99999999999999999999", "9").replace("-9223372036854775809", "-9")
                for r in rows]
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = ending.join(rows) + (ending if draw(st.booleans()) else "")
    return schema, text


def parse_outcome(parse, path: Path, schema: FeatureSchema):
    try:
        return "table", parse(path, schema)
    except DataFormatError as exc:
        return "error", exc


def assert_tables_identical(a, b) -> None:
    for name in FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name  # bit-exact, NaN payloads included


def assert_same_outcome(path: Path, schema: FeatureSchema, chunk_chars: int) -> None:
    with mock.patch.object(ingest, "CHUNK_CHARS", chunk_chars):
        kind, got = parse_outcome(ingest.load_table, path, schema)
    ref_kind, want = parse_outcome(reference_ingest.load_table, path, schema)
    assert kind == ref_kind, (got, want)
    if kind == "error":
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert getattr(got, "line", None) == getattr(want, "line", None)
        assert getattr(got, "column", None) == getattr(want, "column", None)
    else:
        assert_tables_identical(got, want)


CHUNKS = st.sampled_from((1, 5, 17, 60, 1 << 20))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=files(), chunk_chars=CHUNKS)
def test_columnar_parser_matches_row_wise_oracle(case, chunk_chars):
    schema, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(path, schema, chunk_chars)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=files(valid_only=True), chunk_chars=CHUNKS,
       chunk_rows=st.sampled_from((1, 4, 1 << 10)))
def test_write_table_matches_oracle_and_round_trips_bit_exact(case, chunk_chars, chunk_rows):
    schema, text = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.txt").write_bytes(text.encode("utf-8"))
        with mock.patch.object(ingest, "CHUNK_CHARS", chunk_chars), \
                mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            table = ingest.load_table(tmp / "data.txt", schema)
            ingest.write_table(table, tmp / "ours.txt")
            reference_ingest.write_table(table, tmp / "reference.txt")
            assert (tmp / "ours.txt").read_bytes() == (tmp / "reference.txt").read_bytes()
            again = ingest.load_table(tmp / "ours.txt", schema)
        # non-finite and unparsable cells were written empty, so they reload silently
        assert again.parse_warnings == {}
        for name in FIELDS[:-1]:
            assert getattr(again, name) == getattr(table, name), name
        for name in ARRAYS:
            assert getattr(again, name).tobytes() == getattr(table, name).tobytes(), name


SCHEMA = FeatureSchema((("id", "row_id"), ("c", "categorical"), ("b", "binary"),
                        ("x", "numerical"), ("y", "label")))


@pytest.mark.parametrize("bad_row, column, message", [
    ("r9\t3\t2\t1.5\t0", "b", "binary cell '2' is not 0 or 1"),
    ("r9\t3\t1\t1.5\t0.5", "y", "label cell '0.5' is not 0 or 1"),
    ("r9\t3\t1\t1.5", None, "row has 4 fields, schema declares 5"),
    ("r9\t18446744073709551615\t1\t1.5\t0", "c",
     "categorical token '18446744073709551615' does not fit in 64 bits"),
    # in one row a categorical token is checked before a binary cell
    ("r9\t-9223372036854775809\t2\t1.5\t0", "c",
     "categorical token '-9223372036854775809' does not fit in 64 bits"),
])
def test_error_in_a_later_chunk_names_its_file_line(tmp_path, monkeypatch, bad_row, column,
                                                    message):
    rows = [f"r{i}\t{i}\t{i % 2}\t{i / 3}\t1" for i in range(40)]
    rows.insert(30, "")
    rows.insert(33, bad_row)
    path = tmp_path / "data.tsv"
    path.write_text("id\tc\tb\tx\ty\n" + "\n".join(rows) + "\n")
    monkeypatch.setattr(ingest, "CHUNK_CHARS", 64)
    with pytest.raises(DataFormatError) as exc:
        ingest.load_table(path, SCHEMA)
    assert exc.value.line == 35  # header, 30 rows, a blank line, 2 rows, then the bad row
    assert exc.value.column == column
    assert str(exc.value).startswith(message)
    assert_same_outcome(path, SCHEMA, 64)


@pytest.mark.parametrize("chunk_chars", [1, 5, 1 << 20])
def test_token_beyond_int64_before_a_separator_character(tmp_path, chunk_chars):
    # int() rejects "\x1c", which str.strip removes: found by the differential test above
    path = tmp_path / "data.txt"
    path.write_bytes("\t99999999999999999999\x1c\n".encode("utf-8"))
    schema = FeatureSchema((("c0", "row_id"), ("c1", "categorical")), "\t", False)
    with mock.patch.object(ingest, "CHUNK_CHARS", chunk_chars), \
            pytest.raises(DataFormatError) as exc:
        ingest.load_table(path, schema)
    assert (exc.value.line, exc.value.column) == (1, "c1")
    assert str(exc.value).startswith(
        "categorical token '99999999999999999999' does not fit in 64 bits")
    assert_same_outcome(path, schema, chunk_chars)


def test_chunked_parse_of_a_large_file_matches_oracle(tmp_path, monkeypatch, rng):
    rows = []
    for i in range(3000):
        cat = "" if rng.uniform() < 0.1 else str(rng.integers(0, 500))
        num = rng.choice(["", "inf", "bad", repr(float(rng.normal() * 1e6))],
                         p=[0.1, 0.01, 0.01, 0.88])
        rows.append(f"r{i}\t{cat}\t{rng.integers(0, 2)}\t{num}\t{rng.integers(0, 2)}")
    path = tmp_path / "data.tsv"
    path.write_text("id\tc\tb\tx\ty\n" + "\n".join(rows) + "\n")
    table = ingest.load_table(path, SCHEMA)
    assert table.n_rows == 3000 and set(table.parse_warnings) == {"x"}
    for chunk in (1000, 1 << 20):
        assert_same_outcome(path, SCHEMA, chunk)


def test_binary_cell_is_reported_before_label_cell_of_the_same_row(tmp_path, monkeypatch):
    # the label column comes first in the file, yet binary cells are checked first
    schema = FeatureSchema((("y", "label"), ("c", "categorical"), ("b", "binary")))
    path = tmp_path / "data.tsv"
    path.write_text("y\tc\tb\n" + "1\t4\t0\n" * 20 + "2\t4\t3\n")
    monkeypatch.setattr(ingest, "CHUNK_CHARS", 30)
    with pytest.raises(DataFormatError) as exc:
        ingest.load_table(path, schema)
    assert (exc.value.line, exc.value.column) == (22, "b")
    assert_same_outcome(path, schema, 30)
