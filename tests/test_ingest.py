from __future__ import annotations

import numpy as np
import pytest

from adinstall.errors import DataFormatError
from adinstall.ingest import detect_constant_features, load_table, write_table
from adinstall.schema import FeatureSchema


SCHEMA = FeatureSchema(
    columns=(
        ("f_0", "row_id"),
        ("f_2", "categorical"),
        ("f_3", "binary"),
        ("f_4", "numerical"),
        ("is_installed", "label"),
    ),
)


def write_data(tmp_path, rows, header="f_0\tf_2\tf_3\tf_4\tis_installed"):
    path = tmp_path / "data.tsv"
    path.write_text("\n".join(([header] if header else []) + rows) + "\n")
    return path


def test_basic_ingestion(tmp_path):
    path = write_data(tmp_path, ["1\t12\t0\t3.5\t1", "2\t7\t1\t-1\t0", "3\t12\t1\t0\t0"])
    t = load_table(path, SCHEMA)
    assert t.n_rows == 3
    assert t.row_ids == ("1", "2", "3")
    tokens, missing = t.cat_column("f_2")
    assert tokens.tolist() == [12, 7, 12]
    assert not missing.any()
    assert t.bin_column("f_3").tolist() == [0, 1, 1]
    assert t.num_column("f_4").tolist() == [3.5, -1.0, 0.0]
    assert t.label_column("is_installed").tolist() == [1, 0, 0]


def test_empty_fields_become_missing(tmp_path):
    path = write_data(tmp_path, ["1\t\t0\t\t1"])
    t = load_table(path, SCHEMA)
    _, missing = t.cat_column("f_2")
    assert missing.tolist() == [True]
    assert np.isnan(t.num_column("f_4")).all()
    assert t.parse_warnings == {}  # empty fields are silent


def test_large_numeric_parses_exactly(tmp_path):
    path = write_data(tmp_path, ["1\t5\t0\t415706830424\t0"])
    t = load_table(path, SCHEMA)
    assert t.num_column("f_4")[0] == 4.15706830424e11


def test_unparsable_cells_warn(tmp_path):
    path = write_data(tmp_path, ["1\tabc\t0\txyz\t0", "2\t3.7\t0\tinf\t0"])
    t = load_table(path, SCHEMA)
    _, missing = t.cat_column("f_2")
    assert missing.all()
    assert np.isnan(t.num_column("f_4")).all()
    assert t.parse_warnings == {"f_2": 2, "f_4": 2}


def test_wrong_field_count_names_line(tmp_path):
    path = write_data(tmp_path, ["1\t12\t0\t3.5\t1", "2\t7\t0"])
    with pytest.raises(DataFormatError, match="line=3") as exc:
        load_table(path, SCHEMA)
    assert exc.value.line == 3


def test_bad_binary_cell_names_column_and_line(tmp_path):
    path = write_data(tmp_path, ["1\t12\t2\t3.5\t1"])
    with pytest.raises(DataFormatError, match="f_3") as exc:
        load_table(path, SCHEMA)
    assert exc.value.column == "f_3" and exc.value.line == 2


def test_bad_label_cell_rejected(tmp_path):
    path = write_data(tmp_path, ["1\t12\t0\t3.5\t0.7"])
    with pytest.raises(DataFormatError, match="label"):
        load_table(path, SCHEMA)


def test_header_name_mismatch(tmp_path):
    path = write_data(tmp_path, ["1\t12\t0\t3.5\t1"], header="a\tb\tc\td\te")
    with pytest.raises(DataFormatError, match="header names"):
        load_table(path, SCHEMA)


def test_headerless_file(tmp_path):
    schema = FeatureSchema(SCHEMA.columns, has_header=False)
    path = write_data(tmp_path, ["1\t12\t0\t3.5\t1"], header=None)
    assert load_table(path, schema).n_rows == 1


def test_detect_constant_features(tmp_path):
    path = write_data(tmp_path, ["1\t3\t0\t1.0\t0", "2\t3\t1\t1.0\t1", "3\t\t1\t1.0\t0"])
    t = load_table(path, SCHEMA)
    # f_2: [3, 3, missing] -> constant; f_4 constant; f_3 varies
    assert detect_constant_features(t) == ["f_2", "f_4"]

    # brute-force confirmation: distinct non-missing count <= 1 for listed columns
    tokens, missing = t.cat_column("f_2")
    assert len({int(v) for v, m in zip(tokens, missing) if not m}) <= 1


def test_detect_constant_not_fooled_by_variation(tmp_path):
    path = write_data(tmp_path, ["1\t3\t0\t1.0\t0", "2\t4\t1\t2.0\t1"])
    assert detect_constant_features(load_table(path, SCHEMA)) == []


def test_write_load_round_trip_bit_exact(tmp_path, rng):
    n = 50
    rows = []
    for i in range(n):
        cat = "" if rng.uniform() < 0.2 else str(rng.integers(-5, 100))
        num = "" if rng.uniform() < 0.2 else repr(float(rng.normal() * 10.0 ** rng.integers(0, 9)))
        rows.append(f"{i}\t{cat}\t{int(rng.integers(0, 2))}\t{num}\t{int(rng.integers(0, 2))}")
    path = write_data(tmp_path, rows)
    t1 = load_table(path, SCHEMA)
    out = tmp_path / "rewritten.tsv"
    write_table(t1, out)
    t2 = load_table(out, SCHEMA)
    assert t2.row_ids == t1.row_ids
    assert np.array_equal(t2.cat_tokens, t1.cat_tokens)
    assert np.array_equal(t2.cat_missing, t1.cat_missing)
    assert np.array_equal(t2.binary, t1.binary)
    assert np.array_equal(np.isnan(t2.numeric), np.isnan(t1.numeric))
    mask = ~np.isnan(t1.numeric)
    assert np.array_equal(t2.numeric[mask], t1.numeric[mask])
    assert np.array_equal(t2.labels, t1.labels)


def test_tables_are_immutable(tmp_path):
    path = write_data(tmp_path, ["1\t3\t0\t1.5\t0"])
    t = load_table(path, SCHEMA)
    with pytest.raises(ValueError):
        t.numeric[0, 0] = 9.9
