"""The pair runner's summary of one metric over alternating parent/change runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def runs(values: list[float | None]) -> list[dict]:
    return [{"metrics": {} if v is None else {"m": {"value": v}}} for v in values]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_summary_counts_wins_and_the_median_against_the_bound(better):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [12.0, 12.0, 12.0, 11.0, 9.0]  # one tie; higher is better in 2 pairs, lower in 2
    s = pairs.summarize({"parent": runs(parent), "change": runs(change)},
                        {"name": "m", "unit": "s", "better": better, "bound": 0.25})
    assert s["parent"] == parent and s["change"] == change
    assert s["parent_median"] == 12.0 and s["change_median"] == 12.0
    assert s["parent_iqr"] == 2.0 and s["change_iqr"] == 1.0
    assert s["change_wins"] == 2 and s["ties"] == 1
    assert s["relative_worsening_of_median"] == 0.0 and s["within_bound"]


def test_summary_leaves_out_a_pair_with_a_failed_run():
    s = pairs.summarize({"parent": runs([10.0, 10.0, 10.0]), "change": runs([8.0, None, 7.0])},
                        {"name": "m", "unit": "1/s", "better": "higher", "bound": 0.25})
    assert s["change"] == [8.0, None, 7.0]
    assert s["change_median"] == 7.5 and s["change_wins"] == 0
    assert s["relative_worsening_of_median"] == pytest.approx(0.25) and s["within_bound"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_summary_marks_a_spread_wider_than_the_bound_unresolved(better):
    spec = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    narrow, wide = [10.0, 10.0, 10.5, 11.0, 11.0], [7.0, 8.0, 10.5, 13.0, 14.0]
    # IQRs 1.0 and 5.0 against a parent median of 10.5: 9.5 % and 47.6 %
    assert not pairs.summarize({"parent": runs(narrow), "change": runs(narrow)},
                               spec)["unresolved"]
    assert pairs.summarize({"parent": runs(narrow), "change": runs(wide)}, spec)["unresolved"]
    assert pairs.summarize({"parent": runs(wide), "change": runs(narrow)}, spec)["unresolved"]
    # a wide change that beats every parent run is resolved; one that loses to all is not
    up, down = [v + 20.0 for v in wide], [v - 6.9 for v in wide]
    beats, loses = (up, down) if better == "higher" else (down, up)
    s = pairs.summarize({"parent": runs(narrow), "change": runs(beats)}, spec)
    assert s["change_wins"] == 5 and not s["unresolved"]
    s = pairs.summarize({"parent": runs(narrow), "change": runs(loses)}, spec)
    assert s["change_wins"] == 0 and s["unresolved"]
