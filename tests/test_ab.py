"""The pair statistics and claim rule of ``benchmarks/ab.py``."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_compare_counts_pairwise_wins_and_ties_for_neither():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 11.0, 13.0, 12.0, 13.0]
    cmp = ab.compare(parent, change, lower_is_better=True)
    assert (cmp["change_wins"], cmp["parent_wins"]) == (3, 1)
    assert cmp["median_gap"] == pytest.approx(12.0 - 12.0)
    assert cmp["parent_iqr"] == pytest.approx(13.0 - 11.0)
    flipped = ab.compare(parent, change, lower_is_better=False)
    assert (flipped["change_wins"], flipped["parent_wins"]) == (1, 3)


@pytest.mark.parametrize("wins,gap,met", [(9, 2.1, True), (10, 2.0, False), (8, 50.0, False)])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_parent_iqr(wins, gap, met):
    assert ab.claim_met({"change_wins": wins, "median_gap": gap, "parent_iqr": 2.0}, 10) is met


def test_summary_uses_inclusive_quartiles():
    s = ab.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (2.0, 3.0, 4.0, 5)
