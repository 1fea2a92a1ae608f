"""The verdict of tools/pairs.py: 9 wins in 10 and a gap outside the
parent's quartile spread."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", pathlib.Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_change_better_in_every_pair_by_more_than_the_spread_gains():
    v = pairs.verdict(PARENT, [p - 0.2 for p in PARENT], "lower", 0.25)
    assert (v.wins, v.pairs, v.gain, v.worse_than_bound) == (10, 10, True, False)
    assert v.parent_median == pytest.approx(1.0) and v.change_median == pytest.approx(0.8)


def test_nine_wins_in_ten_suffice_but_eight_do_not():
    nine = [p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 0.1]
    assert pairs.verdict(PARENT, nine, "lower", 0.25).gain
    eight = [p - 0.2 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    v = pairs.verdict(PARENT, eight, "lower", 0.25)
    assert v.wins == 8 and not v.gain


def test_a_gap_inside_the_parents_quartile_spread_is_no_gain():
    q1, q3 = pairs.quartiles(PARENT)
    v = pairs.verdict(PARENT, [p - 0.5 * (q3 - q1) for p in PARENT], "lower", 0.25)
    assert v.wins == 10 and not v.gain


def test_higher_is_better_flips_the_comparison():
    assert pairs.verdict(PARENT, [p + 0.2 for p in PARENT], "higher", 0.25).gain
    assert not pairs.verdict(PARENT, [p - 0.2 for p in PARENT], "higher", 0.25).gain


def test_a_median_worse_than_its_bound_is_flagged():
    assert pairs.verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25).worse_than_bound
    assert not pairs.verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25).worse_than_bound


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT[:9], "lower", 0.25)
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT, "faster", 0.25)
