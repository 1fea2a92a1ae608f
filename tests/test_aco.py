"""Pheromone arithmetic, metric aggregation, and preference probabilities."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from anttora.aco import (
    DRAIN_FLOOR,
    DepositWeights,
    NormalizationBounds,
    PathMetrics,
    PreferenceWeights,
    deposit_ratio,
    evaporate,
    normalize,
    path_preference,
    pheromone_deposit,
    pheromone_update,
)

from conftest import aggregate_metrics

# ---------------------------------------------------------------------------
# aggregation


def test_single_link_aggregation():
    m = aggregate_metrics(
        link_delays=[0.01], node_delays=[0.001, 0.001],
        link_bandwidths=[2e6], node_energies=[50.0, 40.0],
        node_drain_rates=[0.2, 0.5], node_count=2,
    )
    assert m == PathMetrics(0.012, 2e6, 40.0, 0.5, 2)


def test_equal_energies_pass_through():
    m = aggregate_metrics([0.01, 0.01], [1e-3] * 3, [1e6, 1e6], [25.0] * 3, [0.1] * 3, 3)
    assert m.energy == 25.0


def test_aggregation_matches_fold_oracle():
    rng = random.Random(3)
    for _ in range(100):
        n = 6  # five-hop path
        ld = [rng.uniform(1e-4, 1e-2) for _ in range(n - 1)]
        nd = [rng.uniform(1e-4, 1e-3) for _ in range(n)]
        bw = [rng.uniform(1e5, 1e7) for _ in range(n - 1)]
        en = [rng.uniform(1.0, 100.0) for _ in range(n)]
        dr = [rng.uniform(1e-4, 0.5) for _ in range(n)]
        m = aggregate_metrics(ld, nd, bw, en, dr, n)
        # independent fold
        delay, band, energy, drain = 0.0, math.inf, math.inf, -math.inf
        for v in ld:
            delay += v
        for v in nd:
            delay += v
        for v in bw:
            band = min(band, v)
        for v in en:
            energy = min(energy, v)
        for v in dr:
            drain = max(drain, v)
        assert m.delay == pytest.approx(delay, abs=1e-15)
        assert (m.bandwidth, m.energy, m.drain_rate, m.hop_count) == (band, energy, drain, n)


def test_aggregation_is_permutation_invariant_in_lists():
    ld, nd = [0.01, 0.02], [1e-3, 2e-3, 3e-3]
    bw, en, dr = [1e6, 2e6], [50.0, 10.0, 30.0], [0.1, 0.4, 0.2]
    a = aggregate_metrics(ld, nd, bw, en, dr, 3)
    b = aggregate_metrics(ld[::-1], nd[::-1], bw[::-1], en[::-1], dr[::-1], 3)
    assert a == b


def test_aggregation_rejects_empty_and_bad_bandwidth():
    with pytest.raises(ValueError):
        aggregate_metrics([], [], [], [], [], 0)
    with pytest.raises(ValueError):
        aggregate_metrics([0.01], [1e-3, 1e-3], [-5.0], [1.0, 1.0], [0.1, 0.1], 2)


def test_path_metrics_invariants():
    with pytest.raises(ValueError):
        PathMetrics(0.0, 1e6, 1.0, 0.1, 2)
    with pytest.raises(ValueError):
        PathMetrics(0.01, 1e6, 1.0, 0.1, 1)


# ---------------------------------------------------------------------------
# pheromone deposit


def test_deposit_ratio_hand_value():
    w = DepositWeights()
    assert deposit_ratio(4.0, 10.0, 2.0, 3.0, 1.0, w) == pytest.approx(14.0 / 6.0, abs=1e-12)


def test_zero_weights_collapse_to_constant():
    w = DepositWeights(0.0, 0.0, 0.0, 0.0, 0.0)
    assert deposit_ratio(4.0, 10.0, 2.0, 3.0, 1.0, w) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_deposit_prefers_higher_bandwidth():
    bounds = NormalizationBounds()
    w = DepositWeights()
    lo = pheromone_deposit(PathMetrics(0.01, 2e6, 10.0, 0.1, 3), w, bounds)
    hi = pheromone_deposit(PathMetrics(0.01, 4e6, 10.0, 0.1, 3), w, bounds)
    assert hi > lo


# inside, at and beyond each default bound, and a negative zero, which a
# bound of 0.0 scales to -0.0
_any_scale = st.one_of(st.floats(0.0, 1e8), st.sampled_from([-0.0, 1e-6, 1e-4, 1e-3, 2.0, 32.0, 100.0, 1e7]))


@given(
    delay=_any_scale.filter(lambda v: v > 0), bandwidth=_any_scale.filter(lambda v: v > 0),
    energy=_any_scale, drain=_any_scale, hops=st.integers(2, 40),
    zero_lows=st.booleans(),
)
def test_deposit_scales_each_metric_as_normalize_does(delay, bandwidth, energy, drain, hops, zero_lows):
    bounds = NormalizationBounds()
    if zero_lows:
        bounds = NormalizationBounds(*[(0.0, hi) for _, hi in (
            bounds.delay, bounds.bandwidth, bounds.energy, bounds.drain_rate, bounds.hop_count
        )])
    m = PathMetrics(delay, bandwidth, energy, drain, hops)
    w = DepositWeights(1.0, 0.5, 2.0, 1.0, 0.0)
    want = deposit_ratio(
        normalize(m.bandwidth, *bounds.bandwidth),
        normalize(m.energy, *bounds.energy),
        normalize(m.delay, *bounds.delay),
        normalize(float(m.hop_count), *bounds.hop_count),
        normalize(m.drain_rate, *bounds.drain_rate),
        w,
    )
    assert pheromone_deposit(m, w, bounds) == want


_metric_values = {
    "delay": st.floats(2e-4, 0.9),
    "bandwidth": st.floats(2e3, 9e6),
    "energy": st.floats(2e-3, 99.0),
    "drain_rate": st.floats(2e-6, 0.9),
    "hop_count": st.integers(2, 31),
}


@given(
    delay=_metric_values["delay"], bandwidth=_metric_values["bandwidth"],
    energy=_metric_values["energy"], drain=_metric_values["drain_rate"],
    hops=_metric_values["hop_count"],
    coord=st.sampled_from(["delay", "bandwidth", "energy", "drain_rate", "hop_count"]),
    bump=st.floats(1.05, 2.0),
)
def test_deposit_monotone_in_each_metric(delay, bandwidth, energy, drain, hops, coord, bump):
    """Within the normalization bounds: rewarding metrics raise the deposit,
    cost metrics lower it."""
    bounds = NormalizationBounds()
    w = DepositWeights()
    base = PathMetrics(delay, bandwidth, energy, drain, hops)
    kwargs = dict(delay=delay, bandwidth=bandwidth, energy=energy,
                  drain_rate=drain, hop_count=hops)
    if coord == "hop_count":
        kwargs[coord] = min(32, hops + 1)
        if kwargs[coord] == hops:
            return
    else:
        lo, hi = getattr(bounds, coord)
        kwargs[coord] = min(hi, kwargs[coord] * bump)
        if kwargs[coord] == getattr(base, coord):
            return
    other = PathMetrics(**kwargs)
    d_base = pheromone_deposit(base, w, bounds)
    d_other = pheromone_deposit(other, w, bounds)
    if coord in ("bandwidth", "energy"):
        assert d_other > d_base
    else:
        assert d_other < d_base


def test_normalize_stays_in_unit_band():
    assert normalize(-5.0, 0.0, 1.0) == pytest.approx(1e-6)
    assert normalize(99.0, 0.0, 1.0) == 1.0
    assert 1e-6 <= normalize(0.5, 0.0, 1.0) <= 1.0


# ---------------------------------------------------------------------------
# pheromone update / evaporation


def test_update_hand_value():
    assert pheromone_update(2.0, 0.5, 1.0) == 2.0


def test_zero_deposit_is_pure_decay():
    assert pheromone_update(3.0, 0.25, 0.0) == pytest.approx(0.75)


def test_update_converges_to_geometric_limit():
    tau, rho, dep = 0.0, 0.5, 1.0
    limit = dep / (1.0 - rho)
    for _ in range(1000):
        tau = pheromone_update(tau, rho, dep)
    assert abs(tau - limit) < 1e-9


def test_full_evaporation_zeroes():
    assert evaporate(5.0, 1.0) == 0.0


def test_evaporation_hand_value():
    assert evaporate(10.0, 0.1) == pytest.approx(9.0)


def test_repeated_evaporation_monotone_nonnegative():
    tau = 3.0
    for _ in range(50):
        nxt = evaporate(tau, 0.3)
        assert 0.0 <= nxt <= tau
        tau = nxt


def test_pheromone_bounded_under_random_schedules():
    """tau never exceeds max_deposit / (1 - rho) + tau0 whatever the mix of
    updates and evaporations."""
    rng = random.Random(99)
    rho, q, cap = 0.5, 0.2, 1.0
    for _ in range(200):
        tau0 = rng.uniform(0.0, 2.0)
        tau = tau0
        bound = cap / (1.0 - rho) + tau0
        for _ in range(50):
            if rng.random() < 0.5:
                tau = pheromone_update(tau, rho, rng.uniform(0.0, cap))
            else:
                tau = evaporate(tau, q)
            assert tau <= bound + 1e-12


# ---------------------------------------------------------------------------
# path preference


def _entry(tau, delay=0.01, bw=1e6, energy=10.0, drain=0.1, hops=3):
    return tau, PathMetrics(delay, bw, energy, drain, hops)


def test_single_candidate_gets_probability_one():
    out = path_preference([_entry(0.5)], PreferenceWeights())
    assert out == [1.0]


def test_identical_candidates_split_evenly():
    out = path_preference([_entry(0.5), _entry(0.5)], PreferenceWeights())
    assert out == pytest.approx([0.5, 0.5], abs=1e-12)


def _preference_oracle(cands, w):
    prods = []
    for tau, m in cands:
        prods.append(
            tau ** w.pheromone * (1 / m.delay) ** w.delay
            * (1 / m.hop_count) ** w.hop_count * m.bandwidth ** w.bandwidth
            * m.energy ** w.energy * (1 / m.drain_rate) ** w.drain_rate
        )
    s = sum(prods)
    return [p / s for p in prods]


def test_preference_matches_product_normalize_oracle():
    rng = random.Random(17)
    w = PreferenceWeights()
    for _ in range(200):
        cands = [
            _entry(rng.uniform(0.1, 5.0), delay=rng.uniform(1e-3, 0.5),
                   bw=rng.uniform(1e4, 1e7), energy=rng.uniform(0.5, 90.0),
                   drain=rng.uniform(1e-3, 0.9), hops=rng.randint(2, 10))
            for _ in range(3)
        ]
        got = path_preference(cands, w)
        want = _preference_oracle(cands, w)
        for p, q in zip(got, want):
            assert abs(p - q) < 1e-12


@given(st.lists(st.tuples(
    st.floats(0.01, 10.0), st.floats(1e-3, 1.0), st.floats(1e3, 1e7),
    st.floats(0.01, 100.0), st.floats(1e-4, 1.0), st.integers(2, 16),
), min_size=1, max_size=8))
def test_preference_is_probability_distribution(raw):
    cands = [
        _entry(tau, delay=d, bw=b, energy=e, drain=dr, hops=h)
        for tau, d, b, e, dr, h in raw
    ]
    out = path_preference(cands, PreferenceWeights())
    assert len(out) == len(cands)
    assert all(p >= 0 for p in out)
    assert abs(sum(out) - 1.0) < 1e-9


def test_preference_invariant_under_common_tau_scaling():
    rng = random.Random(4)
    cands = [_entry(rng.uniform(0.2, 2.0), delay=rng.uniform(1e-3, 0.1)) for _ in range(4)]
    before = path_preference(cands, PreferenceWeights())
    scaled = [(tau * 37.5, m) for tau, m in cands]
    after = path_preference(scaled, PreferenceWeights())
    for p, q in zip(before, after):
        assert abs(p - q) < 1e-12


def test_preference_ordering_matches_products():
    # probabilities come back in input order
    cands = [_entry(2.0, delay=0.01), _entry(0.1, delay=0.5)]
    assert path_preference(cands, PreferenceWeights())[0] > 0.5
    assert path_preference(cands[::-1], PreferenceWeights())[1] > 0.5


def test_zero_drain_rate_is_floored_not_rejected():
    # a path over nodes that have spent nothing yet reports drain rate 0
    cands = [_entry(0.5, drain=0.0), _entry(0.8, drain=0.0, delay=0.02), _entry(1.0)]
    got = path_preference(cands, PreferenceWeights())
    floored = [
        (tau, PathMetrics(m.delay, m.bandwidth, m.energy, max(m.drain_rate, DRAIN_FLOOR), m.hop_count))
        for tau, m in cands
    ]
    want = _preference_oracle(floored, PreferenceWeights())
    assert all(math.isfinite(p) for p in got)
    assert got == want


def test_preference_rejects_empty_and_all_zero():
    with pytest.raises(ValueError):
        path_preference([], PreferenceWeights())
    dead = [_entry(1.0, energy=0.0), _entry(1.0, energy=0.0)]
    with pytest.raises(ValueError):
        path_preference(dead, PreferenceWeights())


def test_preference_rejects_zero_tau_with_pheromone_weight():
    with pytest.raises(ValueError):
        path_preference([_entry(0.0)], PreferenceWeights())


# ---------------------------------------------------------------------------
# weights validation


def test_weight_validation():
    with pytest.raises(ValueError):
        DepositWeights(bandwidth=-1.0)
    with pytest.raises(ValueError):
        PreferenceWeights(persistence=1.0)
    with pytest.raises(ValueError):
        PreferenceWeights(decay=0.0)
    with pytest.raises(ValueError):
        NormalizationBounds(delay=(1.0, 1.0))
