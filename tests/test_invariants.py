"""Ledger invariants over generated static scenarios.

Small graphs with random cuts, flows and initial energy (down to the point
where batteries run dry mid-run) must keep the engine's counters and the
trace-derived metrics in agreement.
"""

from __future__ import annotations

import json
import pathlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anttora.harness import run_single
from anttora.scenario import parse_scenario

from conftest import flow, scenario_dict

LOW_ENERGY = json.loads((pathlib.Path(__file__).parent / "golden" / "low_energy.json").read_text())


@st.composite
def static_scenarios(draw) -> dict:
    n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    tenths = st.integers(5, 55).map(lambda k: k / 10)
    cuts = draw(st.lists(st.tuples(st.sampled_from(edges), tenths), max_size=3))
    endpoints = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ends: ends[0] != ends[1]
    )
    flows = [
        flow(src, dst, rate=rate, start=start, stop=start + length)
        for (src, dst), rate, start, length in draw(
            st.lists(
                st.tuples(endpoints, st.integers(1, 8), tenths, st.integers(1, 3)),
                min_size=1,
                max_size=3,
            )
        )
    ]
    energy = draw(st.sampled_from([0.005, 0.01, 0.02, 0.05, 100.0]))
    return scenario_dict(
        n,
        edges,
        flows,
        nodes={"count": n, "initial_energy": energy},
        link_failures=[{"time_s": t, "a": a, "b": b} for (a, b), t in cuts],
        end_time_s=6.0,
    )


@settings(deadline=None)
@example(LOW_ENERGY)
@given(static_scenarios())
def test_counters_and_trace_agree(data):
    _lines, metrics, sim = run_single(parse_scenario(data))
    c = sim.counters
    assert metrics.data_sent == c["data_offered"]
    assert metrics.data_delivered == c["data_delivered"]
    drops = ("drop_link_down_at_send", "drop_cancelled_in_flight", "drop_rx_energy", "drop_end_of_run")
    assert c["frames_dropped"] == sum(c[k] for k in drops)
    # a frame dropped at send never counts as sent
    assert c["frames_sent"] + c["drop_link_down_at_send"] == c["frames_delivered"] + c["frames_dropped"]
