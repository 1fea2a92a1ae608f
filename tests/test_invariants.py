"""Ledger and geometry invariants over generated scenarios.

Small graphs with random cuts, flows and initial energy (down to the point
where batteries run dry mid-run) must keep the engine's counters and the
trace-derived metrics in agreement. Small mobility runs must do the same,
and before every mobility step their adjacency must be symmetric and hold
exactly the pairs within communication range. Every run must write only
event lines that the strict decoder accepts, in (timestamp, seq) order, and
must account for every offered data packet exactly once at its source.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import tempfile
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anttora.engine import Simulation
from anttora.harness import run_single
from anttora.metrics import compute_metrics, read_trace, validate_trace_order
from anttora.packets import DataPacket, decode_trace_record
from anttora.scenario import parse_scenario

from conftest import flow, scenario_dict, trace_of

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
    with tempfile.TemporaryDirectory() as tmp:
        path, metrics, sim = run_single(parse_scenario(data), trace_path=os.path.join(tmp, "run.trace"))
        lines = list(read_trace(path))
    validate_trace_order(lines)
    assert_ledgers(metrics, sim)
    assert_offered_data_conserved(lines, sim)


def assert_ledgers(metrics, sim) -> None:
    c = sim.counters
    assert metrics.data_sent == c["data_offered"]
    assert metrics.data_delivered == c["data_delivered"]
    drops = ("drop_link_down_at_send", "drop_cancelled_in_flight", "drop_rx_energy", "drop_end_of_run")
    assert c["frames_dropped"] == sum(c[k] for k in drops)
    # a frame dropped at send never counts as sent
    assert c["frames_sent"] + c["drop_link_down_at_send"] == c["frames_delivered"] + c["frames_dropped"]


def assert_offered_data_conserved(lines, sim) -> None:
    """Each offered data packet has exactly one ``snd`` or ``drp`` line at
    its source: sent once, refused for energy, or still queued at the end.
    The metrics fold counts offered packets as a set, so there a packet sent
    twice, or sent and also left queued, counts once."""
    outcomes = Counter()
    for line in lines:
        if not line or line.startswith("#"):
            continue
        rec = decode_trace_record(line)
        pkt = rec.packet
        if isinstance(pkt, DataPacket) and rec.event in ("snd", "drp") and rec.node == pkt.source:
            outcomes[pkt.source, pkt.destination, pkt.seq] += 1
    assert all(n == 1 for n in outcomes.values()), outcomes.most_common(1)
    assert len(outcomes) == sim.counters["data_offered"]


@st.composite
def mobility_scenarios(draw) -> dict:
    n = draw(st.integers(3, 10))
    coord = st.floats(0.0, 300.0, allow_nan=False)
    positions = [[draw(coord), draw(coord)] for _ in range(n)]
    lo = draw(st.floats(0.0, 30.0))
    hi = lo + draw(st.floats(0.0, 30.0))
    endpoints = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ends: ends[0] != ends[1]
    )
    flows = [
        flow(src, dst, rate=4.0, start=start / 10, stop=start / 10 + 2.0)
        for (src, dst), start in draw(
            st.lists(st.tuples(endpoints, st.integers(5, 30)), min_size=1, max_size=2)
        )
    ]
    return {
        "nodes": {"count": n, "positions": positions},
        "topology": {
            "mode": "mobility",
            "area": [300.0, 300.0],
            "speed": [lo, hi],
            "comm_range": 120.0,
            "pause_time": draw(st.sampled_from([0.0, 0.3, 1.5])),
            "step": draw(st.integers(1, 10)) / 10,
        },
        "traffic": flows,
        "end_time_s": draw(st.integers(2, 6)),
        "seed": draw(st.integers(0, 2**16)),
    }


def assert_adjacency_matches_geometry(sim) -> None:
    r = sim.scenario.topology.comm_range
    for a, peers in sim.adj.items():
        assert all(a in sim.adj[b] for b in peers), f"adjacency of {a} is one-sided"
    for a in sim.mobility:
        for b in sim.mobility:
            d = math.dist(sim.mobility[a].pos, sim.mobility[b].pos)
            if a == b or abs(d - r) <= 1e-6:
                continue
            assert (b in sim.adj[a]) == (d < r), f"t={sim.now}: {a}-{b} at {d} m"


# nodes exactly at range at t=0, moving apart: the link must go down at once
AT_RANGE = {
    "nodes": {"count": 3, "positions": [[0.0, 0.0], [0.0, 0.0], [120.0, 0.0]]},
    "topology": {"mode": "mobility", "area": [300.0, 300.0], "speed": [5.0, 10.0],
                 "comm_range": 120.0, "step": 0.1},
    "traffic": [flow(0, 1, rate=4.0, start=0.5, stop=2.5)],
    "end_time_s": 2,
    "seed": 8,  # node 2's first leg leads away from node 0
}


@settings(deadline=None, max_examples=40)
@example(AT_RANGE)
@given(mobility_scenarios())
def test_mobility_adjacency_and_ledgers(data):
    sim = Simulation(parse_scenario(data))
    step = sim._on_mobility_step

    def checked_step():
        assert_adjacency_matches_geometry(sim)
        step()

    # the first step was queued at construction; every later one is
    # scheduled through the instance attribute, so it runs the check
    assert_adjacency_matches_geometry(sim)
    sim._on_mobility_step = checked_step
    sim.run()
    lines = trace_of(sim)
    validate_trace_order(lines)
    assert_ledgers(compute_metrics(lines), sim)
    assert_offered_data_conserved(lines, sim)
