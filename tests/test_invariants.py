"""Ledger and geometry invariants over generated scenarios.

Small graphs with random cuts, flows and initial energy (down to the point
where batteries run dry mid-run) must keep the engine's counters and the
trace-derived metrics in agreement. Small mobility runs must do the same,
and before every mobility step their adjacency must be symmetric and hold
exactly the pairs within communication range. Every run must write only
event lines that the strict decoder accepts, in (timestamp, seq) order, and
must account for every offered data packet exactly once at its source,
must deliver a reply to its source only after that source sent a request
toward the reply's destination, and must end with every held request on
a NULL height and for its own destination, and with a mirrored height
toward each destination for exactly the node's up links. Every height a
node ends a run with, the clear-flood erasures' included, is the last one
it reported to the engine's ``_height_changed``, which the
reaction-locality count reads, or its initial height when it reported
none. Every data packet sent from its source ends in exactly one line, a
``rcv`` at its destination or a ``drp`` anywhere, unless it is still in the
air when the run ends, over the generated scenarios and the golden runs.
There too, after a source
receives a route error naming a link, each data packet it sends over that
link follows a route from a reply it received after the error. The
static checks also run on larger graphs with several long flows, whose
relays answer requests while link pheromone moves. In baseline mode, where
the evaporation tick only prunes expired routes, the whole trace is the
same for every evaporation period. In a mobility run, the whole trace is the
same for every mobility step. Over the generated scenarios and the golden
runs, a trace rewritten to give each receiver of a frame its own ``rcv``
line, as traces were once written, folds to the same metrics.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anttora.engine import Simulation
from anttora.harness import run_single
from anttora.metrics import compute_metrics, read_trace, validate_trace_order
from anttora.packets import DataPacket, ErrorPacket, QryReplyAnt, QryRequestAnt, decode_trace_record
from anttora.scenario import load_scenario, parse_scenario

from conftest import flow, scenario_dict, trace_of

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_RUNS = json.loads((GOLDEN / "digests.json").read_text())
LOW_ENERGY = json.loads((GOLDEN / "low_energy.json").read_text())
# a cut that partitions the graph, so a clear flood erases routes
BARBELL_CLEAR = json.loads((GOLDEN / "barbell_clear.json").read_text())


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


def assert_static_run_invariants(data) -> None:
    with (
        tempfile.TemporaryDirectory() as tmp,
        reporting_heights() as reported,
        recording_deliveries() as deliveries,
    ):
        path, metrics, sim = run_single(parse_scenario(data), trace_path=os.path.join(tmp, "run.trace"))
        lines = list(read_trace(path))
    validate_trace_order(lines)
    assert_ledgers(metrics, sim)
    assert_offered_data_conserved(lines, sim)
    assert_every_sent_packet_has_a_fate(lines, sim, deliveries)
    assert_sources_heed_route_errors(lines)
    assert_replies_follow_own_requests(lines)
    assert_discovery_state(sim)
    assert_mirrors_match_links(sim)
    assert_every_height_was_reported(sim, reported)
    assert_one_line_per_receiver_folds_alike(lines)


@settings(deadline=None)
@example(LOW_ENERGY)
@example(BARBELL_CLEAR)
@given(static_scenarios())
def test_counters_and_trace_agree(data):
    assert_static_run_invariants(data)


@contextlib.contextmanager
def reporting_heights():
    """Within the block, ``Simulation._height_changed`` also records the
    last height each (node, destination) reported, in the dict this yields;
    construct and run one simulation per block, since each agent is handed
    the method when its simulation is constructed."""
    reported = {}
    changed = Simulation._height_changed

    def record(sim, node, dest, old, new, now):
        reported[node, dest] = new
        changed(sim, node, dest, old, new, now)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "_height_changed", record)
        yield reported


def assert_every_height_was_reported(sim, reported) -> None:
    """Each state's own height is the last one it reported, or its initial
    height when none was: no height changes unreported."""
    for node, agent in sim.agents.items():
        for dest, toward in agent.toward.items():
            state = toward.tora
            expected = reported.get((node, dest), state.initial_height(node))
            assert state.own_height == expected, (node, dest)


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
        if isinstance(pkt, DataPacket) and rec.event in ("snd", "drp") and rec.nodes == (pkt.source,):
            outcomes[pkt.source, pkt.destination, pkt.seq] += 1
    assert all(n == 1 for n in outcomes.values()), outcomes.most_common(1)
    assert len(outcomes) == sim.counters["data_offered"]


@contextlib.contextmanager
def recording_deliveries():
    """Within the block, ``Simulation.schedule`` also records each frame
    delivery it queues as ``(time, packet)``, once per receiver the queued
    event names, in the list this yields."""
    deliveries = []
    schedule = Simulation.schedule

    def record(sim, time, handler, *args):
        if handler == sim._on_delivery:
            deliveries.extend((time, args[0]) for _ in args[2])
        schedule(sim, time, handler, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "schedule", record)
        yield deliveries


def assert_every_sent_packet_has_a_fate(lines, sim, deliveries) -> None:
    """Each data packet with a ``snd`` line at its source has exactly one
    terminal line, a ``rcv`` at its destination or a ``drp`` at any node,
    unless its delivery was still queued when the run ended, which writes
    no line. The run handles every event due by its end time (to within
    1e-12 s), so a delivery due later was still queued; the engine counts
    each of those once, as ``drop_end_of_run``."""
    queued = [pkt for t, pkt in deliveries if t > sim.end_time + 1e-12]
    assert len(queued) == sim.counters["drop_end_of_run"]
    in_air = {(p.source, p.destination, p.seq) for p in queued if isinstance(p, DataPacket)}
    sent, ends = set(), Counter()
    for line in lines:
        if not line or line.startswith("#"):
            continue
        rec = decode_trace_record(line)
        pkt = rec.packet
        if not isinstance(pkt, DataPacket):
            continue
        key = pkt.source, pkt.destination, pkt.seq
        if rec.event == "snd" and rec.nodes == (pkt.source,):
            sent.add(key)
        elif rec.event == "drp" or (rec.event == "rcv" and pkt.destination in rec.nodes):
            ends[key] += 1
    for key in sorted(sent):
        assert ends[key] == (0 if key in in_air else 1), key


def assert_sources_heed_route_errors(lines) -> None:
    """After a source receives a route error naming link {a, b}, each data
    packet it sends over {a, b} follows the route of a reply to its own
    discovery that it received after that error: the error purged every
    route over the link, and only such a reply caches one again."""
    fresh = {}  # source -> link -> routes replied since the link's last error
    for line in lines:
        if not line or line.startswith("#"):
            continue
        rec = decode_trace_record(line)
        pkt, nodes = rec.packet, rec.nodes
        if rec.event == "rcv" and isinstance(pkt, ErrorPacket) and pkt.path[0] in nodes:
            fresh.setdefault(pkt.path[0], {})[frozenset(pkt.path[-2:])] = set()
        elif rec.event == "rcv" and isinstance(pkt, QryReplyAnt) and pkt.source in nodes:
            for routes in fresh.get(pkt.source, {}).values():
                routes.add((pkt.source,) + pkt.path_nodes)
        elif rec.event == "snd" and isinstance(pkt, DataPacket) and nodes == (pkt.source,):
            for hop in zip(pkt.path, pkt.path[1:]):
                routes = fresh.get(pkt.source, {}).get(frozenset(hop))
                assert routes is None or pkt.path in routes, line


def assert_replies_follow_own_requests(lines) -> None:
    """A reply received at its own source node comes after that node sent a
    request of its own toward the same destination: the source admits such
    a reply as the answer to a discovery it started."""
    asked = set()
    for line in lines:
        if not line or line.startswith("#"):
            continue
        rec = decode_trace_record(line)
        pkt = rec.packet
        if getattr(pkt, "source", None) not in rec.nodes:
            continue
        if isinstance(pkt, QryRequestAnt) and rec.event == "snd":
            asked.add((pkt.source, pkt.destination))
        elif isinstance(pkt, QryReplyAnt) and rec.event == "rcv":
            assert (pkt.source, pkt.destination) in asked, line


def assert_discovery_state(sim) -> None:
    """A node waiting for a route, which is a node holding a request, has a
    NULL height and holds the request for that destination, to re-send
    when a link comes up."""
    for node, agent in sim.agents.items():
        for dest, toward in agent.toward.items():
            if toward.request is not None:
                assert toward.tora.own_height.is_null, (node, dest)
                assert toward.request.destination == dest, (node, dest)


def assert_mirrors_match_links(sim) -> None:
    """Each node mirrors a height toward each destination for exactly its
    up links: no frame over no link leaves a mirror behind."""
    for node, agent in sim.agents.items():
        for dest, toward in agent.toward.items():
            assert set(toward.tora.links) == set(agent.adjacent), (node, dest)


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
    with reporting_heights() as reported, recording_deliveries() as deliveries:
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
    assert_every_sent_packet_has_a_fate(lines, sim, deliveries)
    assert_sources_heed_route_errors(lines)
    assert_replies_follow_own_requests(lines)
    assert_discovery_state(sim)
    assert_mirrors_match_links(sim)
    assert_every_height_was_reported(sim, reported)
    assert_one_line_per_receiver_folds_alike(lines)


def one_line_per_receiver(lines) -> list[str]:
    """``lines`` as a trace that gives each receiver its own ``rcv`` line:
    each line naming several receivers becomes one line per receiver, in
    the same place, and every event line is renumbered in order."""
    out, seq = [], 0
    for line in lines:
        if not line or line.startswith("#"):
            out.append(line)
            continue
        timestamp, _seq, event, nodes, body = line.split(" ", 4)
        for node in nodes.split(","):
            seq += 1
            out.append(f"{timestamp} {seq:08d} {event} {node} {body}")
    return out


def assert_one_line_per_receiver_folds_alike(lines) -> None:
    """The metrics fold reads a ``rcv`` line naming several receivers as it
    reads one line per receiver."""
    split = one_line_per_receiver(lines)
    assert all("," not in line.split(" ", 4)[3] for line in split if line and line[0] != "#")
    assert compute_metrics(split) == compute_metrics(lines)


def golden_run(name):
    """The golden run ``name``'s trace lines, finished simulation and
    recorded deliveries."""
    run = GOLDEN_RUNS[name]
    with recording_deliveries() as deliveries:
        sim = Simulation(load_scenario(str(GOLDEN / f"{run['scenario']}.json")), mode=run["mode"]).run()
    return trace_of(sim), sim, deliveries


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_every_sent_packet_has_a_fate_in_the_golden_runs(name):
    assert_every_sent_packet_has_a_fate(*golden_run(name))


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_one_line_per_receiver_folds_alike_in_the_golden_runs(name):
    lines, _, _ = golden_run(name)
    assert len(one_line_per_receiver(lines)) > len(lines)
    assert_one_line_per_receiver_folds_alike(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_sources_heed_route_errors_in_the_golden_runs(name):
    lines, _, _ = golden_run(name)
    assert_sources_heed_route_errors(lines)


def busy_static_scenario(seed: int) -> dict:
    """A static graph large enough that relays answer requests while link
    pheromone moves: 8 to 12 nodes with two to three links per node, three
    flows of 5 or 6 s starting 1 to 2 s in, two of them to one destination,
    up to two cuts, and evaporation every 4 s. Hypothesis's own list and
    integer draws favour repeated flows and sparse graphs, so the generator
    picks every choice uniformly from one drawn seed."""
    rng = random.Random(seed)
    n = rng.randint(8, 12)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = rng.sample(pairs, rng.randint(2 * n, 3 * n))
    cuts = [(rng.choice(edges), rng.randint(30, 70) / 10) for _ in range(rng.randint(0, 2))]
    flows = []
    shared, other = rng.sample(range(n), 2)
    for dst in (shared, shared, other):
        src = rng.choice([j for j in range(n) if j != dst])
        start = rng.randint(10, 20) / 10
        flows.append(flow(src, dst, rate=4.0, start=start, stop=start + rng.randint(5, 6)))
    return scenario_dict(
        n,
        edges,
        flows,
        link_failures=[{"time_s": t, "a": a, "b": b} for (a, b), t in cuts],
        aco={"evaporation_period_s": 4.0},
        end_time_s=10.0,
        seed=rng.randint(0, 2**16),
    )


# a 10-node graph with three 6 s flows and two cuts: its relays answer
# requests while link pheromone moves
BUSY_STATIC = scenario_dict(
    10,
    [(0, 4), (0, 8), (1, 2), (1, 3), (1, 6), (2, 3), (2, 8), (3, 7),
     (3, 8), (3, 9), (4, 6), (4, 9), (5, 8), (6, 8), (6, 9), (7, 9)],
    [flow(9, 0, rate=4.0, start=1.8, stop=7.8),
     flow(7, 0, rate=4.0, start=1.1, stop=7.1),
     flow(7, 9, rate=4.0, start=1.3, stop=7.3)],
    link_failures=[{"time_s": 5.3, "a": 2, "b": 3}, {"time_s": 5.1, "a": 0, "b": 4}],
    end_time_s=10.0,
    seed=10,
)


@settings(deadline=None, max_examples=40)
@example(BUSY_STATIC)
@given(st.integers(0, 2**32 - 1).map(busy_static_scenario))
def test_counters_and_trace_agree_on_busy_static_graphs(data):
    assert_static_run_invariants(data)


def baseline_trace(data: dict, period: float) -> list[str]:
    """The whole trace of ``data`` in baseline mode, with routes that live
    1.5 s and evaporation every ``period`` s."""
    data = dict(data, mode="baseline_tora", aco={"evaporation_period_s": period})
    data["protocol"] = {**data.get("protocol", {}), "route_ttl_s": 1.5}
    return trace_of(Simulation(parse_scenario(data)).run())


# two flows to node 5 and one cut: at some periods a candidate replaces an
# expired one that no tick has pruned yet, so the trace holds only if the
# replacement takes no age from the expired route
EXPIRED_CANDIDATE_AGE = scenario_dict(
    6,
    [(3, 4), (4, 5), (0, 5), (3, 5), (0, 1), (2, 4), (1, 3), (2, 5), (1, 2)],
    [flow(3, 5, rate=4.0, start=1.5, stop=4.0), flow(1, 5, rate=4.0, start=1.1, stop=4.0)],
    link_failures=[{"time_s": 3.4, "a": 0, "b": 1}],
    end_time_s=5.0,
)


@settings(deadline=None, max_examples=25)
@example(EXPIRED_CANDIDATE_AGE, AT_RANGE)
@given(st.integers(0, 2**32 - 1).map(busy_static_scenario), mobility_scenarios())
def test_route_pruning_time_is_unobservable(static, mobile):
    # baseline mode never evaporates pheromone, so the evaporation tick only
    # prunes expired routes; an expired route acts as if it were gone, so
    # when it goes cannot show in the trace
    for data in (static, mobile):
        reference = baseline_trace(data, 1.0)
        for period in (0.7, 2.3):
            assert baseline_trace(data, period) == reference, period


def trace_at_step(data: dict, step: float) -> list[str]:
    """The whole trace of ``data`` with mobility advanced every ``step`` s."""
    data = dict(data, topology={**data["topology"], "step": step})
    return trace_of(Simulation(parse_scenario(data)).run())


@settings(deadline=None, max_examples=10)
@example(AT_RANGE)
@given(mobility_scenarios())
def test_mobility_step_never_changes_a_trace(data):
    # a link changes at the exact instant its pair crosses the range, so how
    # often mobility is advanced cannot show in the trace
    reference = trace_at_step(data, 1.0)
    for step in (0.1, 0.25, 3.0):
        assert trace_at_step(data, step) == reference, step

