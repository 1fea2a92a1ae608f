"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated at runtime.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from anttora.aco import (
    CandidateEntry,
    PathMetrics,
    PreferenceWeights,
    evaporate,
    path_preference,
    pheromone_update,
)
from anttora.engine import Simulation
from anttora.harness import replay, run_experiment, run_single, write_trace
from anttora.heights import (
    Direction,
    Height,
    MaintenanceCase,
    NodeToraState,
    Trigger,
    maintenance_case,
)
from anttora.packets import ClrPacket, DataPacket, QryReplyAnt, QryRequestAnt, UpdPacket

from conftest import _connected, attach_log, connected_random_graph, flow, static_scenario


def _passline(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


def _dn_edges(sim, dest):
    edges = []
    for node in sorted(sim.agents):
        state = sim.agents[node].tora.get(dest)
        if state is None:
            continue
        for j, ls in sorted(state.links.items()):
            if ls.direction is Direction.DN:
                edges.append((node, j))
    return edges


def _has_cycle(nodes, edges):
    adj = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
    color = {n: 0 for n in nodes}

    def visit(n):
        color[n] = 1
        for m in adj[n]:
            if color[m] == 1 or (color[m] == 0 and visit(m)):
                return True
        color[n] = 2
        return False

    return any(color[n] == 0 and visit(n) for n in nodes)


def _reaches(dest, edges, node):
    # reverse reachability over directed DN edges
    back = {}
    for a, b in edges:
        back.setdefault(b, []).append(a)
    seen, stack = {dest}, [dest]
    while stack:
        for m in back.get(stack.pop(), []):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return node in seen


def test_criterion_1_dag_loop_freedom():
    """After discovery quiesces on random connected graphs, the downstream
    link graph is acyclic and destination-oriented."""
    started = time.monotonic()
    for i in range(100):
        rng = random.Random(1000 + i)
        n = rng.randint(5, 12)
        edges = connected_random_graph(n, 0.4, seed=2000 + i)
        dest = n - 1
        sc = static_scenario(
            n, edges, flows=[flow(0, dest, rate=1.0, start=1.5, stop=2.0)],
            end_time_s=3.0, seed=i,
        )
        _, _, sim = run_single(sc)
        dn = _dn_edges(sim, dest)
        assert not _has_cycle(range(n), dn), f"cycle in graph {i}"
        for node in range(n):
            state = sim.agents[node].tora.get(dest)
            if state is None or state.own_height.is_null:
                continue
            assert _reaches(dest, dn, node), f"node {node} stranded in graph {i}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"budget blown: {elapsed:.1f}s"
    _passline(1, "DAG loop freedom")


def test_criterion_2_probability_normalization():
    """Preference output sums to one and matches the direct oracle."""
    rng = random.Random(42)
    w = PreferenceWeights()
    for _ in range(10_000):
        k = rng.randint(1, 6)
        cands = [
            CandidateEntry(
                next_hop=j,
                tau=rng.uniform(0.01, 5.0),
                metrics=PathMetrics(
                    delay=rng.uniform(1e-3, 0.5),
                    bandwidth=rng.uniform(1e4, 1e7),
                    energy=rng.uniform(0.5, 99.0),
                    drain_rate=rng.uniform(1e-4, 0.9),
                    hop_count=rng.randint(2, 12),
                ),
            )
            for j in range(k)
        ]
        got = path_preference(cands, w)
        assert abs(sum(p for _, p in got) - 1.0) < 1e-9
        products = [
            c.tau ** w.pheromone
            * (1 / c.metrics.delay) ** w.delay
            * (1 / c.metrics.hop_count) ** w.hop_count
            * c.metrics.bandwidth ** w.bandwidth
            * c.metrics.energy ** w.energy
            * (1 / c.metrics.drain_rate) ** w.drain_rate
            for c in cands
        ]
        total = sum(products)
        for (_, p), q in zip(got, products):
            assert abs(p - q / total) < 1e-12
    _passline(2, "probability normalization")


def test_criterion_3_pheromone_boundedness_and_convergence():
    """Constant deposits converge to the geometric limit; random bounded
    schedules never exceed the closed-form ceiling."""
    tau, iterations = 0.0, 0
    while abs(tau - 2.0) >= 1e-9:
        tau = pheromone_update(tau, 0.5, 1.0)
        iterations += 1
        assert iterations <= 60, "did not converge fast enough"
    rng = random.Random(7)
    rho, cap = 0.5, 1.0
    for _ in range(10_000):
        tau0 = rng.uniform(0.0, 3.0)
        bound = cap / (1.0 - rho) + tau0
        tau = tau0
        for _ in range(rng.randint(1, 40)):
            if rng.random() < 0.6:
                tau = pheromone_update(tau, rho, rng.uniform(0.0, cap))
            else:
                tau = evaporate(tau, rng.uniform(0.05, 1.0))
            assert tau <= bound + 1e-12
    _passline(3, "pheromone boundedness and convergence")


def _maintenance_oracle(trigger, levels_equal, r, oid_is_self):
    if trigger is Trigger.LINK_FAILURE:
        return MaintenanceCase.GENERATE
    if not levels_equal:
        return MaintenanceCase.PROPAGATE
    if r == 0:
        return MaintenanceCase.REFLECT
    return MaintenanceCase.DETECT_PARTITION if oid_is_self else MaintenanceCase.GENERATE_NO_REACTION


def _reversal_state(rng, levels_equal, r, oid_is_self, me=1):
    state = NodeToraState(node=me, destination=999)
    oid = me if oid_is_self else me + 40
    for idx in range(rng.randint(2, 6)):
        j = 10 + idx
        state.add_link(j)
        if levels_equal or idx > 0:
            level = (50.0, oid, r)
        else:
            level = (50.0, oid, 1 - r) if rng.random() < 0.5 else (49.0, oid, r)
        state.set_mirror(j, Height(level[0], level[1], level[2], rng.randint(0, 6), j))
    state.set_own_height(Height(0.0, 0, 0, 1, me))
    return state


def test_criterion_4_maintenance_decision_table():
    """Exhaustive and randomized agreement with an independent case table."""
    rng = random.Random(11)
    combos = list(itertools.product(
        (Trigger.LINK_FAILURE, Trigger.UPD_REVERSAL), (False, True), (0, 1), (False, True)
    ))
    checked = 0
    for trigger, levels_equal, r, oid_is_self in combos:
        for _ in range(4):
            state = _reversal_state(rng, levels_equal, r, oid_is_self)
            out = maintenance_case(state, trigger, now=100.0)
            assert out.case is _maintenance_oracle(trigger, levels_equal, r, oid_is_self)
            checked += 1
    for _ in range(500):
        trigger = rng.choice((Trigger.LINK_FAILURE, Trigger.UPD_REVERSAL))
        levels_equal = rng.random() < 0.5
        r = rng.randint(0, 1)
        oid_is_self = rng.random() < 0.5
        state = _reversal_state(rng, levels_equal, r, oid_is_self)
        out = maintenance_case(state, trigger, now=100.0)
        assert out.case is _maintenance_oracle(trigger, levels_equal, r, oid_is_self)
        checked += 1
    assert checked == len(combos) * 4 + 500
    _passline(4, "maintenance decision table")


BARBELL = (
    list(itertools.combinations([0, 1, 2, 3], 2))
    + list(itertools.combinations([4, 5, 6, 7], 2))
    + [(3, 4)]
)


def test_criterion_5_partition_detection_on_barbell():
    """Severing the bridge is detected within 50 events; the stranded side
    erases every height and route, and no CLR crosses the cut."""
    sc = static_scenario(
        8, BARBELL,
        flows=[flow(0, 7, rate=2.0, start=2.0, stop=4.8)],
        link_failures=[{"time_s": 5.05, "a": 3, "b": 4}],
        end_time_s=8.0, seed=3,
    )
    sim = Simulation(sc)
    log = attach_log(sim)
    sim.run()
    fail_pop = next(p for p, t, n, tag, d in log if tag == "link_failure")
    detections = [
        (p, n) for p, t, n, tag, d in log
        if tag == "partition_detected" and d["dest"] == 7
    ]
    assert detections, "no partition detected"
    assert detections[0][0] - fail_pop <= 50, "detection took too many events"
    for node in (0, 1, 2, 3):
        agent = sim.agents[node]
        state = agent.tora.get(7)
        assert state is not None and state.own_height.is_null
        assert all(not entries for entries in agent.cache.values())
    crossed = [
        r for r in sim.records
        if r.event == "rcv" and isinstance(r.packet, ClrPacket) and r.node >= 4
    ]
    assert crossed == []
    _passline(5, "partition detection and erasure")


def _oracle_paths(n, edges, caps, scenario):
    """All simple paths source->dest with their aggregated metrics, computed
    from scratch (independent fold over the configured radio numbers)."""
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    proc = scenario.links.processing
    hello = scenario.hello_bits
    metric_bits = scenario.metric_packet_bits

    def est_bw(cap):
        return hello / (hello / cap + scenario.links.propagation + proc)

    out = {}
    dest = n - 1

    def walk(path):
        tail = path[-1]
        if tail == dest:
            delay = sum(
                scenario.links.propagation + metric_bits / caps[(min(a, b), max(a, b))]
                for a, b in zip(path, path[1:])
            ) + len(path) * proc
            bw = min(est_bw(caps[(min(a, b), max(a, b))]) for a, b in zip(path, path[1:]))
            out[tuple(path)] = (delay, bw, len(path))
            return
        for j in sorted(adj[tail]):
            if j not in path:
                walk(path + [j])

    walk([0])
    return out


def test_criterion_6_qos_admission_soundness_and_completeness():
    """Every cached route satisfies the constraints, and cached paths form a
    subset of the exhaustively enumerated QoS-feasible simple paths."""
    cap_choices = (5e5, 1e6, 2e6)
    for i in range(50):
        n = random.Random(3000 + i).randint(5, 8)
        edges = connected_random_graph(n, 0.5, seed=4000 + i)
        cap_rng = random.Random(6000 + i)
        caps = {e: cap_rng.choice(cap_choices) for e in sorted(edges)}
        overrides = [
            {"a": a, "b": b, "capacity_bps": caps[(a, b)]} for a, b in sorted(edges)
        ]
        base = static_scenario(
            n, edges, flows=[flow(0, n - 1, rate=1.0, start=2.0, stop=2.5)],
            end_time_s=4.0, seed=i, links={"overrides": overrides},
        )
        oracle = _oracle_paths(n, edges, caps, base)
        delays = sorted(v[0] for v in oracle.values())
        bws = sorted(v[1] for v in oracle.values())
        best = min(oracle.values(), key=lambda v: v[0])
        max_delay = (best[0] + delays[-1]) / 2 if delays[-1] > best[0] else best[0] * 1.5
        min_bw = (best[1] + bws[0]) / 2 if bws[0] < best[1] else best[1] * 0.5
        sc = static_scenario(
            n, edges, flows=[flow(0, n - 1, rate=1.0, start=2.0, stop=2.5)],
            end_time_s=4.0, seed=i, links={"overrides": overrides},
            qos={"max_delay_s": max_delay, "min_bandwidth_bps": min_bw},
        )
        feasible = {
            p for p, (delay, bw, hops) in oracle.items()
            if delay <= max_delay and bw >= min_bw and hops <= sc.qos.max_hop_count
        }
        assert feasible, f"graph {i}: thresholds exclude everything"
        _, _, sim = run_single(sc)
        cached = {e.path for e in sim.agents[0].cache.get(n - 1, [])}
        for entry in sim.agents[0].cache.get(n - 1, []):
            assert sc.qos.admits(entry.metrics), f"graph {i}: unsound cache entry"
        assert cached <= feasible, f"graph {i}: cached {cached - feasible} infeasible"
    _passline(6, "QoS admission soundness and desk-scale completeness")


LOCALITY_GRAPH_SEEDS = [
    5065, 5113, 5142, 5145, 5148, 5161, 5198, 5203, 5227, 5265,
    5274, 5310, 5311, 5325, 5353, 5360, 5387, 5392, 5394, 5395,
]


def _find_cut(n, edges, sim):
    """An edge whose loss strands exactly one node's last downstream link,
    away from the data path, leaving the graph connected."""
    dest = n - 1
    data_hops = set()
    for r in sim.records:
        if isinstance(r.packet, DataPacket) and r.event == "snd":
            p = r.packet.path
            data_hops.update((min(a, b), max(a, b)) for a, b in zip(p, p[1:]))
    for u in range(n):
        if u == dest:
            continue
        state = sim.agents[u].tora.get(dest)
        if state is None:
            continue
        dn = [j for j, ls in sorted(state.links.items()) if ls.direction is Direction.DN]
        up = [j for j, ls in sorted(state.links.items()) if ls.direction is Direction.UP]
        if len(dn) != 1 or not up:
            continue
        e = (min(u, dn[0]), max(u, dn[0]))
        if e in data_hops:
            continue
        if _connected(n, [x for x in edges if x != e]):
            return e
    return None


def test_criterion_7_reaction_locality():
    """Case 1 failures stay silent; reversal touches strictly fewer nodes
    than rediscovering from scratch on the same topology."""
    # surviving downstream: node 2 keeps routes via both 3 (dest) and 1
    edges = [(0, 2), (0, 1), (1, 3), (2, 3), (1, 2)]
    sc = static_scenario(
        4, edges, flows=[flow(0, 3, rate=1.0, start=2.0, stop=2.5)],
        link_failures=[{"time_s": 5.0, "a": 2, "b": 3}], end_time_s=7.0, seed=1,
    )
    _, case1_metrics, sim = run_single(sc)
    late_control = [
        r for r in sim.records
        if r.event == "snd" and r.timestamp >= 5.0
        and isinstance(r.packet, (UpdPacket, ClrPacket))
    ]
    assert late_control == [], "case 1 must emit no height updates"
    assert case1_metrics.reaction_locality == {1: 0}, "case 1 must move no heights"

    # reversal reaction set vs full rediscovery, paired runs
    for graph_seed in LOCALITY_GRAPH_SEEDS:
        run_seed = graph_seed - 5000
        n = 9
        edges = connected_random_graph(n, 0.5, seed=graph_seed)
        probe_sc = static_scenario(
            n, edges, flows=[flow(0, n - 1, rate=1.0, start=2.0, stop=2.5)],
            end_time_s=3.5, seed=run_seed,
        )
        _, probe_metrics, probe = run_single(probe_sc)
        assert probe_metrics.pdr == 1.0
        cut = _find_cut(n, edges, probe)
        assert cut is not None, f"graph seed {graph_seed} lost its cut edge"
        failed_sc = static_scenario(
            n, edges, flows=[flow(0, n - 1, rate=1.0, start=2.0, stop=2.5)],
            link_failures=[{"time_s": 5.0, "a": cut[0], "b": cut[1]}],
            end_time_s=8.0, seed=run_seed,
        )
        failed = Simulation(failed_sc)
        failed_log = attach_log(failed)
        failed.run()
        reaction = {
            node for _, t, node, tag, _ in failed_log
            if tag == "height" and t >= 5.0
        }
        assert reaction, f"graph seed {graph_seed}: nothing reacted"
        fresh_sc = static_scenario(
            n, [e for e in edges if e != cut],
            flows=[flow(0, n - 1, rate=1.0, start=2.0, stop=2.5)],
            end_time_s=3.5, seed=run_seed,
        )
        _, _, fresh = run_single(fresh_sc)
        touched = {
            r.node for r in fresh.records
            if r.event == "rcv" and isinstance(r.packet, (QryRequestAnt, QryReplyAnt))
        }
        assert len(reaction) < len(touched), (
            f"graph seed {graph_seed}: reversal touched {len(reaction)} nodes, "
            f"rediscovery {len(touched)}"
        )
    _passline(7, "reaction locality")


PARALLEL8 = [(0, 1), (1, 2), (2, 7), (0, 3), (3, 4), (4, 7), (0, 5), (5, 6), (6, 7)]


def test_criterion_8_static_lossless_delivery():
    """Ten packets over a static connected network: delivery ratio exactly
    one, measured delay equal to the per-hop analytic sum."""
    sc = static_scenario(
        8, PARALLEL8,
        flows=[flow(0, 7, rate=2.0, bits=1000, start=3.0, stop=7.99)],
        end_time_s=9.0, seed=2,
    )
    lines, metrics, sim = run_single(sc)
    assert metrics.data_sent == 10
    assert metrics.pdr == 1.0
    paths = {
        r.packet.path for r in sim.records
        if r.event == "snd" and isinstance(r.packet, DataPacket) and r.node == 0
    }
    assert len(paths) == 1, f"route flapped: {paths}"
    path = paths.pop()
    per_hop = [
        1000 / sc.links.params(a, b)[0] + sc.links.params(a, b)[1] + sc.links.processing
        for a, b in zip(path, path[1:])
    ]
    assert abs(metrics.mean_end_to_end_delay - sum(per_hop)) < 1e-9
    _passline(8, "static lossless delivery at analytic delay")


def test_criterion_9_determinism_and_replay(tmp_path):
    """Identical (scenario, seed) pairs produce byte-identical traces, and
    replay reproduces the report exactly."""
    sc = static_scenario(
        8, BARBELL,
        flows=[flow(0, 7, rate=2.0, start=2.0, stop=4.8)],
        link_failures=[{"time_s": 5.05, "a": 3, "b": 4}],
        end_time_s=8.0, seed=3,
    )
    first, metrics_a, _ = run_single(sc, seed=3)
    second, metrics_b, _ = run_single(sc, seed=3)
    path_a, path_b = tmp_path / "a.trace", tmp_path / "b.trace"
    write_trace(str(path_a), first)
    write_trace(str(path_b), second)
    assert path_a.read_bytes() == path_b.read_bytes()
    report = run_experiment(sc, repetitions=1, base_seed=3, trace_path=str(tmp_path / "r.trace"))
    replayed = replay(str(tmp_path / "r.trace"))
    assert replayed.to_dict() == report["runs"][0]["metrics"]
    assert metrics_a.to_dict() == metrics_b.to_dict()
    _passline(9, "determinism and trace replay")
