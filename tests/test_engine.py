"""Event engine: ordering, delivery arithmetic, mobility, determinism."""

from __future__ import annotations

import pytest

from anttora.engine import MobilityNode, Simulation
from anttora.metrics import compute_metrics
from anttora.packets import DataPacket, HelloAnt, decode_trace_record
from anttora.scenario import parse_scenario

from conftest import attach_log, flow, static_scenario


def run(scenario, seed=None, mode=None):
    return Simulation(scenario, seed=seed, mode=mode).run()


# ---------------------------------------------------------------------------
# run contract


def test_empty_scenario_is_a_vacuous_run():
    sc = parse_scenario({"nodes": {"count": 0}, "end_time_s": 5.0})
    sim = run(sc)
    assert sim.trace_lines() == []
    metrics = compute_metrics(sim.trace_lines())
    assert metrics.pdr == 0.0
    assert metrics.data_sent == 0
    assert metrics.energy_spent == {}


def test_same_seed_gives_identical_trace_bytes():
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    a = "\n".join(run(sc).trace_lines())
    b = "\n".join(run(sc).trace_lines())
    assert a == b


def test_static_line_delivers_everything_with_analytic_delay():
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3, rate=2.0, start=2.0, stop=4.0)])
    sim = run(sc)
    metrics = compute_metrics(sim.trace_lines())
    assert metrics.pdr == 1.0
    per_hop = 1000 / 2e6 + 1e-3 + 5e-4
    assert metrics.mean_end_to_end_delay == pytest.approx(3 * per_hop, abs=1e-9)


def test_event_order_and_causality():
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    sim = run(sc)
    # every receive strictly follows the matching send
    sends = {}
    for rec in sim.records:
        key = rec.packet
        if rec.event == "snd":
            sends.setdefault(key, rec.timestamp)
        elif rec.event == "rcv":
            assert rec.timestamp > sends[key]


def test_frame_conservation_ledger():
    sc = static_scenario(
        8,
        [(i, i + 1) for i in range(7)] + [(0, 7)],
        flows=[flow(0, 4, rate=4.0, start=2.0, stop=6.0)],
    )
    sim = run(sc)
    c = sim.counters
    # a frame dropped at send never counts as sent
    assert c["frames_sent"] + c["drop_link_down_at_send"] == c["frames_delivered"] + c["frames_dropped"]


def test_connectivity_is_symmetric():
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)])
    sim = Simulation(sc)
    for a in range(4):
        for b in range(4):
            assert (b in sim._neighbors(a)) == (a in sim._neighbors(b))


# ---------------------------------------------------------------------------
# delivery arithmetic


def test_delivery_time_arithmetic():
    sc = parse_scenario(
        {
            "nodes": {"count": 2},
            "topology": {"adjacency": [[0, 1]]},
            "links": {"capacity_bps": 1e6, "propagation_delay_s": 1e-3, "processing_delay_s": 5e-4},
            "end_time_s": 2.0,
        }
    )
    sim = Simulation(sc)
    pkt = DataPacket(0, 1, 0, 1000, (0, 1))
    sim.deliver(pkt, 0, 1, now=1.0)
    (arrival,) = [t for t, _seq, handler, _args in sim.queue if handler == sim._on_delivery]
    assert arrival == pytest.approx(1.0 + 0.001 + 0.001 + 0.0005, abs=1e-12)


def test_broadcast_fans_out_to_each_neighbor():
    sc = static_scenario(4, [(0, 1), (0, 2), (0, 3)])
    sim = Simulation(sc)
    from anttora.agent import Emission

    hello = HelloAnt(0, 0.0, 100.0, 0.0, 512)
    sim.process_emissions(0, [Emission(hello)], 0.0)
    deliveries = [args for _t, _seq, handler, args in sim.queue if handler == sim._on_delivery]
    assert len(deliveries) == 3
    assert sorted(args[2] for args in deliveries) == [1, 2, 3]


def test_send_on_downed_link_is_counted_drop():
    sc = static_scenario(2, [(0, 1)])
    sim = Simulation(sc)
    sim.links.clear()
    queued = len(sim.queue)
    sim.deliver(DataPacket(0, 1, 0, 100, (0, 1)), 0, 1, 0.5)
    assert len(sim.queue) == queued
    assert sim.counters["drop_link_down_at_send"] == 1


def test_inflight_frame_dies_with_its_link():
    # discovery finishes near t=2.004, the queued data flushes and flies at
    # 2.004..2.006; the link dies at 2.005 with the frames still in the air
    sc = static_scenario(
        2,
        [(0, 1)],
        flows=[flow(0, 1, rate=1000.0, start=2.0, stop=2.0015)],
        link_failures=[{"time_s": 2.005, "a": 0, "b": 1}],
        end_time_s=4.0,
    )
    sim = run(sc)
    assert sim.counters["drop_cancelled_in_flight"] >= 1
    drops = [r for r in sim.records if r.event == "drp" and isinstance(r.packet, DataPacket)]
    assert drops


# ---------------------------------------------------------------------------
# mobility


def link_changes(sim):
    """Queued link changes as (time, seq, up), in the order they were scheduled."""
    return [
        (t, seq, args[2])
        for t, seq, handler, args in sorted(sim.queue, key=lambda ev: ev[1])
        if handler == sim._on_link_change
    ]


def mobility_scenario(**over):
    data = {
        "nodes": {"count": 2, "positions": [[0.0, 0.0], [100.0, 0.0]]},
        "topology": {"mode": "mobility", "area": [400.0, 400.0], "speed": [0.0, 0.0],
                     "comm_range": 150.0, "step": 0.1},
        "end_time_s": 3.0,
        "seed": 5,
    }
    for key, value in over.items():
        if isinstance(value, dict) and key in data:
            data[key].update(value)
        else:
            data[key] = value
    return parse_scenario(data)


def test_zero_speed_never_changes_links():
    sim = run(mobility_scenario())
    assert sim.failure_events == []
    assert sim.links == {(0, 1)}


def test_moving_apart_emits_one_down_event_at_crossing_time():
    sc = mobility_scenario()
    sim = Simulation(sc)
    # node 1 walks straight away from node 0 at 20 m/s from x=100
    sim.mobility[1] = MobilityNode(pos=(100.0, 0.0), target=(400.0, 0.0), speed=20.0)
    now = 0.0
    while now < 3.0 - 1e-9:
        sim.now = now
        sim.step_mobility(0.1)
        now += 0.1
    downs = [c for c in link_changes(sim) if not c[2]]
    assert len(downs) == 1
    # range 150 crossed after covering 50 m at 20 m/s
    assert downs[0][0] == pytest.approx(2.5, abs=1e-9)


def test_return_crossing_orders_down_then_up():
    sc = mobility_scenario()
    sim = Simulation(sc)
    # out just beyond range, then back: one down, then one up, ordered
    sim.mobility[1] = MobilityNode(pos=(145.0, 0.0), target=(155.0, 0.0), speed=100.0)
    sim.now = 0.0
    sim.step_mobility(0.1)
    sim.mobility[1].target = (100.0, 0.0)
    sim.mobility[1].speed = 100.0
    sim.now = 0.1
    sim.step_mobility(0.1)
    changes = link_changes(sim)
    assert [c[2] for c in changes] == [False, True]
    assert changes[0][:2] < changes[1][:2]


def test_pause_time_holds_then_releases_the_node():
    sc = mobility_scenario(topology={"speed": [10.0, 10.0], "pause_time": 0.5})
    sim = Simulation(sc)
    m = sim.mobility[1]
    m.pos, m.target, m.speed = (100.0, 0.0), (101.0, 0.0), 10.0
    sim.now = 0.0
    sim.step_mobility(0.2)  # arrives at t=0.1, pauses until 0.6
    assert m.pos == (101.0, 0.0)
    assert m.pause_until == pytest.approx(0.6)
    frozen_target = m.target
    sim.now = 0.2
    sim.step_mobility(0.2)
    assert m.pos == (101.0, 0.0)
    assert m.target == frozen_target
    sim.now = 0.4
    sim.step_mobility(0.4)  # pause expires at 0.6 and a fresh leg begins
    assert m.target != frozen_target or m.pos != (101.0, 0.0)
    assert m.pause_until == pytest.approx(0.6)


def test_mobile_relay_walking_away_breaks_the_flow():
    """A relay drifting out of range mid-flow kills both its links; traffic
    delivered before the break counts, the rest is lost, ledgers balance."""
    data = {
        "nodes": {"count": 3, "positions": [[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]]},
        "topology": {"mode": "mobility", "area": [400.0, 400.0], "speed": [0.0, 0.0],
                     "comm_range": 150.0, "step": 0.1},
        "traffic": [flow(0, 2, rate=4.0, start=1.5, stop=4.0)],
        "end_time_s": 5.0,
        "seed": 6,
    }
    sim = Simulation(parse_scenario(data))
    relay = sim.mobility[1]
    relay.target, relay.speed = (100.0, 400.0), 50.0
    sim.run()
    # both links die when the relay is ~111.8 m up, at t ~ 2.236
    assert len(sim.failure_events) == 2
    assert all(2.2 < t < 2.3 for _, t, _, _ in sim.failure_events)
    c = sim.counters
    assert c["data_offered"] == 10
    assert 1 <= c["data_delivered"] < c["data_offered"]
    assert c["frames_sent"] + c["drop_link_down_at_send"] == c["frames_delivered"] + c["frames_dropped"]


def test_mobility_run_is_deterministic():
    data = {
        "nodes": {"count": 6},
        "topology": {"mode": "mobility", "area": [300.0, 300.0], "speed": [1.0, 10.0],
                     "comm_range": 120.0, "step": 0.1, "placement_seed": 3},
        "traffic": [flow(0, 5, rate=1.0, start=2.0, stop=5.0)],
        "end_time_s": 6.0,
        "seed": 9,
    }
    a = run(parse_scenario(data)).trace_lines()
    b = run(parse_scenario(data)).trace_lines()
    assert a == b


# ---------------------------------------------------------------------------
# energy


def test_dead_node_stops_transmitting():
    sc = parse_scenario(
        {
            "nodes": {"count": 2, "initial_energy": 4e-4},
            "topology": {"adjacency": [[0, 1]]},
            "end_time_s": 5.0,
        }
    )
    sim = run(sc)
    # hello costs 512 * 5e-7 = 2.56e-4 J to send: the second beacon is refused
    assert sim.counters["tx_suppressed"] >= 1
    for rec in sim.records:
        if rec.event == "snd":
            assert isinstance(rec.packet, HelloAnt)


def test_expired_route_triggers_rediscovery_and_still_delivers():
    sc = parse_scenario(
        {
            "nodes": {"count": 3},
            "topology": {"adjacency": [[0, 1], [1, 2]]},
            "protocol": {"route_ttl_s": 4.0},
            "traffic": [
                flow(0, 2, rate=1.0, start=2.0, stop=2.5),
                flow(0, 2, rate=1.0, start=9.0, stop=9.5),
            ],
            "end_time_s": 11.0,
            "seed": 4,
        }
    )
    sim = Simulation(sc)
    log = attach_log(sim)
    sim.run()
    assert sim.counters["data_delivered"] == 2
    discoveries = [e for e in log if e[3] == "discovery_started"]
    assert len(discoveries) == 2


def test_energy_dead_neighbor_detected_by_hello_silence():
    # node 1 can afford roughly three beacons before its battery refuses
    sc = parse_scenario(
        {
            "nodes": {"count": 2, "initial_energy": 100.0},
            "topology": {"adjacency": [[0, 1]]},
            "end_time_s": 9.0,
        }
    )
    sim = Simulation(sc)
    sim.agents[1].energy.residual = 7e-4
    log = attach_log(sim)
    sim.run()
    lost = [e for e in log if e[3] == "neighbor_lost" and e[2] == 0]
    assert lost, "surviving node never noticed the silent neighbor"
    assert 1 not in sim.agents[0].neighbors


def test_trace_energy_matches_agent_debits():
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    sim = run(sc)
    metrics = compute_metrics(sim.trace_lines())
    for node, agent in sim.agents.items():
        spent = sc.nodes.initial_energy - agent.energy.residual
        assert metrics.energy_spent.get(node, 0.0) == pytest.approx(spent, abs=1e-12)


def test_trace_records_decode_and_stay_ordered():
    sc = static_scenario(4, [(0, 1), (1, 2), (2, 3)], flows=[flow(0, 3)])
    lines = run(sc).trace_lines()
    events = [l for l in lines if not l.startswith("#")]
    assert events == sorted(events)
    for line in events:
        decode_trace_record(line)
