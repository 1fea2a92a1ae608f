"""Protocol handlers: discovery, maintenance, erasure, and the data plane.

These tests drive agents directly through a tiny in-test packet pump so the
hand-traces stay independent of the event engine.
"""

from __future__ import annotations

import heapq
import math

import pytest

from anttora.agent import (
    NodeAgent,
    NodeEnergy,
    ProtocolParams,
    QosConstraints,
    SimClockError,
)
from anttora.heights import Direction, Height, classify_link, has_downstream
from anttora.packets import (
    PACKET_KINDS,
    ClrPacket,
    DataPacket,
    ErrorPacket,
    HelloAnt,
    QryReplyAnt,
    QryRequestAnt,
    UpdPacket,
)
from anttora.scenario import LinkSpec

CAPACITY, PROP, PROC = 2e6, 1e-3, 5e-4
HOP_DELAY = 0.002  # nominal control-packet flight time used by the pump


class MiniNet:
    """Deterministic broadcast pump linking a handful of agents."""

    def __init__(self, n, edges, params=None, energy=100.0):
        self.links = LinkSpec(CAPACITY, PROP, PROC)
        self.params = params or ProtocolParams()
        self.agents = {
            i: NodeAgent(i, self.params, self.links, energy) for i in range(n)
        }
        self.adj = {i: set() for i in range(n)}
        for a, b in edges:
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.queue = []
        self.counter = 0
        self.sent = []       # (time, frm, packet)
        self.delivered = []  # data packets that reached their destination

    def links_up(self, t=0.0):
        for i in sorted(self.agents):
            for j in sorted(self.adj[i]):
                self.push_emissions(i, self.agents[i].link_up(j, t), t)

    def hello_round(self, t):
        for i in sorted(self.agents):
            self.push_emissions(i, self.agents[i].hello_tick(t), t)
        self.pump()

    def push_emissions(self, frm, emissions, t):
        for em in emissions:
            self.sent.append((t, frm, em.packet))
            targets = [em.to] if em.to is not None else sorted(self.adj[frm])
            for to in targets:
                if to in self.adj[frm] or em.to is None:
                    self.counter += 1
                    heapq.heappush(self.queue, (t + HOP_DELAY, self.counter, frm, to, em.packet))

    def pump(self):
        while self.queue:
            t, _, frm, to, pkt = heapq.heappop(self.queue)
            if to not in self.adj[frm]:
                continue
            if isinstance(pkt, DataPacket) and pkt.destination == to:
                self.delivered.append(pkt)
            handler = getattr(self.agents[to], PACKET_KINDS[type(pkt)].handler)
            self.push_emissions(to, handler(pkt, frm, t), t)

    def cut(self, a, b, t):
        self.adj[a].discard(b)
        self.adj[b].discard(a)
        self.push_emissions(a, self.agents[a].on_link_failure(b, t), t)
        self.push_emissions(b, self.agents[b].on_link_failure(a, t), t)
        self.pump()

    def discover(self, src, dst, t):
        self.push_emissions(src, self.agents[src].start_discovery(dst, t), t)
        self.pump()

    def count_sent(self, cls, since=0.0):
        return sum(1 for t, _, p in self.sent if isinstance(p, cls) and t >= since)


def warmed(n, edges, **kwargs):
    net = MiniNet(n, edges, **kwargs)
    net.links_up(0.0)
    net.hello_round(0.0)
    net.hello_round(1.0)
    return net


# ---------------------------------------------------------------------------
# hello processing


def test_hello_bandwidth_estimate():
    agent = NodeAgent(1, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    agent.link_up(2, 0.0)
    assert agent.on_hello(HelloAnt(2, 1.0, 50.0, 0.25, 1000), 2, 1.001) == []
    info = agent.neighbors[2]
    assert info.est_bandwidth == pytest.approx(1e6)
    assert info.residual_energy == 50.0


def test_later_hello_wins_entirely():
    agent = NodeAgent(1, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    agent.link_up(2, 0.0)
    agent.on_hello(HelloAnt(2, 1.0, 50.0, 0.25, 1000), 2, 1.001)
    agent.on_hello(HelloAnt(2, 2.0, 40.0, 0.5, 1000), 2, 2.002)
    info = agent.neighbors[2]
    assert info.residual_energy == 40.0
    assert info.est_bandwidth == pytest.approx(1000 / 0.002)
    assert info.last_hello == 2.002


def test_hello_clock_misuse_raises():
    agent = NodeAgent(1, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    with pytest.raises(SimClockError):
        agent.on_hello(HelloAnt(2, 1.0, 50.0, 0.25, 1000), 2, 1.0)


def test_silent_neighbor_is_dropped_after_three_intervals():
    net = warmed(2, [(0, 1)])
    agent = net.agents[0]
    assert 1 in agent.neighbors
    # neighbor 1 last spoke at t=1; at t=5 it is 4 intervals silent
    agent.hello_tick(5.0)
    assert 1 not in agent.neighbors
    assert 1 not in agent.link_activated_at


# ---------------------------------------------------------------------------
# discovery: request side


def test_fresh_node_sets_rr_and_rebroadcasts():
    net = warmed(3, [(0, 1), (1, 2)])
    a = net.agents[1]
    req = QryRequestAnt(1.5, 0, 9, (0,))  # destination nowhere near
    out = a.on_qry_request(req, 0, 1.5)
    assert len(out) == 1
    fwd = out[0].packet
    assert isinstance(fwd, QryRequestAnt)
    assert fwd.visited == (0, 1)
    assert a.tora[9].route_required
    assert a.tora[9].own_height.is_null
    # second copy is discarded
    assert a.on_qry_request(req, 0, 1.6) == []


def test_loop_guard_drops_revisits():
    net = warmed(3, [(0, 1), (1, 2)])
    a = net.agents[1]
    req = QryRequestAnt(1.5, 0, 9, (0, 1, 2))
    assert a.on_qry_request(req, 2, 1.5) == []


def test_destination_adjacent_node_replies_with_synthesized_route():
    net = warmed(3, [(0, 1), (1, 2)])
    b = net.agents[1]
    req = QryRequestAnt(1.5, 0, 2, (0,))
    out = b.on_qry_request(req, 0, 1.5)
    assert len(out) == 1
    rep = out[0].packet
    assert isinstance(rep, QryReplyAnt)
    assert rep.path_nodes == (1, 2)
    assert rep.hop_count == 2
    assert rep.reporter_height == Height(0.0, 0, 0, 1, 1)
    # the synthesized two-node metrics match the configured radio numbers
    link_delay = PROP + net.params.metric_packet_bits / CAPACITY
    assert rep.delay == pytest.approx(link_delay + 2 * PROC)


def test_destination_itself_answers_with_zero_height_seed():
    net = warmed(2, [(0, 1)])
    d = net.agents[1]
    req = QryRequestAnt(1.5, 0, 1, (0,))
    out = d.on_qry_request(req, 0, 1.5)
    assert len(out) == 1
    rep = out[0].packet
    assert rep.hop_count == 1
    assert rep.path_nodes == (1,)
    assert rep.reporter_height == Height.zero(1)
    assert rep.delay == pytest.approx(PROC)


def test_line_topology_discovery_hand_trace():
    """S-A-B-D line: the destination-adjacent node answers, each hop back
    toward the source relays exactly once, and the source caches one route."""
    net = warmed(4, [(0, 1), (1, 2), (2, 3)])
    net.discover(0, 3, 1.5)
    replies = [(t, frm) for t, frm, p in net.sent if isinstance(p, QryReplyAnt)]
    by_node = {}
    for _, frm in replies:
        by_node[frm] = by_node.get(frm, 0) + 1
    assert by_node.get(2) == 1  # destination-adjacent node originates
    assert by_node.get(1) == 1  # relay
    s = net.agents[0]
    assert len(s.cache[3]) == 1
    entry = s.cache[3][0]
    assert entry.path == (0, 1, 2, 3)
    assert entry.metrics.hop_count == 4
    assert not s.tora[3].route_required
    assert s.tora[3].own_height == Height(0.0, 0, 0, 3, 0)


def test_diamond_topology_caches_two_disjoint_paths():
    # 0-1-3 and 0-2-3
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    paths = sorted(e.path for e in s.cache[3])
    assert paths == [(0, 1, 3), (0, 2, 3)]
    prefs = [e.preference for e in s.cache[3]]
    assert all(0.0 <= p <= 1.0 for p in prefs)
    assert sum(prefs) == pytest.approx(1.0, abs=1e-9)


def test_reply_extension_increments_hops_and_updates_pheromone():
    net = warmed(2, [(0, 1)])
    s = net.agents[0]
    tau_before = s.pheromone[1]
    net.discover(0, 1, 1.5)
    assert s.cache[1][0].metrics.hop_count == 2
    assert s.pheromone[1] > tau_before * net.params.preference_weights.persistence
    cand = s.candidates[1][1]
    assert cand.path == (0, 1)


def test_rr_unset_reply_updates_links_without_relay():
    net = warmed(3, [(0, 1), (1, 2)])
    a = net.agents[1]
    rep = QryReplyAnt(1, PROC, 90.0, 0.01, 1e6, 5, 2, (2,), Height.zero(2))
    out = a.on_qry_reply(rep, 2, 2.0)
    assert out == []  # not route-required, nothing to relay
    assert a.tora[2].links[2] == Height.zero(2)
    assert 2 in a.candidates[2]


def test_reply_for_unknown_request_not_cached():
    net = warmed(3, [(0, 1), (1, 2)])
    a = net.agents[1]
    # a reply claiming node 1 is the source, but node 1 never initiated
    rep = QryReplyAnt(1, PROC, 90.0, 0.01, 1e6, 1, 2, (2,), Height.zero(2))
    a.on_qry_reply(rep, 2, 2.0)
    assert a.cache.get(2, []) == []


# ---------------------------------------------------------------------------
# admission


def test_qos_admission_rejects_slow_route():
    params = ProtocolParams(qos=QosConstraints(max_delay=1e-4))
    net = warmed(4, [(0, 1), (1, 2), (2, 3)], params=params)
    net.discover(0, 3, 1.5)
    assert net.agents[0].cache.get(3, []) == []


def test_baseline_mode_skips_admission_and_pheromone():
    params = ProtocolParams(qos=QosConstraints(max_delay=1e-4), baseline=True)
    net = warmed(4, [(0, 1), (1, 2), (2, 3)], params=params)
    tau_before = dict(net.agents[0].pheromone)
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    assert len(s.cache[3]) == 1
    assert s.cache[3][0].preference == 1.0
    assert s.pheromone == tau_before


def test_hop_count_counts_nodes_including_endpoints():
    params = ProtocolParams(qos=QosConstraints(max_hop_count=3))
    net = warmed(4, [(0, 1), (1, 2), (2, 3)], params=params)
    net.discover(0, 3, 1.5)  # 4 nodes on the only path
    assert net.agents[0].cache.get(3, []) == []


# ---------------------------------------------------------------------------
# data plane


def test_send_data_picks_highest_preference():
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    best = max(s.cache[3], key=lambda e: e.preference)
    out = s.send_data(3, 1000, seq=0, now=2.0)
    assert out[0].packet.path == best.path
    assert out[0].to == best.path[1]


def test_send_data_tie_breaks_by_age():
    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    from anttora.agent import RouteCacheEntry
    from anttora.aco import PathMetrics

    m = PathMetrics(0.01, 1e6, 50.0, 0.1, 3)
    agent.cache[3] = [
        RouteCacheEntry((0, 2, 3), m, 0.5, created_at=2.0, expires_at=50.0),
        RouteCacheEntry((0, 1, 3), m, 0.5, created_at=1.0, expires_at=50.0),
    ]
    out = agent.send_data(3, 500, seq=0, now=3.0)
    assert out[0].packet.path == (0, 1, 3)


def test_send_data_without_route_queues_and_discovers_once():
    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    out = agent.send_data(3, 500, seq=0, now=1.0)
    assert [type(em.packet) for em in out] == [QryRequestAnt]
    # the discovery is still running: queue, but send nothing
    assert agent.send_data(3, 600, seq=1, now=1.1) == []
    assert agent.data_queue[3] == [(0, 500), (1, 600)]


def test_queued_data_flushes_on_first_route():
    net = warmed(3, [(0, 1), (1, 2)])
    s = net.agents[0]
    net.push_emissions(0, s.send_data(2, 800, seq=0, now=1.5), 1.5)
    net.pump()
    assert [p.seq for p in net.delivered] == [0]
    assert 2 not in s.data_queue


@pytest.mark.parametrize("queued, requests", [(True, 1), (False, 0)])
def test_link_failure_rediscovers_only_for_queued_data(queued, requests):
    # every reply is rejected, so the source ends its discovery without a route
    params = ProtocolParams(qos=QosConstraints(max_delay=1e-4))
    net = warmed(3, [(0, 1), (1, 2)], params=params)
    s = net.agents[0]
    if queued:
        net.push_emissions(0, s.send_data(2, 800, seq=0, now=1.5), 1.5)
        net.pump()
    else:
        net.discover(0, 2, 1.5)
    assert bool(s.data_queue.get(2)) == queued
    assert not s.tora[2].route_required
    out = s.on_link_failure(1, 5.0)
    assert sum(isinstance(em.packet, QryRequestAnt) for em in out) == requests


# ---------------------------------------------------------------------------
# maintenance


def test_case1_surviving_downstream_is_silent():
    # 0=source, 3=dest; node 2 holds two downstream links (3 and 1)
    net = warmed(4, [(0, 2), (0, 1), (1, 3), (2, 3), (1, 2)])
    net.discover(0, 3, 1.5)
    before = net.count_sent(UpdPacket) + net.count_sent(ClrPacket)
    assert before == 0
    net.cut(2, 3, 5.0)
    assert has_downstream(net.agents[2].tora[3])
    assert net.count_sent(UpdPacket, since=5.0) == 0
    assert net.count_sent(ClrPacket, since=5.0) == 0
    assert net.count_sent(ErrorPacket, since=5.0) == 0


def test_case2_failure_emits_error_and_new_reference_level():
    net = warmed(4, [(0, 1), (1, 2), (2, 3)])
    net.discover(0, 3, 1.5)
    # move one data packet so node 2 remembers forwarding for source 0
    net.push_emissions(0, net.agents[0].send_data(3, 500, seq=0, now=2.0), 2.0)
    net.pump()
    net.cut(2, 3, 5.0)
    errors = [p for t, _, p in net.sent if isinstance(p, ErrorPacket) and t >= 5.0]
    assert errors and errors[0].source == 0 and errors[0].originator == 2
    upds = [p for t, frm, p in net.sent
            if isinstance(p, UpdPacket) and t >= 5.0 and frm == 2]
    assert upds
    assert upds[0].height.level == (5.0, 2, 0)
    assert upds[0].height.delta == 0


def test_isolated_node_goes_null_without_upd():
    net = warmed(2, [(0, 1)])
    net.discover(0, 1, 1.5)
    net.cut(0, 1, 5.0)
    s = net.agents[0]
    assert s.tora[1].own_height.is_null
    assert net.count_sent(UpdPacket, since=5.0) == 0


def test_upd_with_surviving_downstream_is_absorbed():
    net = warmed(3, [(0, 1), (1, 2)])
    net.discover(0, 2, 1.5)
    a = net.agents[1]
    out = a.on_upd(UpdPacket(2, Height(9.0, 0, 0, 0, 0)), 0, 6.0)
    assert out == []  # link to destination 2 still downstream


def test_upd_reversal_reflects_uniform_level():
    net = warmed(3, [(0, 1), (1, 2)])
    a = net.agents[1]
    state = a._state_for(9)
    state.set_mirror(0, Height(0.0, 0, 0, 5, 0))
    state.set_own_height(Height(0.0, 0, 0, 6, 1))  # downstream via node 0
    # the downstream neighbor reverses onto a fresh unreflected level
    out = a.on_upd(UpdPacket(9, Height(9.0, 5, 0, 0, 0)), 0, 9.1)
    assert len(out) == 1
    upd = out[0].packet
    assert isinstance(upd, UpdPacket)
    assert upd.height == Height(9.0, 5, 1, 0, 1)


def test_upd_reversal_detects_partition_on_own_level():
    net = warmed(3, [(0, 1), (1, 2)])
    a = net.agents[1]
    state = a._state_for(9)
    state.set_mirror(0, Height(0.0, 0, 0, 5, 0))
    state.set_mirror(2, Height(9.0, 1, 1, 0, 2))  # already reflected our level
    state.set_own_height(Height(9.0, 1, 0, 0, 1))
    a.cache[9] = []
    out = a.on_upd(UpdPacket(9, Height(9.0, 1, 1, 1, 0)), 0, 9.6)
    assert len(out) == 1
    clr = out[0].packet
    assert isinstance(clr, ClrPacket)
    assert clr.reference_level == (9.0, 1, 1)
    assert a.tora[9].own_height.is_null
    assert a.cache.get(9, []) == []


# ---------------------------------------------------------------------------
# error handling


def test_error_purges_routes_through_originator():
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    assert len(s.cache[3]) == 2
    out = s.on_error(ErrorPacket(source=9, originator=1), 1, 6.0)
    assert [e.path for e in s.cache[3]] == [(0, 2, 3)]
    assert len(out) == 1  # not the source: forward the flood


def test_error_purge_keeps_unrelated_routes():
    from anttora.aco import PathMetrics
    from anttora.agent import RouteCacheEntry

    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    m = PathMetrics(0.01, 1e6, 50.0, 0.1, 3)
    agent.cache[9] = [
        RouteCacheEntry((0, 1, 9), m, 0.4, created_at=1.0, expires_at=50.0),
        RouteCacheEntry((0, 5, 9), m, 0.3, created_at=1.1, expires_at=50.0),
        RouteCacheEntry((0, 6, 5, 9), m, 0.3, created_at=1.2, expires_at=50.0),
    ]
    agent.on_error(ErrorPacket(source=8, originator=5), 1, 6.0)
    assert [e.path for e in agent.cache[9]] == [(0, 1, 9)] or len(agent.cache[9]) == 1
    # three routes, two through the originator: exactly one survives
    assert len(agent.cache[9]) == 1 and 5 not in agent.cache[9][0].path


def test_source_with_alternate_route_does_not_rediscover():
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    out = s.on_error(ErrorPacket(source=0, originator=1), 1, 6.0)
    assert out == []
    assert [e.path for e in s.cache[3]] == [(0, 2, 3)]


def test_source_with_empty_cache_starts_rediscovery():
    net = warmed(3, [(0, 1), (1, 2)])
    net.discover(0, 2, 1.5)
    s = net.agents[0]
    out = s.on_error(ErrorPacket(source=0, originator=1), 1, 6.0)
    assert s.cache[2] == []
    assert len(out) == 1
    assert isinstance(out[0].packet, QryRequestAnt)


def test_error_flood_deduplicates():
    net = warmed(3, [(0, 1), (1, 2)])
    a = net.agents[1]
    err = ErrorPacket(source=9, originator=5)
    assert len(a.on_error(err, 0, 6.0)) == 1
    assert a.on_error(err, 2, 6.1) == []


# ---------------------------------------------------------------------------
# route erasure


def test_clr_matching_level_resets_and_rebroadcasts():
    net = warmed(3, [(0, 1), (1, 2)])
    net.discover(0, 2, 1.5)
    a = net.agents[1]
    a.tora[2].set_own_height(Height(9.0, 5, 1, -1, 1))
    out = a.on_clr(ClrPacket(2, (9.0, 5, 1)), 0, 9.9)
    assert len(out) == 1
    assert a.tora[2].own_height.is_null
    # only the adjacent destination itself may remain downstream
    state = a.tora[2]
    for j, mirror in state.links.items():
        assert classify_link(state.own_height, mirror) is Direction.UN or j == 2


def test_clr_nonmatching_level_is_not_rebroadcast():
    net = warmed(3, [(0, 1), (1, 2)])
    net.discover(0, 2, 1.5)
    a = net.agents[1]
    out = a.on_clr(ClrPacket(2, (9.0, 5, 1)), 0, 9.9)
    assert out == []
    assert not a.tora[2].own_height.is_null


# ---------------------------------------------------------------------------
# route removal rules


def _agent_with_routes_to_9(neighbors):
    """Node 0 linked to ``neighbors``, holding three cached routes and a
    candidate via each of 1 and 2 toward destination 9."""
    from anttora.aco import PathMetrics
    from anttora.agent import Candidate, RouteCacheEntry

    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    for j in neighbors:
        agent.link_up(j, 0.0)
    agent._state_for(9)
    m = PathMetrics(0.01, 1e6, 50.0, 0.1, 3)
    agent.cache[9] = [
        RouteCacheEntry(path, m, 0.5, created_at=1.0, expires_at=50.0)
        for path in [(0, 1, 9), (0, 2, 1, 9), (0, 2, 9)]
    ]
    agent.candidates[9] = {
        1: Candidate(1, (0, 1, 9), m, created_at=1.0, expires_at=50.0),
        2: Candidate(2, (0, 2, 1, 9), m, created_at=1.0, expires_at=50.0),
    }
    return agent


def test_link_failure_drops_only_routes_whose_first_hop_failed():
    agent = _agent_with_routes_to_9([1, 2])
    agent.on_link_failure(1, 6.0)
    # (0, 2, 1, 9) crosses node 1 further along and stays, as does its candidate
    assert [e.path for e in agent.cache[9]] == [(0, 2, 1, 9), (0, 2, 9)]
    assert sorted(agent.candidates[9]) == [2]


def test_clr_drops_routes_through_any_reset_neighbor_but_candidates_only_via_one():
    agent = _agent_with_routes_to_9([1, 2, 3])
    state = agent.tora[9]
    state.set_own_height(Height(4.0, 7, 0, 0, 0))
    state.set_mirror(1, Height(9.0, 5, 1, 0, 1))  # only node 1 carries the erased level
    state.set_mirror(2, Height(4.0, 7, 0, -1, 2))
    assert agent.on_clr(ClrPacket(9, (9.0, 5, 1)), 3, 9.9) == []
    assert state.links[1].is_null and not state.links[2].is_null
    # every route through node 1 goes, wherever on the path it sits ...
    assert [e.path for e in agent.cache[9]] == [(0, 2, 9)]
    # ... but a candidate goes only when node 1 is its next hop
    assert sorted(agent.candidates[9]) == [2]


# ---------------------------------------------------------------------------
# invariants


def test_rr_flag_implies_null_height():
    net = warmed(4, [(0, 1), (1, 2), (2, 3)])
    net.discover(0, 3, 1.5)
    for agent in net.agents.values():
        for state in agent.tora.values():
            if state.route_required:
                assert state.own_height.is_null


def test_cached_paths_are_loop_free_and_admitted():
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    for agent in net.agents.values():
        for dest, entries in agent.cache.items():
            for e in entries:
                assert len(set(e.path)) == len(e.path)
                assert agent.params.qos.admits(e.metrics)


def test_energy_never_increases_and_debits_sum():
    e = NodeEnergy(residual=1.0)
    spent = 0.0
    for amount in (0.1, 0.3, 0.05):
        assert e.debit(amount)
        spent += amount
    assert e.residual == pytest.approx(1.0 - spent)
    assert not e.debit(10.0)  # refused, nothing changes
    assert e.residual == pytest.approx(1.0 - spent)


def test_drain_rate_matches_ewma_closed_form():
    alpha, window = 0.3, 1.0
    e = NodeEnergy(residual=100.0)
    debits = [0.02, 0.0, 0.5, 0.1, 0.0, 0.25]
    expect = 0.0
    for d in debits:
        if d:
            e.debit(d)
        e.tick(window, alpha)
        expect = alpha * (d / window) + (1 - alpha) * expect
        assert math.isclose(e.drain_rate, expect, abs_tol=1e-9)


def test_reply_handler_totality_for_rr_options():
    """Reply receipt lands in exactly one outcome per (rr, is_source) pair:
    adopters relay once, everyone else only refreshes link state."""
    for rr in (False, True):
        for is_source in (False, True):
            net = warmed(3, [(0, 1), (1, 2)])
            a = net.agents[1]
            state = a._state_for(9)
            state.route_required = rr
            if rr:
                a.pending_request[9] = QryRequestAnt(1.4, 0, 9, (0, 1))
            if is_source:
                a.initiated.add(9)
            source = 1 if is_source else 0
            rep = QryReplyAnt(2, 0.004, 90.0, 0.01, 2.5e5, source, 9, (2, 9), Height(0.0, 0, 0, 1, 2))
            out = a.on_qry_reply(rep, 2, 2.0)
            assert state.links[2] == Height(0.0, 0, 0, 1, 2)
            if rr:
                assert not state.route_required
                assert not state.own_height.is_null
            relayed = [e for e in out if isinstance(e.packet, QryReplyAnt)]
            if rr and not is_source:
                assert len(relayed) == 1
                assert relayed[0].packet.hop_count == 3
            else:
                assert relayed == []
            if is_source:
                assert [e.path for e in a.cache.get(9, [])] == [(1, 2, 9)]
            else:
                assert a.cache.get(9, []) == []


def test_incremental_extension_matches_batch_aggregation():
    """The hop-by-hop metric fold equals one-shot aggregation of the same
    per-link and per-node quantities."""
    from anttora.aco import aggregate_metrics

    net = warmed(4, [(0, 1), (1, 2), (2, 3)])
    net.discover(0, 3, 1.5)
    entry = net.agents[0].cache[3][0]
    est_bw = 512 / HOP_DELAY  # every hello flew for the pump's fixed hop delay
    link_metric_delay = PROP + net.params.metric_packet_bits / CAPACITY
    expected = aggregate_metrics(
        link_delays=[link_metric_delay] * 3,
        node_delays=[PROC] * 4,
        link_bandwidths=[est_bw] * 3,
        node_energies=[100.0] * 4,
        node_drain_rates=[0.0] * 4,
        node_count=4,
    )
    m = entry.metrics
    assert m.delay == pytest.approx(expected.delay, abs=1e-12)
    assert m.bandwidth == pytest.approx(expected.bandwidth, abs=1e-9)
    assert m.energy == expected.energy
    assert m.drain_rate == expected.drain_rate
    assert m.hop_count == expected.hop_count


def test_handler_totality_for_request_options():
    """Every (downstream, rr, height) combination lands in exactly one
    documented outcome of the request handler."""
    for downstream in (False, True):
        for rr in (False, True):
            for null_height in (False, True):
                net = warmed(3, [(0, 1), (1, 2)])
                a = net.agents[1]
                state = a._state_for(9)
                if downstream:
                    state.set_mirror(2, Height(0.0, 0, 0, 0, 2))
                if not null_height:
                    state.set_own_height(Height(1.0, 1, 0, 0, 1))
                state.route_required = rr and null_height  # rr implies null
                rr_before = state.route_required
                req = QryRequestAnt(1.5, 0, 9, (0,))
                out = a.on_qry_request(req, 0, 1.5)
                if not downstream and not rr_before:
                    assert len(out) == 1 and isinstance(out[0].packet, QryRequestAnt)
                elif not downstream:
                    assert out == []
                else:
                    # downstream exists: reply, or the documented metric-less drop
                    assert all(isinstance(e.packet, QryReplyAnt) for e in out)
