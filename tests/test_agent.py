"""Protocol handlers: discovery, maintenance, erasure, and the data plane.

These tests drive agents directly through a tiny in-test packet pump so the
hand-traces stay independent of the event engine.
"""

from __future__ import annotations

import heapq
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from anttora.aco import PathMetrics, PreferenceWeights, path_preference
from anttora.agent import (
    NodeAgent,
    NodeEnergy,
    ProtocolParams,
    QosConstraints,
    Route,
    SimClockError,
)
from anttora.heights import Height, has_downstream
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

from conftest import aggregate_metrics, link_direction

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
    info = agent.adjacent[2].hello
    assert info.est_bandwidth == pytest.approx(1e6)
    assert info.residual_energy == 50.0


def test_later_hello_wins_entirely():
    agent = NodeAgent(1, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    agent.link_up(2, 0.0)
    agent.on_hello(HelloAnt(2, 1.0, 50.0, 0.25, 1000), 2, 1.001)
    agent.on_hello(HelloAnt(2, 2.0, 40.0, 0.5, 1000), 2, 2.002)
    info = agent.adjacent[2].hello
    assert info.residual_energy == 40.0
    assert info.est_bandwidth == pytest.approx(1000 / 0.002)
    assert info.last_hello == 2.002


def test_hello_from_an_unlinked_sender_is_ignored():
    # the engine raises every link before a hello can cross it, so a hello
    # without a link, like a request, reply or update without one, changes
    # nothing
    agent = NodeAgent(1, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    assert agent.on_hello(HelloAnt(2, 1.0, 50.0, 0.25, 1000), 2, 1.001) == []
    assert agent.on_qry_request(QryRequestAnt(1.0, 0, 9, (0, 2)), 2, 1.001) == []
    assert agent.on_qry_reply(_reply_via(2, 9, 0.004, source=0), 2, 1.001) == []
    assert agent.adjacent == {} and agent.toward == {}


def test_hello_clock_misuse_raises():
    agent = NodeAgent(1, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    with pytest.raises(SimClockError):
        agent.on_hello(HelloAnt(2, 1.0, 50.0, 0.25, 1000), 2, 1.0)


def test_silent_neighbor_is_dropped_after_three_intervals():
    net = warmed(2, [(0, 1)])
    agent = net.agents[0]
    assert agent.adjacent[1].hello is not None
    # neighbor 1 last spoke at t=1; at t=5 it is 4 intervals silent
    agent.hello_tick(5.0)
    assert 1 not in agent.adjacent


# ---------------------------------------------------------------------------
# link guards


def _agent_linked_to(node, neighbors):
    agent = NodeAgent(node, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    for j in neighbors:
        agent.link_up(j, 0.0)
    return agent


def test_an_update_from_an_unlinked_sender_changes_nothing():
    # nor does a request or a reply from one
    agent = _agent_linked_to(1, [2])
    toward = agent._toward(9)
    state = toward.tora
    assert agent.on_upd(UpdPacket(9, Height(1.0, 5, 0, 0, 5)), 5, 1.0) == []
    assert agent.on_qry_request(QryRequestAnt(0.5, 7, 9, (7, 5)), 5, 1.0) == []
    assert agent.on_qry_reply(_reply_via(5, 9, 0.004, source=1), 5, 1.0) == []
    assert state.links == {2: Height.null(2)} and state.own_height.is_null
    assert toward.request is None and toward.candidates == {} and toward.cache == {}


def test_a_reply_from_an_unlinked_sender_leaves_the_discovery_running():
    # adopting a height through a link that is gone would drop the request
    # with no route cached, leaving the queued data behind a downstream link
    # that does not exist
    agent = _agent_hearing_1_and_2()
    agent.send_data(9, 500, seq=0, now=1.0)
    agent.on_link_failure(1, 1.1)
    assert agent.on_qry_reply(_reply_via(1, 9, 0.004, source=0), 1, 1.2) == []
    toward = agent.toward[9]
    assert toward.request is not None and toward.tora.own_height.is_null
    assert sorted(toward.tora.links) == [2] and toward.queue == [(0, 500)]
    # the discovery still completes over the surviving link
    out = agent.on_qry_reply(_reply_via(2, 9, 0.004, source=0), 2, 1.3)
    assert [(em.packet.path, em.to) for em in out] == [((0, 2, 9), 2)]
    assert toward.request is None and toward.queue == []


def test_an_update_at_its_destination_only_mirrors_the_sender():
    agent = _agent_linked_to(9, [2, 3])
    height = Height(1.0, 2, 0, 0, 2)
    assert agent.on_upd(UpdPacket(9, height), 2, 1.0) == []
    state = agent.toward[9].tora
    assert state.links == {2: height, 3: Height.null(3)}
    assert state.own_height == Height.zero(9)


def test_a_failure_of_an_unlinked_neighbor_does_nothing():
    # with no downstream link toward 9, a failure that ran would re-level
    agent = _agent_linked_to(1, [2])
    state = agent._toward(9).tora
    state.set_own_height(Height(1.0, 7, 0, 0, 1))
    state.set_mirror(2, Height(1.0, 7, 0, 1, 2))
    assert agent.on_link_failure(5, 2.0) == []
    assert list(agent.adjacent) == [2] and state.own_height == Height(1.0, 7, 0, 0, 1)


def test_a_second_link_up_returns_nothing_and_keeps_the_link():
    agent = _agent_linked_to(1, [2])
    link = agent.adjacent[2]
    agent.start_discovery(9, 0.5)  # a new link would carry this request
    assert agent.link_up(2, 1.0) == []
    assert agent.adjacent[2] is link and link.since == 0.0


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
    assert a.toward[9].request is not None
    assert a.toward[9].tora.own_height.is_null
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
    # node 1 extends the reply node 2 would send, as node 2's hellos and the
    # configured radio numbers describe it, bit for bit
    link_delay = PROP + net.params.metric_packet_bits / CAPACITY
    assert rep.delay == (PROC + link_delay) + PROC
    heard = b.adjacent[2].hello
    assert rep.bandwidth == heard.est_bandwidth
    assert rep.energy == min(heard.residual_energy, b.energy.residual)
    assert rep.drain_rate == max(heard.drain_rate, b.energy.drain_rate)


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
    assert len(s.toward[3].cache) == 1
    entry = list(s.toward[3].cache.values())[0]
    assert entry.path == (0, 1, 2, 3)
    assert entry.metrics.hop_count == 4
    assert s.toward[3].request is None
    assert s.toward[3].tora.own_height == Height(0.0, 0, 0, 3, 0)


def test_diamond_topology_caches_two_disjoint_paths():
    # 0-1-3 and 0-2-3
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    paths = sorted(e.path for e in s.toward[3].cache.values())
    assert paths == [(0, 1, 3), (0, 2, 3)]


def _ranks(agent, routes):
    """``path_preference`` over each route's first-hop tau and own metrics."""
    return path_preference(
        [(agent.adjacent[r.next_hop].tau, r.metrics) for r in routes], agent.params.preference_weights
    )


def test_no_preferable_path_ranks_every_route_alike():
    # full evaporation leaves every link without pheromone, so no route is
    # preferable: candidates and cached routes tie, and the oldest leads
    params = ProtocolParams(preference_weights=PreferenceWeights(decay=1.0))
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)], params=params)
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    s.evaporation_tick(2.0)
    assert all(link.tau == 0.0 for link in s.adjacent.values())
    for table in (s.toward[3].candidates, s.toward[3].cache):
        routes = list(table.values())
        oldest = sorted(routes, key=lambda r: (r.created_at, r.path))
        assert oldest[0].next_hop == 1
        assert s._best_first(routes) == s._best_first(routes[::-1]) == oldest
    assert s._best(s.toward[3].candidates, 2.0).next_hop == 1
    assert s._best(s.toward[3].cache, 2.0).next_hop == 1


def test_reply_extension_increments_hops_and_updates_pheromone():
    net = warmed(2, [(0, 1)])
    s = net.agents[0]
    tau_before = s.adjacent[1].tau
    net.discover(0, 1, 1.5)
    assert list(s.toward[1].cache.values())[0].metrics.hop_count == 2
    assert s.adjacent[1].tau > tau_before * net.params.preference_weights.persistence
    cand = s.toward[1].candidates[1]
    assert cand.path == (0, 1)


def test_rr_unset_reply_updates_links_without_relay():
    net = warmed(3, [(0, 1), (1, 2)])
    a = net.agents[1]
    rep = QryReplyAnt(1, PROC, 90.0, 0.01, 1e6, 5, 2, (2,), Height.zero(2))
    out = a.on_qry_reply(rep, 2, 2.0)
    assert out == []  # not route-required, nothing to relay
    assert a.toward[2].tora.links[2] == Height.zero(2)
    assert 2 in a.toward[2].candidates


# ---------------------------------------------------------------------------
# ranking when read


def _agent_hearing_1_and_2(params=None):
    """Node 0 linked to neighbours 1 and 2, each heard once."""
    agent = NodeAgent(0, params or ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    for j in (1, 2):
        agent.link_up(j, 0.0)
        agent.on_hello(HelloAnt(j, 0.0, 50.0, 0.01, 1000), j, 0.001)
    return agent


def _reply_via(via, dest, delay, source=5):
    return QryReplyAnt(2, delay, 50.0, 0.01, 1e6, source, dest, (via, dest), Height(0.0, 0, 0, 1, via))


def test_a_ranking_uses_the_pheromone_at_read_time():
    # with the taus the replies for 9 left, link 2 is ahead; the replies for
    # 8 that raise link 1's pheromone afterwards put the candidate via 1 ahead
    agent = _agent_hearing_1_and_2()
    agent.on_qry_reply(_reply_via(1, 9, 0.02), 1, 0.1)
    agent.on_qry_reply(_reply_via(2, 9, 0.01), 2, 0.2)
    assert agent._best(agent.toward[9].candidates, 0.25).next_hop == 2
    for k in range(6):
        agent.on_qry_reply(_reply_via(1, 8, 0.0006), 1, 0.3 + k / 100)
    assert agent._best(agent.toward[9].candidates, 0.5).next_hop == 1


def test_cached_paths_through_one_first_hop_rank_by_their_own_metrics():
    # both paths leave via 1 and the one candidate via 1 is the later, faster
    # one; each cached path is ranked by its own delay, so that one leads
    agent = _agent_hearing_1_and_2()
    agent.start_discovery(9, 0.05)
    agent.on_qry_reply(_reply_via(1, 9, 0.02, source=0), 1, 0.1)
    slow = agent.toward[9].cache[(0, 1, 9)]
    fast_reply = QryReplyAnt(3, 0.002, 50.0, 0.01, 1e6, 0, 9, (1, 5, 9), Height(0.0, 0, 0, 1, 1))
    agent.on_qry_reply(fast_reply, 1, 0.2)
    fast = agent.toward[9].cache[(0, 1, 5, 9)]
    assert slow.created_at < fast.created_at
    assert agent._best(agent.toward[9].cache, 0.3) is fast
    assert _ranks(agent, [slow, fast])[1] > 0.5


def test_a_rank_tie_goes_to_the_older_candidate():
    # equal metrics and equal first-hop taus tie the two ranks; the candidate
    # via 2 was heard first, so the relay answers with it, not via 1
    agent = _agent_hearing_1_and_2()
    agent.on_qry_reply(_reply_via(2, 9, 0.01), 2, 0.1)
    agent.on_qry_reply(_reply_via(1, 9, 0.01), 1, 0.2)
    assert agent.adjacent[1].tau == agent.adjacent[2].tau
    out = agent.on_qry_request(QryRequestAnt(0.3, 5, 9, (5, 1)), 1, 0.3)
    assert [em.packet.path_nodes for em in out] == [(0, 2, 9)]


def test_a_candidate_that_replaces_an_expired_one_starts_a_fresh_age():
    # the candidate via 1 expired at 10.1 and no tick has pruned it; the one
    # that replaces it is younger than the live candidate via 2, which
    # baseline mode's age order then puts first
    agent = _agent_hearing_1_and_2(ProtocolParams(baseline=True))
    agent.on_qry_reply(_reply_via(1, 9, 0.01), 1, 0.1)
    agent.on_qry_reply(_reply_via(2, 9, 0.01), 2, 5.0)
    agent.on_qry_reply(_reply_via(1, 9, 0.01), 1, 10.5)
    assert agent.toward[9].candidates[1].created_at == 10.5
    assert agent._best(agent.toward[9].candidates, 10.6).next_hop == 2


def test_a_path_admitted_twice_keeps_one_cache_entry_and_its_age():
    agent = _agent_hearing_1_and_2()
    agent.start_discovery(9, 0.05)
    agent.on_qry_reply(_reply_via(1, 9, 0.02, source=0), 1, 0.1)
    agent.on_qry_reply(_reply_via(1, 9, 0.01, source=0), 1, 0.3)
    assert list(agent.toward[9].cache) == [(0, 1, 9)]
    entry = agent.toward[9].cache[(0, 1, 9)]
    assert entry.created_at == 0.1
    assert entry.expires_at == 0.3 + agent.params.route_ttl


# ---------------------------------------------------------------------------
# admission


def test_qos_admission_rejects_slow_route():
    params = ProtocolParams(qos=QosConstraints(max_delay=1e-4))
    net = warmed(4, [(0, 1), (1, 2), (2, 3)], params=params)
    net.discover(0, 3, 1.5)
    assert net.agents[0].toward[3].cache == {}


def test_baseline_mode_skips_admission_and_pheromone():
    params = ProtocolParams(qos=QosConstraints(max_delay=1e-4), baseline=True)
    net = warmed(4, [(0, 1), (1, 2), (2, 3)], params=params)
    tau_before = {j: link.tau for j, link in net.agents[0].adjacent.items()}
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    assert len(s.toward[3].cache) == 1
    assert {j: link.tau for j, link in s.adjacent.items()} == tau_before


def test_qos_hop_limit_below_one_link_is_refused():
    # a path joins at least 2 nodes, so a lower limit would admit nothing
    with pytest.raises(ValueError, match="max_hop_count must be >= 2, got 1"):
        QosConstraints(max_hop_count=1)
    assert QosConstraints(max_hop_count=2).max_hop_count == 2


def test_hop_count_counts_nodes_including_endpoints():
    params = ProtocolParams(qos=QosConstraints(max_hop_count=3))
    net = warmed(4, [(0, 1), (1, 2), (2, 3)], params=params)
    net.discover(0, 3, 1.5)  # 4 nodes on the only path
    assert net.agents[0].toward[3].cache == {}


# ---------------------------------------------------------------------------
# data plane


def test_send_data_picks_highest_preference():
    # 0-1-3 is one hop shorter than 0-2-4-3, so the two ranks differ
    net = warmed(5, [(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)])
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    routes = list(s.toward[3].cache.values())
    ranks = _ranks(s, routes)
    assert len(routes) == 2 and ranks[0] != ranks[1]
    best = routes[ranks.index(max(ranks))]
    out = s.send_data(3, 1000, seq=0, now=2.0)
    assert out[0].packet.path == best.path
    assert out[0].to == best.path[1]


def test_send_data_tie_breaks_by_age():
    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    from anttora.agent import Route
    from anttora.aco import PathMetrics

    for j in (1, 2):
        agent.link_up(j, 0.0)
    m = PathMetrics(0.01, 1e6, 50.0, 0.1, 3)
    agent._toward(3).cache = {
        (0, 2, 3): Route((0, 2, 3), m, created_at=2.0, expires_at=50.0),
        (0, 1, 3): Route((0, 1, 3), m, created_at=1.0, expires_at=50.0),
    }
    out = agent.send_data(3, 500, seq=0, now=3.0)
    assert out[0].packet.path == (0, 1, 3)


def test_send_data_without_route_queues_and_discovers_once():
    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    out = agent.send_data(3, 500, seq=0, now=1.0)
    assert [type(em.packet) for em in out] == [QryRequestAnt]
    # the discovery is still running: queue, but send nothing
    assert agent.send_data(3, 600, seq=1, now=1.1) == []
    assert agent.toward[3].queue == [(0, 500), (1, 600)]


def test_queued_data_flushes_on_first_route():
    net = warmed(3, [(0, 1), (1, 2)])
    s = net.agents[0]
    net.push_emissions(0, s.send_data(2, 800, seq=0, now=1.5), 1.5)
    net.pump()
    assert [p.seq for p in net.delivered] == [0]
    assert s.toward[2].queue == []


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
    assert bool(s.toward[2].queue) == queued
    assert s.toward[2].request is None
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
    assert has_downstream(net.agents[2].toward[3].tora)
    assert net.count_sent(UpdPacket, since=5.0) == 0
    assert net.count_sent(ClrPacket, since=5.0) == 0
    assert net.count_sent(ErrorPacket, since=5.0) == 0


def test_case2_failure_emits_new_reference_level_and_no_error():
    net = warmed(4, [(0, 1), (1, 2), (2, 3)])
    net.discover(0, 3, 1.5)
    # node 2 has forwarded data for source 0 over the link that fails
    net.push_emissions(0, net.agents[0].send_data(3, 500, seq=0, now=2.0), 2.0)
    net.pump()
    net.cut(2, 3, 5.0)
    # only a data packet that meets the dead link makes an error
    assert net.count_sent(ErrorPacket, since=5.0) == 0
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
    assert s.toward[1].tora.own_height.is_null
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
    state = a._toward(9).tora
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
    state = a._toward(9).tora
    state.set_mirror(0, Height(0.0, 0, 0, 5, 0))
    state.set_mirror(2, Height(9.0, 1, 1, 0, 2))  # already reflected our level
    state.set_own_height(Height(9.0, 1, 0, 0, 1))
    out = a.on_upd(UpdPacket(9, Height(9.0, 1, 1, 1, 0)), 0, 9.6)
    assert len(out) == 1
    clr = out[0].packet
    assert isinstance(clr, ClrPacket)
    assert clr.reference_level == (9.0, 1, 1)
    assert a.toward[9].tora.own_height.is_null
    assert a.toward[9].cache == {}


# ---------------------------------------------------------------------------
# error handling


def test_error_purges_routes_over_its_link():
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    assert [e.path for e in s.toward[3].cache.values()] == [(0, 1, 3), (0, 2, 3)]
    assert sorted(s.toward[3].candidates) == [1, 2]
    # node 0 relays an error for link 3-1, which its routes cross as 1-3
    err = ErrorPacket((9, 0, 3, 1))
    out = s.on_error(err, 3, 6.0)
    assert [e.path for e in s.toward[3].cache.values()] == [(0, 2, 3)]
    assert sorted(s.toward[3].candidates) == [2]
    assert [(em.packet, em.to) for em in out] == [(err, 9)]  # on to its previous hop


def test_error_purge_keeps_unrelated_routes():
    from anttora.aco import PathMetrics
    from anttora.agent import Route

    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    m = PathMetrics(0.01, 1e6, 50.0, 0.1, 3)
    agent._toward(9).cache = {
        r.path: r
        for r in [
            Route((0, 1, 9), m, created_at=1.0, expires_at=50.0),
            Route((0, 5, 9), m, created_at=1.1, expires_at=50.0),
            Route((0, 6, 5, 9), m, created_at=1.2, expires_at=50.0),
        ]
    }
    agent.on_error(ErrorPacket((8, 0, 5, 6)), 5, 6.0)
    # only the route over link 5-6 goes; one through node 5 alone stays
    assert [e.path for e in agent.toward[9].cache.values()] == [(0, 1, 9), (0, 5, 9)]


def test_source_with_alternate_route_does_not_rediscover():
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    s = net.agents[0]
    out = s.on_error(ErrorPacket((0, 1, 3)), 1, 6.0)
    assert out == []
    assert [e.path for e in s.toward[3].cache.values()] == [(0, 2, 3)]


def test_source_with_empty_cache_starts_rediscovery():
    net = warmed(3, [(0, 1), (1, 2)])
    net.discover(0, 2, 1.5)
    s = net.agents[0]
    out = s.on_error(ErrorPacket((0, 1, 2)), 1, 6.0)
    assert s.toward[2].cache == {}
    assert len(out) == 1
    assert isinstance(out[0].packet, QryRequestAnt)


def test_an_error_over_only_an_expired_route_starts_no_discovery():
    from anttora.aco import PathMetrics
    from anttora.agent import Route

    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    m = PathMetrics(0.01, 1e6, 50.0, 0.1, 3)
    agent._toward(9).cache = {(0, 1, 9): Route((0, 1, 9), m, created_at=1.0, expires_at=5.0)}
    # the route over link 1-9 expired at 5.0: the error takes nothing live
    assert agent.on_error(ErrorPacket((0, 1, 9)), 1, 6.0) == []
    assert agent.toward[9].cache == {} and agent.toward[9].request is None


def test_error_goes_back_hop_by_hop_and_stops_at_its_source():
    net = warmed(4, [(0, 1), (1, 2), (2, 3)])
    net.discover(0, 3, 1.5)
    err = ErrorPacket((0, 1, 2, 3))
    out = net.agents[2].on_error(err, 3, 6.0)
    assert [(em.packet, em.to) for em in out] == [(err, 1)]
    net.push_emissions(2, out, 6.0)
    net.pump()
    assert [(frm, p) for _, frm, p in net.sent if isinstance(p, ErrorPacket)] == [(2, err), (1, err)]
    # the source sends it no further: it rediscovers instead
    requests = [(frm, p) for t, frm, p in net.sent if isinstance(p, QryRequestAnt) and t >= 6.0]
    assert requests[0][0] == 0 and requests[0][1].source == 0


def test_relay_with_dead_next_hop_sends_the_data_and_an_error_back():
    # node 2 holds two downstream links toward 3 (3 and 1)
    net = warmed(4, [(0, 2), (0, 1), (1, 3), (2, 3), (1, 2)])
    net.discover(0, 3, 1.5)
    relay = net.agents[2]
    packet = DataPacket(0, 3, 0, 800, (0, 1, 2, 3))
    assert [(em.packet, em.to) for em in relay.on_data(packet, 1, 4.0)] == [(packet, 3)]
    net.cut(2, 3, 5.0)
    assert has_downstream(relay.toward[3].tora)
    # the link drops the packet; the error names link 2-3 and goes to node 1
    out = relay.on_data(packet, 1, 6.0)
    assert [(em.packet, em.to) for em in out] == [(packet, 3), (ErrorPacket((0, 1, 2, 3)), 1)]


# ---------------------------------------------------------------------------
# route erasure


def test_clr_matching_level_resets_and_rebroadcasts():
    net = warmed(3, [(0, 1), (1, 2)])
    net.discover(0, 2, 1.5)
    a = net.agents[1]
    a.toward[2].tora.set_own_height(Height(9.0, 5, 1, -1, 1))
    out = a.on_clr(ClrPacket(2, (9.0, 5, 1)), 0, 9.9)
    assert len(out) == 1
    assert a.toward[2].tora.own_height.is_null
    # only the adjacent destination itself may remain downstream
    state = a.toward[2].tora
    for j, mirror in state.links.items():
        assert link_direction(state.own_height, mirror) == "un" or j == 2


def test_clr_nonmatching_level_is_not_rebroadcast():
    net = warmed(3, [(0, 1), (1, 2)])
    net.discover(0, 2, 1.5)
    a = net.agents[1]
    out = a.on_clr(ClrPacket(2, (9.0, 5, 1)), 0, 9.9)
    assert out == []
    assert not a.toward[2].tora.own_height.is_null


# ---------------------------------------------------------------------------
# route removal rules


def _agent_with_routes_to_9(neighbors):
    """Node 0 linked to ``neighbors``, holding three cached routes and a
    candidate via each of 1 and 2 toward destination 9."""
    from anttora.aco import PathMetrics
    from anttora.agent import Route

    agent = NodeAgent(0, ProtocolParams(), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    for j in neighbors:
        agent.link_up(j, 0.0)
    toward = agent._toward(9)
    m = PathMetrics(0.01, 1e6, 50.0, 0.1, 3)
    toward.cache = {
        path: Route(path, m, created_at=1.0, expires_at=50.0)
        for path in [(0, 1, 9), (0, 2, 1, 9), (0, 2, 9)]
    }
    toward.candidates = {
        1: Route((0, 1, 9), m, created_at=1.0, expires_at=50.0),
        2: Route((0, 2, 1, 9), m, created_at=1.0, expires_at=50.0),
    }
    return agent


def test_link_failure_drops_only_routes_whose_first_hop_failed():
    agent = _agent_with_routes_to_9([1, 2])
    agent.on_link_failure(1, 6.0)
    # (0, 2, 1, 9) crosses node 1 further along and stays, as does its candidate
    assert [e.path for e in agent.toward[9].cache.values()] == [(0, 2, 1, 9), (0, 2, 9)]
    assert sorted(agent.toward[9].candidates) == [2]


def test_an_evaporation_tick_prunes_expired_candidates_and_cached_routes():
    agent = _agent_with_routes_to_9([1, 2])
    agent.on_link_failure(1, 6.0)
    toward = agent.toward[9]
    assert sorted(toward.candidates) == [2]
    agent.evaporation_tick(49.0)  # every route lives until 50.0
    assert sorted(toward.candidates) == [2] and len(toward.cache) == 2
    agent.evaporation_tick(60.0)
    assert toward.candidates == {}
    # the tick prunes expired cached routes too
    assert toward.cache == {}


# what the expiry-bound property mixes: inserts, a refresh on use, prunes,
# erasures, direct removals from a table, and evaporation ticks
ROUTE_TABLE_OPS = ("insert", "refresh", "prune", "erase", "remove", "tick")


@settings(deadline=None)
@given(
    fill=st.lists(st.floats(0.1, 3.0), max_size=4),
    ops=st.lists(
        st.tuples(st.sampled_from(ROUTE_TABLE_OPS), st.integers(0, 2**16), st.floats(0.0, 1.5)),
        max_size=40,
    ),
)
# a route filed after a rebuild emptied its record must lower the bound
@example(fill=[], ops=[("insert", 0, 0.0), ("tick", 0, 1.0), ("insert", 0, 0.0), ("tick", 0, 1.0)])
# the bound is the earliest expiry left, not the latest
@example(fill=[], ops=[("insert", 0, 0.0), ("insert", 4, 0.5), ("tick", 0, 0.0), ("tick", 0, 0.7)])
def test_a_tick_leaves_the_tables_a_full_rebuild_would(fill, ops):
    """Whatever the expiry bound skips, every tick leaves both tables of
    every record as rebuilding them would: the routes that ``live`` keeps."""
    # a TTL of one time step or so, so that routes expire between ticks
    ttl = 1.0
    agent = NodeAgent(0, ProtocolParams(route_ttl=ttl), LinkSpec(CAPACITY, PROP, PROC), 100.0)
    for j in (1, 2, 3):
        agent.link_up(j, 0.0)
    m = PathMetrics(0.01, 1e6, 50.0, 0.1, 3)
    # a record filled directly, before its first tick, as the tests above do
    direct = agent._toward(9)
    for k, expires in enumerate(fill):
        direct.cache[(0, 1 + k % 3, 5 + k, 9)] = Route((0, 1 + k % 3, 5 + k, 9), m, 0.0, expires)
    agent._toward(8)
    now = 0.0
    for op, pick, step in ops:
        now += step
        toward = agent.toward[8 + pick % 2]
        dest = toward.tora.destination
        table = toward.cache if pick & 2 else toward.candidates
        hop = 1 + pick % 3
        if op == "insert":
            path = (0, hop, dest) if pick & 4 else (0, hop, 6, dest)
            agent._insert(toward, table, path if table is toward.cache else hop, path, m, now)
        elif op == "refresh":
            for r in agent._live(toward.cache, now)[:1]:
                r.expires_at = now + ttl  # as send_data refreshes a route it uses
        elif op == "prune":
            agent._prune(table, lambda r: r.next_hop == hop)
        elif op == "erase":
            agent._erase_state(toward, (now, 0, 1), now)
        elif op == "remove" and table:
            del table[sorted(table)[pick % len(table)]]
        elif op == "tick":
            before = {t.tora.destination: (dict(t.cache), dict(t.candidates)) for t in agent.toward.values()}
            agent.evaporation_tick(now)
            for d, (cache, candidates) in before.items():
                assert agent.toward[d].cache == {k: r for k, r in cache.items() if r.live(now)}
                assert agent.toward[d].candidates == {k: r for k, r in candidates.items() if r.live(now)}


def test_clr_drops_routes_through_any_reset_neighbor_but_candidates_only_via_one():
    agent = _agent_with_routes_to_9([1, 2, 3])
    state = agent.toward[9].tora
    state.set_own_height(Height(4.0, 7, 0, 0, 0))
    state.set_mirror(1, Height(9.0, 5, 1, 0, 1))  # only node 1 carries the erased level
    state.set_mirror(2, Height(4.0, 7, 0, -1, 2))
    assert agent.on_clr(ClrPacket(9, (9.0, 5, 1)), 3, 9.9) == []
    assert state.links[1].is_null and not state.links[2].is_null
    # every route through node 1 goes, wherever on the path it sits ...
    assert [e.path for e in agent.toward[9].cache.values()] == [(0, 2, 9)]
    # ... but a candidate goes only when node 1 is its next hop
    assert sorted(agent.toward[9].candidates) == [2]


def test_clr_at_own_level_erases_like_the_partition_detector():
    agent = _agent_with_routes_to_9([1, 2, 3])
    reported = []
    agent.on_height = lambda *change: reported.append(change)
    state = agent.toward[9].tora
    state.set_own_height(Height(9.0, 5, 1, -1, 0))
    state.set_mirror(1, Height(9.0, 5, 1, 0, 1))
    out = agent.on_clr(ClrPacket(9, (9.0, 5, 1)), 3, 9.9)
    assert [(em.packet, em.to) for em in out] == [(ClrPacket(9, (9.0, 5, 1)), None)]
    # the NULL height goes to on_height, which the reaction-locality count reads
    assert reported == [(0, 9, Height(9.0, 5, 1, -1, 0), Height.null(0), 9.9)]
    assert agent.toward[9].candidates == {}
    assert agent.toward[9].cache == {}
    assert all(mirror.is_null for mirror in state.links.values())


# ---------------------------------------------------------------------------
# invariants


def test_rr_flag_implies_null_height():
    net = warmed(4, [(0, 1), (1, 2), (2, 3)])
    net.discover(0, 3, 1.5)
    assert all(t.request is None for a in net.agents.values() for t in a.toward.values())
    net.discover(0, 9, 2.0)  # no node 9: every node is left waiting
    waiting = 0
    for agent in net.agents.values():
        for dest, toward in agent.toward.items():
            if toward.request is None:
                continue
            waiting += 1
            assert toward.tora.own_height.is_null
            assert toward.request.destination == dest
    assert waiting == 4


def test_cached_paths_are_loop_free_and_admitted():
    net = warmed(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    net.discover(0, 3, 1.5)
    for agent in net.agents.values():
        for toward in agent.toward.values():
            for e in toward.cache.values():
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
    adopters relay once, everyone else only refreshes link state. A node is
    route-required while it holds a request; its own request is the one it
    started, a relay's is the source's request with itself appended."""
    for rr in (False, True):
        for is_source in (False, True):
            net = warmed(3, [(0, 1), (1, 2)])
            a = net.agents[1]
            state = a._toward(9).tora
            source = 1 if is_source else 0
            if rr:
                visited = (1,) if is_source else (0, 1)
                a.toward[9].request = QryRequestAnt(1.4, source, 9, visited)
            rep = QryReplyAnt(2, 0.004, 90.0, 0.01, 2.5e5, source, 9, (2, 9), Height(0.0, 0, 0, 1, 2))
            out = a.on_qry_reply(rep, 2, 2.0)
            assert state.links[2] == Height(0.0, 0, 0, 1, 2)
            if rr:
                assert a.toward[9].request is None
                assert not state.own_height.is_null
            relayed = [e for e in out if isinstance(e.packet, QryReplyAnt)]
            if rr and not is_source:
                assert len(relayed) == 1
                assert relayed[0].packet.hop_count == 3
            else:
                assert relayed == []
            if is_source:
                assert [e.path for e in a.toward[9].cache.values()] == [(1, 2, 9)]
            else:
                assert a.toward[9].cache == {}


def test_incremental_extension_matches_batch_aggregation():
    """The hop-by-hop metric fold equals one-shot aggregation of the same
    per-link and per-node quantities."""
    net = warmed(4, [(0, 1), (1, 2), (2, 3)])
    net.discover(0, 3, 1.5)
    entry = list(net.agents[0].toward[3].cache.values())[0]
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
                state = a._toward(9).tora
                if downstream:
                    state.set_mirror(2, Height(0.0, 0, 0, 0, 2))
                if not null_height:
                    state.set_own_height(Height(1.0, 1, 0, 0, 1))
                rr_before = rr and null_height  # rr implies null
                if rr_before:
                    a.toward[9].request = QryRequestAnt(1.4, 0, 9, (0, 1))
                req = QryRequestAnt(1.5, 0, 9, (0,))
                out = a.on_qry_request(req, 0, 1.5)
                if not downstream and not rr_before:
                    assert len(out) == 1 and isinstance(out[0].packet, QryRequestAnt)
                elif not downstream:
                    assert out == []
                else:
                    # downstream exists: reply, or the documented metric-less drop
                    assert all(isinstance(e.packet, QryReplyAnt) for e in out)
