"""Deterministic discrete-event core.

One ``Simulation`` owns the event queue, the physical adjacency, node
mobility, and every node agent. All randomness flows from a single seeded
generator used only by mobility and placement; the protocol itself is
deterministic, so identical (scenario, seed) pairs replay to byte-identical
traces. A queued event is the tuple ``(time, seq, handler, args)``; events
dequeue in (time, seq) order, the loop calls ``handler(*args)``, and every
delivery strictly follows its send. The engine decides whether a frame
arrives (link up, energy to receive it); what the node does with it, data
forwarding included, is the agent handler its ``PACKET_KINDS`` entry names.
A flow's new data packet goes to its source's ``NodeAgent.send_data``, which
sends, or queues and rediscovers.

Each packet event is encoded the moment it happens and written, one line,
to the text file the caller hands the ``Simulation`` (an in-memory
``io.StringIO`` by default), so a run holds no list of its events.
:meth:`Simulation.trace_lines` gives the header lines, known only once the
run has ended, that go before those event lines in a trace file.
"""

from __future__ import annotations

import heapq
import io
import math
import random
from dataclasses import dataclass, replace
from typing import TextIO

from . import packets
from .agent import AgentHooks, Emission, NodeAgent
from .packets import CONTROL_BITS_KEYS, PACKET_KINDS, DataPacket, Packet
from .scenario import Scenario


@dataclass
class MobilityNode:
    pos: tuple[float, float]
    target: tuple[float, float]
    speed: float
    pause_until: float = 0.0

    def velocity(self, now: float) -> tuple[float, float]:
        if now < self.pause_until or self.speed <= 0.0:
            return (0.0, 0.0)
        dx = self.target[0] - self.pos[0]
        dy = self.target[1] - self.pos[1]
        dist = math.hypot(dx, dy)
        if dist <= 1e-12:
            return (0.0, 0.0)
        return (self.speed * dx / dist, self.speed * dy / dist)


class _Hooks(AgentHooks):
    def __init__(self, sim: "Simulation"):
        self.sim = sim

    def height_changed(self, node, dest, old, new, now):
        sim = self.sim
        self.log("height", node, now, dest=dest, new=new)
        if sim.current_failure is not None:
            sim.reaction_sets[sim.current_failure].add(node)

    def route_inserted(self, node, dest, expires_at):
        sim = self.sim
        if expires_at <= sim.end_time:
            sim.schedule(expires_at, sim._on_route_expiry, node, dest)


class Simulation:
    """One seeded run of a scenario; its event lines go to ``trace_file``."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int | None = None,
        mode: str | None = None,
        trace_file: TextIO | None = None,
    ):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.mode = mode or scenario.mode
        self.end_time = scenario.end_time
        self.rng = random.Random(self.seed)
        self.hooks = _Hooks(self)
        params = scenario.protocol
        if mode:
            params = replace(params, baseline=mode == "baseline_tora")
        self.agents = {
            i: NodeAgent(i, params, scenario.links, scenario.nodes.initial_energy, self.hooks)
            for i in range(scenario.nodes.count)
        }

        self.queue: list[tuple] = []
        self.event_seq = 0
        self.trace_seq = 0
        self.now = 0.0
        self.pop_count = 0
        self.trace_file = io.StringIO() if trace_file is None else trace_file
        self.cache_samples: list[tuple[float, int]] = []
        self.failure_events: list[tuple[int, float, int, int]] = []
        self.reaction_sets: dict[int, set[int]] = {}
        # the link failure the running event descends from, if any
        self.current_failure: int | None = None
        # node -> nodes it has an up link to; always symmetric
        self.adj: dict[int, set[int]] = {i: set() for i in range(scenario.nodes.count)}
        self.mobility: dict[int, MobilityNode] = {}
        self.counters = {
            "frames_sent": 0,
            "frames_delivered": 0,
            "frames_dropped": 0,
            "drop_link_down_at_send": 0,
            "drop_cancelled_in_flight": 0,
            "drop_rx_energy": 0,
            "drop_end_of_run": 0,
            "tx_suppressed": 0,
            "data_offered": 0,
            "data_delivered": 0,
            "data_queued_at_end": 0,
        }
        self._setup()

    # -- scheduling --------------------------------------------------------

    def schedule(self, time: float, handler, *args) -> None:
        """Queue ``handler(*args)`` to run at ``time``, after every event
        already queued for the same instant."""
        self.event_seq += 1
        heapq.heappush(self.queue, (time, self.event_seq, handler, args))

    def _setup(self) -> None:
        sc = self.scenario
        n = sc.nodes.count
        if n == 0:
            return
        if sc.topology.mode == "static":
            for a, b in sc.topology.adjacency:
                self._connect(a, b)
        else:
            self._init_mobility()
            self.schedule(0.0, self._on_mobility_step)
        for i in sorted(self.agents):
            for j in self._neighbors(i):
                self.agents[i].link_up(j, 0.0)
        self.schedule(0.0, self._on_hello_timer)
        self.schedule(sc.evaporation_period, self._on_evaporation_timer)
        injections = []
        for idx, flow in enumerate(sc.traffic):
            k = 0
            while True:
                t = flow.start + k / flow.rate_pps
                if t >= flow.stop or t > self.end_time:
                    break
                injections.append((t, idx, flow.source, flow.destination, flow.packet_bits))
                k += 1
        injections.sort(key=lambda it: (it[0], it[1]))
        for seq, (t, _idx, src, dst, bits) in enumerate(injections):
            self.schedule(t, self._on_data_injection, src, dst, bits, seq)
        for fl in sc.link_failures:
            self.schedule(fl.time, self._on_link_change, fl.a, fl.b, False)

    def _init_mobility(self) -> None:
        sc = self.scenario
        w, h = sc.topology.area
        if sc.nodes.positions is not None:
            positions = list(sc.nodes.positions)
        else:
            placement = random.Random(sc.topology.placement_seed or 0)
            positions = [(placement.uniform(0, w), placement.uniform(0, h)) for _ in range(sc.nodes.count)]
        for i, pos in enumerate(positions):
            self.mobility[i] = MobilityNode(pos=pos, target=pos, speed=0.0)
        for i in sorted(self.mobility):
            self._pick_waypoint(i, 0.0)
        r = sc.topology.comm_range
        for a in range(sc.nodes.count):
            for b in range(a + 1, sc.nodes.count):
                if math.dist(positions[a], positions[b]) <= r:
                    self._connect(a, b)

    def _pick_waypoint(self, node: int, now: float) -> None:
        sc = self.scenario
        w, h = sc.topology.area
        lo, hi = sc.topology.speed
        m = self.mobility[node]
        m.target = (self.rng.uniform(0, w), self.rng.uniform(0, h))
        m.speed = self.rng.uniform(lo, hi)

    # -- helpers -------------------------------------------------------------

    def _neighbors(self, node: int) -> list[int]:
        return sorted(self.adj[node])

    def _link_up(self, a: int, b: int) -> bool:
        return b in self.adj[a]

    def _connect(self, a: int, b: int) -> None:
        self.adj[a].add(b)
        self.adj[b].add(a)

    def _bits_of(self, packet: Packet) -> int:
        key = PACKET_KINDS[type(packet)].bits_key
        return packet.size_bits if key is None else self.scenario.control_bits[key]

    def _trace(self, event: str, node: int, packet: Packet, time: float) -> None:
        self.trace_seq += 1
        # looked up in packets at call time, so a patched encoder is seen
        line = packets.encode_trace(packet, time, seq=self.trace_seq, event=event, node=node)
        self.trace_file.write(line + "\n")

    # -- transmission ----------------------------------------------------------

    def process_emissions(self, frm: int, emissions: list[Emission], now: float) -> None:
        for em in emissions:
            packet = em.packet
            bits = self._bits_of(packet)
            if not self.agents[frm].energy.debit(self.scenario.beta_tx * bits):
                self.counters["tx_suppressed"] += 1
                self._trace("drp", frm, packet, now)
                continue
            self._trace("snd", frm, packet, now)
            if em.to is None:
                targets = self._neighbors(frm)
            else:
                targets = [em.to]
            for to in targets:
                self.deliver(packet, frm, to, now)

    def deliver(self, packet: Packet, frm: int, to: int, now: float) -> None:
        """Schedule a point-to-point delivery; drops if the link is down."""
        if not self._link_up(frm, to):
            self.counters["frames_dropped"] += 1
            self.counters["drop_link_down_at_send"] += 1
            self._trace("drp", to, packet, now)
            return
        bits = self._bits_of(packet)
        capacity, propagation = self.scenario.links.params(frm, to)
        processing = self.scenario.links.processing
        arrival = now + bits / capacity + propagation + processing
        self.counters["frames_sent"] += 1
        # a frame sent in reaction to a link failure carries the failure's id
        self.schedule(arrival, self._on_delivery, packet, frm, to, self.current_failure)

    # -- event handlers -----------------------------------------------------------

    def _on_delivery(self, packet: Packet, frm: int, to: int, cause: int | None) -> None:
        now = self.now
        self.current_failure = cause
        if not self._link_up(frm, to):
            self.counters["frames_dropped"] += 1
            self.counters["drop_cancelled_in_flight"] += 1
            self._trace("drp", to, packet, now)
            return
        agent = self.agents[to]
        bits = self._bits_of(packet)
        if not agent.energy.debit(self.scenario.beta_rx * bits):
            self.counters["frames_dropped"] += 1
            self.counters["drop_rx_energy"] += 1
            self._trace("drp", to, packet, now)
            return
        self.counters["frames_delivered"] += 1
        self._trace("rcv", to, packet, now)
        if isinstance(packet, DataPacket) and packet.destination == to:
            self.counters["data_delivered"] += 1
        # looked up on the agent at call time, so a patched handler is seen
        out = getattr(agent, PACKET_KINDS[type(packet)].handler)(packet, frm, now)
        self.process_emissions(to, out, now)

    def _on_hello_timer(self) -> None:
        now = self.now
        for i in sorted(self.agents):
            self.process_emissions(i, self.agents[i].hello_tick(now), now)
        total = sum(len(entries) for a in self.agents.values() for entries in a.cache.values())
        self.cache_samples.append((now, total))
        nxt = now + self.scenario.protocol.hello_interval
        if nxt <= self.end_time:
            self.schedule(nxt, self._on_hello_timer)

    def _on_evaporation_timer(self) -> None:
        now = self.now
        for i in sorted(self.agents):
            self.agents[i].evaporation_tick(now)
        nxt = now + self.scenario.evaporation_period
        if nxt <= self.end_time:
            self.schedule(nxt, self._on_evaporation_timer)

    def _on_data_injection(self, src: int, dst: int, bits: int, seq: int) -> None:
        now = self.now
        self.counters["data_offered"] += 1
        self.process_emissions(src, self.agents[src].send_data(dst, bits, seq, now), now)

    def _on_route_expiry(self, node: int, dest: int) -> None:
        self.agents[node].route_expiry(dest, self.now)

    def _on_link_change(self, a: int, b: int, up: bool) -> None:
        now = self.now
        if up == self._link_up(a, b):
            return
        key = (min(a, b), max(a, b))
        ends = (key, key[::-1])
        if up:
            self._connect(a, b)
            for node, peer in ends:
                self.process_emissions(node, self.agents[node].link_up(peer, now), now)
            return
        self.adj[a].discard(b)
        self.adj[b].discard(a)
        fid = self.current_failure = len(self.failure_events) + 1
        self.failure_events.append((fid, now, *key))
        self.reaction_sets[fid] = set()
        self.hooks.log("link_failure", -1, now, id=fid, a=key[0], b=key[1])
        for node, peer in ends:
            self.process_emissions(node, self.agents[node].on_link_failure(peer, now), now)

    # -- mobility -----------------------------------------------------------------

    def step_mobility(self, dt: float) -> None:
        """Advance every node over the coming ``dt`` and schedule a link
        change at each instant a pair crosses the communication range."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        horizon = self.now + dt
        t = self.now
        while t < horizon - 1e-12:
            seg_end = horizon
            for m in self.mobility.values():
                if m.pause_until > t:
                    seg_end = min(seg_end, m.pause_until)
                elif m.speed > 0:
                    dist = math.dist(m.pos, m.target)
                    if dist > 1e-12:
                        seg_end = min(seg_end, t + dist / m.speed)
            self._crossings(t, seg_end)
            for i, m in sorted(self.mobility.items()):
                was_paused = m.pause_until > t
                vx, vy = m.velocity(t)
                m.pos = (m.pos[0] + vx * (seg_end - t), m.pos[1] + vy * (seg_end - t))
                if was_paused:
                    if m.pause_until <= seg_end + 1e-12:
                        self._pick_waypoint(i, seg_end)
                elif m.speed > 0 and math.dist(m.pos, m.target) <= 1e-9:
                    m.pos = m.target
                    pause = self.scenario.topology.pause_time
                    if pause > 0:
                        m.pause_until = seg_end + pause
                    else:
                        self._pick_waypoint(i, seg_end)
            t = seg_end

    def _crossings(self, t0: float, t1: float) -> None:
        """Schedule the exact range crossings of pairwise-linear motion on
        [t0, t1)."""
        r = self.scenario.topology.comm_range
        rr = r * r
        # each node's position and velocity, read once per segment
        state = [
            (i, m.pos[0], m.pos[1], *m.velocity(t0))
            for i, m in sorted(self.mobility.items())
        ]
        for ai, (a, ax, ay, avx, avy) in enumerate(state):
            for b, bx, by, bvx, bvy in state[ai + 1 :]:
                dx, dy = ax - bx, ay - by
                vx, vy = avx - bvx, avy - bvy
                qa = vx * vx + vy * vy
                if qa <= 1e-18:
                    continue
                qb = 2.0 * (dx * vx + dy * vy)
                qc = dx * dx + dy * dy - rr
                disc = qb * qb - 4.0 * qa * qc
                if disc <= 0.0:
                    continue
                sq = math.sqrt(disc)
                # squared distance is convex along linear relative motion, so
                # the earlier root always enters range and the later one leaves;
                # segments are half-open: a root at the end is left to the next
                # segment, whose motion decides whether the pair crosses there
                for s, up in (((-qb - sq) / (2 * qa), True), ((-qb + sq) / (2 * qa), False)):
                    if s > -1e-12 and t0 + s < t1 - 1e-12:
                        self.schedule(t0 + max(s, 0.0), self._on_link_change, a, b, up)

    def _on_mobility_step(self) -> None:
        step = self.scenario.topology.step
        self.step_mobility(step)
        nxt = self.now + step
        if nxt <= self.end_time:
            self.schedule(nxt, self._on_mobility_step)

    # -- main loop -------------------------------------------------------------

    def run(self) -> "Simulation":
        queue = self.queue
        horizon = self.end_time + 1e-12
        last = (-1.0, 0)
        while queue and queue[0][0] <= horizon:
            t, seq, handler, args = heapq.heappop(queue)
            assert (t, seq) > last, "events must dequeue in (time, seq) order"
            last = (t, seq)
            self.now = t
            self.pop_count += 1
            self.current_failure = None
            handler(*args)
        # frames still in the air when the run ends count as dropped, so the
        # ledger frames_sent + drop_link_down_at_send == frames_delivered +
        # frames_dropped holds (a frame dropped at send never counts as sent);
        # each attribute access makes a new bound method, hence == and not is
        for ev in queue:
            if ev[2] == self._on_delivery:
                self.counters["frames_dropped"] += 1
                self.counters["drop_end_of_run"] += 1
        queue.clear()
        self._flush_stuck_data()
        return self

    def _flush_stuck_data(self) -> None:
        """Packets still queued when the run ends count as offered but lost."""
        for i in sorted(self.agents):
            agent = self.agents[i]
            for dest in sorted(agent.data_queue):
                for seq, bits in agent.data_queue[dest]:
                    self.counters["data_queued_at_end"] += 1
                    marker = DataPacket(
                        source=i, destination=dest, seq=seq, size_bits=bits, path=(i, dest)
                    )
                    self._trace("drp", i, marker, self.end_time)

    # -- trace assembly -----------------------------------------------------------

    def trace_lines(self) -> list[str]:
        """The lines a trace file starts with: parameter header, then the
        cache-size and locality annotations. The event lines follow them, as
        written to ``trace_file`` during the run."""
        if self.scenario.nodes.count == 0:
            return []
        sc = self.scenario
        lines = [
            f"# param mode={self.mode}",
            f"# param seed={self.seed}",
            f"# param end_time={sc.end_time!r}",
            f"# param beta_tx={sc.beta_tx!r}",
            f"# param beta_rx={sc.beta_rx!r}",
        ]
        for key in CONTROL_BITS_KEYS:
            lines.append(f"# param bits_{key}={sc.control_bits[key]}")
        for t, total in self.cache_samples:
            lines.append(f"# cachesize t={t:.6f} total={total}")
        for fid, t, a, b in self.failure_events:
            nodes = len(self.reaction_sets[fid])
            lines.append(f"# locality failure={fid} t={t:.6f} a={a} b={b} nodes={nodes}")
        return lines
