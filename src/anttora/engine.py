"""Deterministic discrete-event core.

One ``Simulation`` owns the event queue, the physical adjacency, node
mobility, and every node agent. Only mobility draws random numbers:
waypoints from a generator seeded with the run's seed, and the initial
placement from one seeded with ``topology.placement_seed``, which defaults
to the scenario's ``seed``, so another run seed moves the waypoints but not
the placement. The protocol itself is deterministic, so identical (scenario,
seed) pairs replay to byte-identical traces. A queued event is the tuple
``(time, seq, handler, args)``; events dequeue in (time, seq) order, the
loop calls ``handler(*args)``, and every delivery strictly follows its send.
A frame is one delivery event per arrival time, ``_on_delivery`` with args
``(packet, frm, receivers, cause)``: a unicast is a batch of one receiver,
and a broadcast one batch of every neighbour unless per-link parameters
split it by arrival time. For each receiver in turn, the engine decides
whether the frame arrives (link up, energy to receive it); one ``rcv`` line
then names every receiver that got it, and only then does each receiver's
agent run the handler its ``PACKET_KINDS`` entry names, in receiver order.
What the node does with the frame, data forwarding included, is that
handler's. A flow's new data packet goes to its
source's ``NodeAgent.send_data``, which sends, or queues and rediscovers.
Apart from its emissions, an agent reports only its height changes, each to
``_height_changed``, which charges it to the link failure it descends from.
Two periodic timers drive the agents, hello and evaporation; route expiry is
the agents' own, read when a route is and pruned at each evaporation tick,
so no event is scheduled per route.

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
from typing import TextIO

from . import packets
from .agent import Emission, NodeAgent
from .heights import Height
from .packets import CONTROL_BITS_KEYS, PACKET_KINDS, DataPacket, Packet
from .scenario import Scenario

# the reasons a sent frame is lost; frames_dropped is their sum
FRAME_DROPS = ("drop_link_down_at_send", "drop_cancelled_in_flight", "drop_rx_energy", "drop_end_of_run")


class MobilityNode:
    """Where a node is, the waypoint it heads for at what speed, and until
    when it pauses."""

    __slots__ = ("pos", "target", "speed", "pause_until")

    def __init__(
        self, pos: tuple[float, float], target: tuple[float, float], speed: float, pause_until: float = 0.0
    ) -> None:
        self.pos = pos
        self.target = target
        self.speed = speed
        self.pause_until = pause_until

    def velocity(self, now: float) -> tuple[float, float]:
        if now < self.pause_until or self.speed <= 0.0:
            return (0.0, 0.0)
        dx = self.target[0] - self.pos[0]
        dy = self.target[1] - self.pos[1]
        dist = math.hypot(dx, dy)
        if dist <= 1e-12:
            return (0.0, 0.0)
        return (self.speed * dx / dist, self.speed * dy / dist)


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
        params = scenario.protocol
        if mode:
            params = params._replace(baseline=mode == "baseline_tora")
        self.agents = {
            i: NodeAgent(i, params, scenario.links, scenario.nodes.initial_energy, self._height_changed)
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
            **dict.fromkeys(FRAME_DROPS, 0),
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
        self.schedule(sc.protocol.evaporation_period, self._on_evaporation_timer)
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
            # a string seed keeps placement off the waypoint stream of the same seed
            placement = random.Random(f"placement {sc.topology.placement_seed or 0}")
            positions = [(placement.uniform(0, w), placement.uniform(0, h)) for _ in range(sc.nodes.count)]
        for i, pos in enumerate(positions):
            self.mobility[i] = MobilityNode(pos=pos, target=pos, speed=0.0)
        for i in sorted(self.mobility):
            self._pick_waypoint(i)
        r = sc.topology.comm_range
        for a in range(sc.nodes.count):
            for b in range(a + 1, sc.nodes.count):
                if math.dist(positions[a], positions[b]) <= r:
                    self._connect(a, b)

    def _pick_waypoint(self, node: int) -> None:
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

    def _trace(self, event: str, nodes: tuple[int, ...], packet: Packet, time: float) -> None:
        self.trace_seq += 1
        # looked up in packets at call time, so a patched encoder is seen
        line = packets.encode_trace(packet, time, seq=self.trace_seq, event=event, nodes=nodes)
        self.trace_file.write(line + "\n")

    def _height_changed(self, node: int, dest: int, old: Height, new: Height, now: float) -> None:
        """Each agent's ``on_height``: charge the height change to the link
        failure the running event descends from, if any."""
        if self.current_failure is not None:
            self.reaction_sets[self.current_failure].add(node)

    # -- transmission ----------------------------------------------------------

    def process_emissions(self, frm: int, emissions: list[Emission], now: float) -> None:
        for em in emissions:
            packet = em.packet
            bits = self._bits_of(packet)
            if not self.agents[frm].energy.debit(self.scenario.beta_tx * bits):
                self._drop("tx_suppressed", frm, packet, now)
                continue
            self._trace("snd", (frm,), packet, now)
            self.deliver(packet, frm, self._neighbors(frm) if em.to is None else [em.to], now)

    def deliver(self, packet: Packet, frm: int, receivers: list[int], now: float) -> None:
        """Queue one delivery of ``packet`` from ``frm`` per arrival time, each
        naming its receivers in the order given; a receiver with no up link
        is dropped at send."""
        links = self.scenario.links
        bits = self._bits_of(packet)
        # only per-link overrides give a receiver another arrival time
        arrival = now + bits / links.capacity + links.propagation + links.processing
        up = self.adj[frm]
        batches: dict[float, list[int]] = {}
        last = batch = None
        for to in receivers:
            if to not in up:
                self._drop("drop_link_down_at_send", to, packet, now)
                continue
            if links.overrides:
                capacity, propagation = links.params(frm, to)
                arrival = now + bits / capacity + propagation + links.processing
            # the dict is touched only where the arrival time changes
            if arrival != last:
                last = arrival
                batch = batches.setdefault(arrival, [])
            batch.append(to)
        for arrival, batch in batches.items():
            self.counters["frames_sent"] += len(batch)
            # a frame sent in reaction to a link failure carries the failure's id
            self.schedule(arrival, self._on_delivery, packet, frm, batch, self.current_failure)

    def _drop(self, reason: str, node: int, packet: Packet | None, now: float) -> None:
        """The only writer of ``drp`` lines and drop-reason counters: counts
        a ``reason`` drop and writes ``packet``'s ``drp`` line at ``node``,
        unless ``packet`` is None, as for a frame in the air at the end."""
        self.counters[reason] += 1
        if packet is not None:
            self._trace("drp", (node,), packet, now)

    # -- event handlers -----------------------------------------------------------

    def _on_delivery(self, packet: Packet, frm: int, receivers: list[int], cause: int | None) -> None:
        """Deliver one frame to its receivers: check each, write one ``rcv``
        line for those that got it, then run their handlers in order. No
        handler reads another node's state or the links, so each receiver
        still pays for the frame before it pays for its reply."""
        now = self.now
        self.current_failure = cause
        cost = self.scenario.beta_rx * self._bits_of(packet)
        up, agents = self.adj[frm], self.agents
        got = []
        for to in receivers:
            if to not in up:
                self._drop("drop_cancelled_in_flight", to, packet, now)
            elif not agents[to].energy.debit(cost):
                self._drop("drop_rx_energy", to, packet, now)
            else:
                got.append(to)
        if not got:
            return
        self.counters["frames_delivered"] += len(got)
        self._trace("rcv", tuple(got), packet, now)
        if isinstance(packet, DataPacket) and packet.destination in got:
            self.counters["data_delivered"] += 1
        handler = PACKET_KINDS[type(packet)].handler
        for to in got:
            # looked up on the agent at call time, so a patched handler is seen
            out = getattr(agents[to], handler)(packet, frm, now)
            if out:
                self.process_emissions(to, out, now)

    def _on_hello_timer(self) -> None:
        now = self.now
        for i in sorted(self.agents):
            self.process_emissions(i, self.agents[i].hello_tick(now), now)
        # only live routes count, so the sample cannot tell when a tick pruned
        total = sum(
            r.live(now) for a in self.agents.values() for t in a.toward.values() for r in t.cache.values()
        )
        self.cache_samples.append((now, total))
        nxt = now + self.scenario.protocol.hello_interval
        if nxt <= self.end_time:
            self.schedule(nxt, self._on_hello_timer)

    def _on_evaporation_timer(self) -> None:
        now = self.now
        for i in sorted(self.agents):
            self.agents[i].evaporation_tick(now)
        nxt = now + self.scenario.protocol.evaporation_period
        if nxt <= self.end_time:
            self.schedule(nxt, self._on_evaporation_timer)

    def _on_data_injection(self, src: int, dst: int, bits: int, seq: int) -> None:
        now = self.now
        self.counters["data_offered"] += 1
        self.process_emissions(src, self.agents[src].send_data(dst, bits, seq, now), now)

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
                        self._pick_waypoint(i)
                elif m.speed > 0 and math.dist(m.pos, m.target) <= 1e-9:
                    m.pos = m.target
                    pause = self.scenario.topology.pause_time
                    if pause > 0:
                        m.pause_until = seg_end + pause
                    else:
                        self._pick_waypoint(i)
            t = seg_end

    def _crossings(self, t0: float, t1: float) -> None:
        """Schedule the exact range crossings of pairwise-linear motion on
        [t0, t1), pair by pair in (a, b) order.

        Only the pairs in a distance band around the range are solved.
        Velocities are constant within a segment and no node moves faster
        than ``vmax``, so a pair's distance changes by at most ``2 * vmax *
        (t1 - t0)`` in it. A pair whose distance at ``t0`` is farther than
        that from the range, plus 1 m of slack for rounding, stays on its
        side of the range, and its quadratic has no root in the segment:
        the skin argument of Verlet neighbour lists (Allen and Tildesley,
        *Computer Simulation of Liquids*, 1987). Every other pair is solved
        as the all-pairs scan solved it."""
        r = self.scenario.topology.comm_range
        rr = r * r
        # each node's position and velocity, read once per segment
        state = [
            (i, m.pos[0], m.pos[1], *m.velocity(t0))
            for i, m in sorted(self.mobility.items())
        ]
        vmax = max((math.hypot(vx, vy) for _i, _x, _y, vx, vy in state), default=0.0)
        skin = 2.0 * vmax * (t1 - t0) + 1.0
        inner = max(r - skin, 0.0) ** 2
        outer = (r + skin) ** 2
        for ai, (a, ax, ay, avx, avy) in enumerate(state):
            for b, bx, by, bvx, bvy in state[ai + 1 :]:
                dx, dy = ax - bx, ay - by
                d2 = dx * dx + dy * dy
                if d2 < inner or d2 > outer:
                    continue
                vx, vy = avx - bvx, avy - bvy
                qa = vx * vx + vy * vy
                if qa <= 1e-18:
                    continue
                qb = 2.0 * (dx * vx + dy * vy)
                qc = d2 - rr
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
        for _t, _seq, handler, args in queue:
            if handler == self._on_delivery:
                for to in args[2]:
                    self._drop("drop_end_of_run", to, None, self.end_time)
        queue.clear()
        self._flush_stuck_data()
        self.counters["frames_dropped"] = sum(self.counters[r] for r in FRAME_DROPS)
        return self

    def _flush_stuck_data(self) -> None:
        """Packets still queued when the run ends count as offered but lost."""
        for i in sorted(self.agents):
            agent = self.agents[i]
            for dest, toward in sorted(agent.toward.items()):
                for seq, bits in toward.queue:
                    marker = DataPacket(
                        source=i, destination=dest, seq=seq, size_bits=bits, path=(i, dest)
                    )
                    self._drop("data_queued_at_end", i, marker, self.end_time)

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
