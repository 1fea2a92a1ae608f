"""Per-node protocol state machine.

Each node runs one agent. The agent owns the node's height state toward
every destination it has heard of, the pheromone table, the neighbor table
fed by hello beacons, the per-destination candidate table built from
discovery replies, and the route cache holding QoS-admitted source routes
for flows this node originates.

Every received packet, data included, reaches the agent through the
handler its ``PacketKind`` names, as ``handler(packet, sender, now)``.
Handlers are pure with respect to everything outside the agent: they take
packets and the current simulation time, mutate the agent, and return the
packets to transmit. Agents never share state; all coordination happens
through emissions. A new data packet enters through ``send_data``, which
queues it when no live route exists; whether a discovery starts is decided
in one place, ``_rediscover``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .aco import (
    CandidateEntry,
    DepositWeights,
    NormalizationBounds,
    PathMetrics,
    PreferenceWeights,
    path_preference,
    pheromone_deposit,
    pheromone_update,
    evaporate,
)
from .heights import (
    Height,
    MaintenanceCase,
    NodeToraState,
    Trigger,
    apply_clr,
    has_downstream,
    maintenance_case,
    new_height_on_reply,
)
from .packets import (
    ClrPacket,
    DataPacket,
    ErrorPacket,
    HelloAnt,
    Packet,
    QryReplyAnt,
    QryRequestAnt,
    UpdPacket,
)

if TYPE_CHECKING:  # scenario.py imports this module
    from .scenario import LinkSpec

ERROR_DEDUP_WINDOW = 5.0


class SimClockError(Exception):
    """A packet arrived at or before its own send time."""


@dataclass(frozen=True)
class QosConstraints:
    """Componentwise admission thresholds for cached routes."""

    max_delay: float = 10.0
    min_bandwidth: float = 1.0
    min_energy: float = 1e-6
    max_drain_rate: float = 1e6
    max_hop_count: int = 32  # counts nodes, endpoints included

    def __post_init__(self) -> None:
        for name in ("max_delay", "min_bandwidth", "min_energy", "max_drain_rate", "max_hop_count"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def admits(self, m: PathMetrics) -> bool:
        return (
            m.delay <= self.max_delay
            and m.bandwidth >= self.min_bandwidth
            and m.energy >= self.min_energy
            and m.drain_rate <= self.max_drain_rate
            and m.hop_count <= self.max_hop_count
        )


@dataclass
class NeighborInfo:
    """Last heard energy budget and bandwidth estimate for one neighbor."""

    residual_energy: float = 0.0
    drain_rate: float = 0.0
    est_bandwidth: float = 0.0
    last_hello: float = 0.0


@dataclass
class NodeEnergy:
    """Residual battery plus a smoothed estimate of the dissipation rate."""

    residual: float
    drain_rate: float = 0.0
    window_spent: float = 0.0

    def debit(self, joules: float) -> bool:
        """Spend energy if affordable; a refused debit leaves state alone."""
        if joules < 0:
            raise ValueError("debit must be nonnegative")
        if self.residual < joules:
            return False
        self.residual -= joules
        self.window_spent += joules
        return True

    def tick(self, window: float, alpha: float) -> None:
        rate = self.window_spent / window
        self.drain_rate = alpha * rate + (1.0 - alpha) * self.drain_rate
        self.window_spent = 0.0


@dataclass
class RouteCacheEntry:
    """A QoS-admitted source route with its ranking probability."""

    path: tuple[int, ...]
    metrics: PathMetrics
    preference: float
    created_at: float
    expires_at: float

    def __post_init__(self) -> None:
        if len(set(self.path)) != len(self.path):
            raise ValueError("cached path must be loop-free")
        if self.expires_at <= self.created_at:
            raise ValueError("cached route must expire after creation")
        if not 0.0 <= self.preference <= 1.0:
            raise ValueError("preference is a probability")

    @property
    def next_hop(self) -> int:
        return self.path[1]


@dataclass
class Candidate:
    """Latest reply-borne route toward a destination via one neighbor."""

    next_hop: int
    path: tuple[int, ...]
    metrics: PathMetrics
    created_at: float
    expires_at: float


@dataclass(frozen=True)
class Emission:
    """A packet to transmit; ``to`` is None for a broadcast."""

    packet: Packet
    to: int | None = None


@dataclass(frozen=True)
class ProtocolParams:
    """Tunables shared by every agent in a run."""

    hello_interval: float = 1.0
    hello_bits: int = 512
    neighbor_loss_hellos: int = 3
    route_ttl: float = 10.0
    initial_pheromone: float = 0.1
    metric_packet_bits: int = 512
    drain_alpha: float = 0.3
    deposit_weights: DepositWeights = field(default_factory=DepositWeights)
    preference_weights: PreferenceWeights = field(default_factory=PreferenceWeights)
    bounds: NormalizationBounds = field(default_factory=NormalizationBounds)
    qos: QosConstraints = field(default_factory=QosConstraints)
    baseline: bool = False


class AgentHooks:
    """Observation points the simulator (and tests) can attach to."""

    def height_changed(self, node: int, dest: int, old: Height, new: Height, now: float) -> None:
        pass

    def route_inserted(self, node: int, dest: int, expires_at: float) -> None:
        pass

    def log(self, tag: str, node: int, now: float, **data) -> None:
        pass


class NodeAgent:
    """Protocol logic of a single node."""

    def __init__(
        self,
        node_id: int,
        params: ProtocolParams,
        links: LinkSpec,
        initial_energy: float,
        hooks: AgentHooks | None = None,
    ):
        self.node = node_id
        self.params = params
        # radios know their own links' capacity and propagation delay and
        # every node's processing delay, the way deployed radios know specs
        self.links = links
        self.hooks = hooks or AgentHooks()
        self.energy = NodeEnergy(residual=initial_energy)

        self.tora: dict[int, NodeToraState] = {}
        self.pheromone: dict[int, float] = {}
        self.neighbors: dict[int, NeighborInfo] = {}
        self.link_activated_at: dict[int, float] = {}
        self.candidates: dict[int, dict[int, Candidate]] = {}
        self.preferences: dict[int, dict[int, float]] = {}
        self.cache: dict[int, list[RouteCacheEntry]] = {}
        self.pending_request: dict[int, QryRequestAnt] = {}
        self.initiated: set[int] = set()
        self.last_reply_at: dict[int, float] = {}
        self.seen_errors: dict[tuple[int, int], float] = {}
        self.fwd_history: dict[int, set[tuple[int, int]]] = {}
        self.data_queue: dict[int, list[tuple[int, int]]] = {}  # dest -> [(seq, bits)]

    # -- state plumbing ----------------------------------------------------

    def _state_for(self, dest: int) -> NodeToraState:
        state = self.tora.get(dest)
        if state is None:
            state = NodeToraState(node=self.node, destination=dest)
            for j in sorted(self.link_activated_at):
                state.add_link(j)
            self.tora[dest] = state
        return state

    def _set_height(self, state: NodeToraState, new: Height, now: float) -> None:
        old = state.own_height
        if old == new:
            return
        state.set_own_height(new)
        self.hooks.height_changed(self.node, state.destination, old, new, now)

    def _metric_link_delay(self, neighbor: int) -> float:
        capacity, propagation = self.links.params(self.node, neighbor)
        return propagation + self.params.metric_packet_bits / capacity

    # -- link layer --------------------------------------------------------

    def link_up(self, neighbor: int, now: float) -> list[Emission]:
        if neighbor in self.link_activated_at:
            return []
        self.link_activated_at[neighbor] = now
        self.pheromone.setdefault(neighbor, self.params.initial_pheromone)
        for state in self.tora.values():
            state.add_link(neighbor)
        emissions: list[Emission] = []
        # an outstanding discovery gets another chance over the new link
        for dest in sorted(self.tora):
            state = self.tora[dest]
            if state.route_required and dest in self.pending_request:
                emissions.append(Emission(self.pending_request[dest]))
        return emissions

    def on_link_failure(self, failed: int, now: float) -> list[Emission]:
        if failed not in self.link_activated_at and failed not in self.neighbors:
            return []
        self.link_activated_at.pop(failed, None)
        self.neighbors.pop(failed, None)
        self.pheromone.pop(failed, None)
        flows = self.fwd_history.pop(failed, set())
        emissions: list[Emission] = []
        for dest in sorted(self.tora):
            state = self.tora[dest]
            if failed not in state.links:
                continue
            state.remove_link(failed)
            self._drop_candidates(dest, lambda c: c.next_hop == failed)
            self._drop_routes(dest, now, lambda e: e.next_hop == failed)
            self._recompute_preferences(dest, now)
            if self.node == dest:
                continue
            if has_downstream(state):
                # another downstream link survives: data falls back to the
                # best remaining cached route, no control traffic at all
                continue
            # only relays write fwd_history, so these flows are never our own
            for s in sorted({s for (s, d) in flows if d == dest}):
                self.seen_errors[(s, self.node)] = now  # ignore our own flood echo
                emissions.append(Emission(ErrorPacket(source=s, originator=self.node)))
            emissions.extend(self._run_maintenance(state, Trigger.LINK_FAILURE, now))
            if self.data_queue.get(dest):
                emissions.extend(self._rediscover(dest, now))
        return emissions

    # -- hello plane ---------------------------------------------------------

    def on_hello(self, hello: HelloAnt, sender: int, now: float) -> list[Emission]:
        if now <= hello.send_time:
            raise SimClockError(f"hello received at {now} not after send time {hello.send_time}")
        if sender not in self.link_activated_at:
            self.link_up(sender, now)
        self.neighbors[sender] = NeighborInfo(
            residual_energy=hello.residual_energy,
            drain_rate=hello.drain_rate,
            est_bandwidth=hello.size_bits / (now - hello.send_time),
            last_hello=now,
        )
        return []

    def hello_tick(self, now: float) -> list[Emission]:
        """Periodic beacon: refresh the drain estimate, detect silent
        neighbors, then announce ourselves."""
        self.energy.tick(self.params.hello_interval, self.params.drain_alpha)
        emissions: list[Emission] = []
        cutoff = self.params.neighbor_loss_hellos * self.params.hello_interval
        for j in sorted(self.neighbors):
            if now - self.neighbors[j].last_hello > cutoff:
                self.hooks.log("neighbor_lost", self.node, now, neighbor=j)
                emissions.extend(self.on_link_failure(j, now))
        if self.energy.residual > 0:
            emissions.append(
                Emission(
                    HelloAnt(
                        sender=self.node,
                        send_time=now,
                        residual_energy=self.energy.residual,
                        drain_rate=self.energy.drain_rate,
                        size_bits=self.params.hello_bits,
                    )
                )
            )
        return emissions

    def evaporation_tick(self, now: float) -> None:
        q = self.params.preference_weights.decay
        if not self.params.baseline:
            for j in sorted(self.pheromone):
                self.pheromone[j] = evaporate(self.pheromone[j], q)
        for dest in sorted(self.candidates):
            self._drop_candidates(dest, lambda c: c.expires_at <= now)
            self._recompute_preferences(dest, now)

    # -- route discovery -----------------------------------------------------

    def start_discovery(self, dest: int, now: float) -> list[Emission]:
        state = self._state_for(dest)
        self._set_height(state, Height.null(self.node), now)
        state.route_required = True
        self.initiated.add(dest)
        req = QryRequestAnt(
            request_start_time=now,
            source=self.node,
            destination=dest,
            visited=(self.node,),
        )
        self.pending_request[dest] = req
        self.hooks.log("discovery_started", self.node, now, dest=dest)
        return [Emission(req)]

    def on_qry_request(self, req: QryRequestAnt, sender: int, now: float) -> list[Emission]:
        if req.source == self.node:
            return []
        if self.node == req.destination:
            reply = self._destination_reply(req, sender)
            if reply is None:
                self.hooks.log("reply_unbuildable", self.node, now, dest=req.destination)
                return []
            self.last_reply_at[req.destination] = now
            return [Emission(reply)]
        if self.node in req.visited:
            return []
        state = self._state_for(req.destination)
        if not has_downstream(state):
            if state.route_required:
                return []
            self._set_height(state, Height.null(self.node), now)
            state.route_required = True
            fwd = dataclasses.replace(req, visited=req.visited + (self.node,))
            self.pending_request[req.destination] = fwd
            return [Emission(fwd)]
        if state.own_height.is_null:
            self._set_height(
                state, new_height_on_reply(state.concrete_mirrors(), self.node), now
            )
            state.route_required = False
        else:
            # one reply per destination and discovery wave over each link:
            # suppression resets when the link re-activates or a fresh wave
            # starts, else rediscovery could never be answered
            activated = self.link_activated_at.get(sender, now)
            threshold = max(activated, req.request_start_time)
            if self.last_reply_at.get(req.destination, -1.0) >= threshold:
                return []
        reply = self._build_reply(req, now)
        if reply is None:
            self.hooks.log("reply_unbuildable", self.node, now, dest=req.destination)
            return []
        self.last_reply_at[req.destination] = now
        return [Emission(reply)]

    def on_qry_reply(self, rep: QryReplyAnt, sender: int, now: float) -> list[Emission]:
        state = self._state_for(rep.destination)
        state.set_mirror(sender, rep.reporter_height)
        if self.node == rep.destination:
            return []
        dest = rep.destination
        extended: PathMetrics | None = None
        path: tuple[int, ...] = ()
        info = self.neighbors.get(sender)
        usable = (
            self.node not in rep.path_nodes
            and rep.path_nodes[0] == sender
            and info is not None
            and info.est_bandwidth > 0
        )
        if usable:
            extended, path = self._extend_metrics(rep, sender)
            cand = self.candidates.setdefault(dest, {})
            old = cand.get(sender)
            cand[sender] = Candidate(
                next_hop=sender,
                path=path,
                metrics=extended,
                created_at=old.created_at if old else now,
                expires_at=now + self.params.route_ttl,
            )
            if not self.params.baseline:
                deposit = pheromone_deposit(
                    extended, self.params.deposit_weights, self.params.bounds
                )
                tau = self.pheromone.get(sender, self.params.initial_pheromone)
                self.pheromone[sender] = pheromone_update(
                    tau, self.params.preference_weights.persistence, deposit
                )
            self._recompute_preferences(dest, now)

        emissions: list[Emission] = []
        if state.route_required:
            concrete = state.concrete_mirrors()
            if concrete:
                self._set_height(state, new_height_on_reply(concrete, self.node), now)
                state.route_required = False
                # the source consumes the reply without republishing it: its
                # reverse-path stack is empty, and advertising the source
                # height would leave stale low mirrors at its neighbors that
                # later absorb reversal cascades and mask partitions
                if extended is not None and self.node != rep.source:
                    emissions.append(
                        Emission(
                            QryReplyAnt(
                                hop_count=extended.hop_count,
                                delay=extended.delay,
                                energy=extended.energy,
                                drain_rate=extended.drain_rate,
                                bandwidth=extended.bandwidth,
                                source=rep.source,
                                destination=dest,
                                path_nodes=path,
                                reporter_height=state.own_height,
                            )
                        )
                    )
                    self.last_reply_at[dest] = now

        if rep.source == self.node and extended is not None and dest in self.initiated:
            emissions.extend(self._admit_route(dest, path, extended, now))
        return emissions

    # -- route maintenance -----------------------------------------------------

    def on_upd(self, upd: UpdPacket, sender: int, now: float) -> list[Emission]:
        if sender not in self.link_activated_at:
            return []
        state = self._state_for(upd.destination)
        state.set_mirror(sender, upd.height)
        if self.node == upd.destination:
            return []
        if has_downstream(state):
            return []
        if state.own_height.is_null:
            # an undiscovered node has nothing to reverse
            return []
        return self._run_maintenance(state, Trigger.UPD_REVERSAL, now)

    def _run_maintenance(self, state: NodeToraState, trigger: Trigger, now: float) -> list[Emission]:
        dest = state.destination
        outcome = maintenance_case(state, trigger, now)
        self.hooks.log(
            "maintenance", self.node, now, dest=dest, case=outcome.case.value, trigger=trigger.value
        )
        if outcome.case is MaintenanceCase.DETECT_PARTITION:
            level = state.concrete_mirrors()[0].level
            self.hooks.log("partition_detected", self.node, now, dest=dest, level=level)
            self._erase_state(state, now)
            return [Emission(ClrPacket(destination=dest, reference_level=level))]
        self._set_height(state, outcome.new_height, now)
        if outcome.new_height.is_null:
            return []
        return [Emission(UpdPacket(destination=dest, height=state.own_height))]

    def _erase_state(self, state: NodeToraState, now: float) -> None:
        """Local route erasure run by the node that detected the partition."""
        dest = state.destination
        self._set_height(state, Height.null(self.node), now)
        state.reset_mirrors()
        self.candidates.pop(dest, None)
        self.preferences.pop(dest, None)
        self._drop_routes(dest, now, lambda e: True)

    def on_error(self, err: ErrorPacket, sender: int, now: float) -> list[Emission]:
        key = (err.source, err.originator)
        last = self.seen_errors.get(key)
        if last is not None and now - last < ERROR_DEDUP_WINDOW:
            return []
        self.seen_errors[key] = now
        origin = err.originator
        affected = [
            dest for dest in sorted(self.cache)
            if self._drop_routes(dest, now, lambda e: origin in e.path[1:])
        ]
        for dest in sorted(self.candidates):
            if self._drop_candidates(dest, lambda c: origin in c.path):
                self._recompute_preferences(dest, now)
        if self.node != err.source:
            return [Emission(err)]
        return [em for dest in affected for em in self._rediscover(dest, now)]

    def on_clr(self, clr: ClrPacket, sender: int, now: float) -> list[Emission]:
        state = self._state_for(clr.destination)
        rebroadcast, affected = apply_clr(state, clr.reference_level)
        if affected:
            dest, reset = clr.destination, set(affected)
            self._drop_candidates(dest, lambda c: c.next_hop in reset)
            self._drop_routes(dest, now, lambda e: not reset.isdisjoint(e.path[1:]))
            self._recompute_preferences(dest, now)
        if rebroadcast:
            return [Emission(clr)]
        return []

    # -- data plane ---------------------------------------------------------

    def send_data(self, dest: int, size_bits: int, seq: int, now: float) -> list[Emission]:
        """Send a new data packet on the best live route; with none, queue
        it until a route is admitted and rediscover."""
        entry = self._select_route(dest, now)
        if entry is None:
            self.data_queue.setdefault(dest, []).append((seq, size_bits))
            return self._rediscover(dest, now)
        entry.expires_at = now + self.params.route_ttl  # refreshed on use
        self.hooks.route_inserted(self.node, dest, entry.expires_at)
        packet = DataPacket(
            source=self.node, destination=dest, seq=seq, size_bits=size_bits, path=entry.path
        )
        return [Emission(packet, to=entry.next_hop)]

    def on_data(self, packet: DataPacket, sender: int, now: float) -> list[Emission]:
        """Forward along the packet's source route, remembering which flows
        went over which link; the destination keeps it."""
        if self.node == packet.destination:
            return []
        nxt = packet.path[packet.path.index(self.node) + 1]
        self.fwd_history.setdefault(nxt, set()).add((packet.source, packet.destination))
        return [Emission(packet, to=nxt)]

    def _flush_queue(self, dest: int, now: float) -> list[Emission]:
        return [
            em
            for seq, bits in self.data_queue.pop(dest, [])
            for em in self.send_data(dest, bits, seq, now)
        ]

    def route_expiry(self, dest: int, now: float) -> None:
        self._drop_routes(dest, now, lambda e: e.expires_at <= now, tag="cache_expired")
        self._drop_candidates(dest, lambda c: c.expires_at <= now)
        self._recompute_preferences(dest, now)

    # -- internals ------------------------------------------------------------

    def _select_route(self, dest: int, now: float) -> RouteCacheEntry | None:
        """The best unexpired cached route toward ``dest``, if any."""
        # baseline preferences are all 1.0, so there the oldest route wins
        live = [e for e in self.cache.get(dest, []) if e.expires_at > now]
        return min(live, key=lambda e: (-e.preference, e.created_at, e.path), default=None)

    def _rediscover(self, dest: int, now: float) -> list[Emission]:
        """Start a discovery toward ``dest`` unless a live route exists or
        one is already running."""
        running = dest in self.tora and self.tora[dest].route_required
        if running or self._select_route(dest, now) is not None:
            return []
        return self.start_discovery(dest, now)

    def _drop_routes(
        self,
        dest: int,
        now: float,
        doomed: Callable[[RouteCacheEntry], bool],
        tag: str = "cache_purged",
    ) -> bool:
        """Remove the cached routes toward ``dest`` that ``doomed`` picks;
        returns whether any went."""
        entries = self.cache.get(dest)
        if not entries:
            return False
        kept = [e for e in entries if not doomed(e)]
        if len(kept) == len(entries):
            return False
        self.hooks.log(tag, self.node, now, dest=dest, dropped=len(entries) - len(kept))
        self.cache[dest] = kept
        return True

    def _drop_candidates(self, dest: int, doomed: Callable[[Candidate], bool]) -> bool:
        """Remove the candidates toward ``dest`` that ``doomed`` picks;
        returns whether any went."""
        cand = self.candidates.get(dest)
        if not cand:
            return False
        gone = [j for j, c in cand.items() if doomed(c)]
        for j in gone:
            del cand[j]
        return bool(gone)

    def _live_candidates(self, dest: int, now: float) -> list[Candidate]:
        """Unexpired candidates toward ``dest``, by next hop."""
        cand = self.candidates.get(dest, {})
        return [cand[j] for j in sorted(cand) if cand[j].expires_at > now]

    def _recompute_preferences(self, dest: int, now: float) -> None:
        live = self._live_candidates(dest, now)
        if self.params.baseline or not live:
            self.preferences[dest] = {c.next_hop: 1.0 for c in live}
        else:
            pheromone, initial = self.pheromone, self.params.initial_pheromone
            entries = [
                CandidateEntry(c.next_hop, pheromone.get(c.next_hop, initial), c.metrics)
                for c in live
            ]
            try:
                self.preferences[dest] = dict(
                    path_preference(entries, self.params.preference_weights)
                )
            except ValueError:
                self.preferences[dest] = {}
        prefs = self.preferences[dest]
        for e in self.cache.get(dest, []):
            if e.next_hop in prefs:
                e.preference = prefs[e.next_hop]

    def _extend_metrics(
        self, rep: QryReplyAnt, sender: int
    ) -> tuple[PathMetrics, tuple[int, ...]]:
        info = self.neighbors[sender]
        metrics = PathMetrics(
            delay=rep.delay + self._metric_link_delay(sender) + self.links.processing,
            bandwidth=min(rep.bandwidth, info.est_bandwidth),
            energy=min(rep.energy, self.energy.residual),
            drain_rate=max(rep.drain_rate, self.energy.drain_rate),
            hop_count=rep.hop_count + 1,
        )
        return metrics, (self.node,) + rep.path_nodes

    def _admit_route(
        self, dest: int, path: tuple[int, ...], metrics: PathMetrics, now: float
    ) -> list[Emission]:
        if not self.params.baseline and not self.params.qos.admits(metrics):
            self.hooks.log("route_rejected", self.node, now, dest=dest, path=path)
            return []
        preference = self.preferences.get(dest, {}).get(path[1], 1.0)
        expires = now + self.params.route_ttl
        entries = self.cache.setdefault(dest, [])
        for e in entries:
            if e.path == path:
                e.metrics = metrics
                e.preference = preference
                e.expires_at = expires
                break
        else:
            entries.append(
                RouteCacheEntry(
                    path=path,
                    metrics=metrics,
                    preference=preference,
                    created_at=now,
                    expires_at=expires,
                )
            )
        self.hooks.route_inserted(self.node, dest, expires)
        self.hooks.log("route_cached", self.node, now, dest=dest, path=path)
        return self._flush_queue(dest, now)

    def _destination_reply(self, req: QryRequestAnt, sender: int) -> QryReplyAnt | None:
        info = self.neighbors.get(sender)
        if info is None or info.est_bandwidth <= 0:
            return None
        return QryReplyAnt(
            hop_count=1,
            delay=self.links.processing,
            energy=self.energy.residual,
            drain_rate=self.energy.drain_rate,
            bandwidth=info.est_bandwidth,
            source=req.source,
            destination=self.node,
            path_nodes=(self.node,),
            reporter_height=Height.zero(self.node),
        )

    def _best_candidate(self, dest: int, now: float) -> Candidate | None:
        live = self._live_candidates(dest, now)
        if not live:
            return None
        if self.params.baseline:
            return min(live, key=lambda c: (c.created_at, c.next_hop))
        prefs = self.preferences.get(dest, {})
        return min(live, key=lambda c: (-prefs.get(c.next_hop, 0.0), c.next_hop))

    def _build_reply(self, req: QryRequestAnt, now: float) -> QryReplyAnt | None:
        dest = req.destination
        state = self._state_for(dest)
        best = self._best_candidate(dest, now)
        if best is not None:
            m, path = best.metrics, best.path
        elif dest in self.neighbors and self.neighbors[dest].est_bandwidth > 0:
            info = self.neighbors[dest]
            m = PathMetrics(
                # this node's processing delay, then the destination's
                delay=self._metric_link_delay(dest) + self.links.processing + self.links.processing,
                bandwidth=info.est_bandwidth,
                energy=min(self.energy.residual, info.residual_energy),
                drain_rate=max(self.energy.drain_rate, info.drain_rate),
                hop_count=2,
            )
            path = (self.node, dest)
        else:
            return None
        return QryReplyAnt(
            hop_count=m.hop_count,
            delay=m.delay,
            energy=m.energy,
            drain_rate=m.drain_rate,
            bandwidth=m.bandwidth,
            source=req.source,
            destination=dest,
            path_nodes=path,
            reporter_height=state.own_height,
        )
