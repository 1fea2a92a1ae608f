"""Per-node protocol state machine.

Each node runs one agent, which keeps two records. A ``Toward`` per
destination holds the node's height state toward it, its candidates from
discovery replies (first hop -> ``Route``), its cache of QoS-admitted source
routes for flows this node originates (path -> ``Route``), the request the
node waits on, when it last relayed a reply, and the data queued for a route.
A ``Link`` per up link holds when it came up, its pheromone and its last
hello; ``link_up`` makes it and ``on_link_failure`` drops it. ``_insert``
writes both route tables and ``_prune`` prunes both. A route lives one route
TTL from its last use, and ``Route.live`` is the one expiry test every
reader applies, so an expired route acts as if it were gone;
``evaporation_tick`` has ``route_expiry`` drop the expired routes, and
nothing schedules an expiry. ``_best`` picks a route; its ``_best_first``
ranks each route by the current tau of its first hop and its own metrics.
Baseline mode never ranks.

A node is route-required toward a destination exactly while its record holds
a request. It takes one up in one place, ``_await_route``, and drops it in
one, ``_adopt_height``. A reply whose source is this node answers a
discovery this node started. Every reply ant is seeded by
``_destination_reply`` or built from a route by ``_reply``, each hop's
metrics are folded by ``_extend_metrics``, and every reply a relay sends
leaves through ``_send_reply``.

Every received packet, data included, reaches the agent through the
handler its ``PacketKind`` names, as ``handler(packet, sender, now)``.
Handlers are pure with respect to everything outside the agent: they take
packets and the current simulation time, mutate the agent, and return the
packets to transmit. Agents never share state; all coordination happens
through emissions, apart from each height change, which ``_set_height``
makes and reports to the agent's ``on_height`` callable. Every handler that
reads the sender's link ignores a frame over no link. A new data packet
enters through ``send_data``, which queues it when no live route exists;
whether a discovery starts is decided in one place, ``_rediscover``. A link
failure sends no route error; a relay that meets a dead link sends one back
along the data packet's path.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .aco import (
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


class SimClockError(Exception):
    """A packet arrived at or before its own send time."""


class _QosConstraintsFields(NamedTuple):
    max_delay: float = 10.0
    min_bandwidth: float = 1.0
    min_energy: float = 1e-6
    max_drain_rate: float = 1e6
    max_hop_count: int = 32  # counts nodes, endpoints included


class QosConstraints(_QosConstraintsFields):
    """Componentwise admission thresholds for cached routes. A tuple,
    checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "QosConstraints":
        self = super().__new__(cls, *args, **kwargs)
        for name in ("max_delay", "min_bandwidth", "min_energy", "max_drain_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_hop_count < 2:
            raise ValueError(f"max_hop_count must be >= 2, got {self.max_hop_count}")
        return self

    def admits(self, m: PathMetrics) -> bool:
        return (
            m.delay <= self.max_delay
            and m.bandwidth >= self.min_bandwidth
            and m.energy >= self.min_energy
            and m.drain_rate <= self.max_drain_rate
            and m.hop_count <= self.max_hop_count
        )


class NeighborInfo(NamedTuple):
    """Last heard energy budget and bandwidth estimate for one neighbor;
    each hello replaces it whole."""

    residual_energy: float
    drain_rate: float
    est_bandwidth: float
    last_hello: float


class Link:
    """One up link: when it came up, its pheromone, the last hello heard,
    and the delay a metric packet takes over it, which its parameters fix."""

    __slots__ = ("since", "tau", "hello", "delay")

    def __init__(self, since: float, tau: float, delay: float) -> None:
        self.since = since
        self.tau = tau
        self.hello: NeighborInfo | None = None
        self.delay = delay


class NodeEnergy:
    """Residual battery plus a smoothed estimate of the dissipation rate."""

    __slots__ = ("residual", "drain_rate", "window_spent")

    def __init__(self, residual: float) -> None:
        self.residual = residual
        self.drain_rate = 0.0
        self.window_spent = 0.0

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


class Route:
    """A reply-borne source route: a candidate toward a destination via its
    first hop, or a QoS-admitted route in the cache. Only ``expires_at``
    changes once it is built."""

    __slots__ = ("path", "metrics", "created_at", "expires_at")

    def __init__(
        self, path: tuple[int, ...], metrics: PathMetrics, created_at: float, expires_at: float
    ) -> None:
        if len(set(path)) != len(path):
            raise ValueError("route path must be loop-free")
        if expires_at <= created_at:
            raise ValueError("route must expire after creation")
        self.path = path
        self.metrics = metrics
        self.created_at = created_at
        self.expires_at = expires_at

    @property
    def next_hop(self) -> int:
        return self.path[1]

    def live(self, now: float) -> bool:
        """Whether the route is still usable at ``now``: the one expiry
        test. An expired route acts as if it were gone."""
        return self.expires_at > now


class Toward:
    """What a node keeps toward one destination. The node is route-required
    toward it exactly while ``request`` is set."""

    __slots__ = ("tora", "candidates", "cache", "expiry_floor", "request", "replied_at", "queue")

    def __init__(self, tora: NodeToraState) -> None:
        self.tora = tora
        self.candidates: dict[int, Route] = {}  # first hop -> route
        self.cache: dict[tuple[int, ...], Route] = {}  # path -> route
        # at most the earliest expiry in either table; see route_expiry
        self.expiry_floor = -math.inf
        self.request: QryRequestAnt | None = None
        self.replied_at = -1.0
        self.queue: list[tuple[int, int]] = []  # [(seq, bits)]


class Emission(NamedTuple):
    """A packet to transmit; ``to`` is None for a broadcast."""

    packet: Packet
    to: int | None = None


class ProtocolParams(NamedTuple):
    """Tunables shared by every agent in a run."""

    hello_interval: float = 1.0
    evaporation_period: float = 1.0
    hello_bits: int = 512
    neighbor_loss_hellos: int = 3
    route_ttl: float = 10.0
    initial_pheromone: float = 0.1
    metric_packet_bits: int = 512
    drain_alpha: float = 0.3
    deposit_weights: DepositWeights = DepositWeights()
    preference_weights: PreferenceWeights = PreferenceWeights()
    bounds: NormalizationBounds = NormalizationBounds()
    qos: QosConstraints = QosConstraints()
    baseline: bool = False


class NodeAgent:
    """Protocol logic of a single node."""

    def __init__(
        self,
        node_id: int,
        params: ProtocolParams,
        links: LinkSpec,
        initial_energy: float,
        on_height: Callable[[int, int, Height, Height, float], None] | None = None,
    ):
        self.node = node_id
        self.params = params
        # radios know their own links' capacity and propagation delay and
        # every node's processing delay, the way deployed radios know specs
        self.links = links
        self.on_height = on_height  # called as (node, dest, old, new, now)
        self.energy = NodeEnergy(residual=initial_energy)

        self.toward: dict[int, Toward] = {}  # destination -> record
        self.adjacent: dict[int, Link] = {}  # neighbor -> up link

    # -- state plumbing ----------------------------------------------------

    def _toward(self, dest: int) -> Toward:
        """The record toward ``dest``, made on first use with every current
        link in its height state."""
        toward = self.toward.get(dest)
        if toward is None:
            toward = self.toward[dest] = Toward(NodeToraState(node=self.node, destination=dest))
            for j in sorted(self.adjacent):
                toward.tora.add_link(j)
        return toward

    def _set_height(self, state: NodeToraState, new: Height, now: float) -> None:
        old = state.own_height
        if old == new:
            return
        state.set_own_height(new)
        if self.on_height is not None:
            self.on_height(self.node, state.destination, old, new, now)

    # -- link layer --------------------------------------------------------

    def link_up(self, neighbor: int, now: float) -> list[Emission]:
        if neighbor in self.adjacent:
            return []
        capacity, propagation = self.links.params(self.node, neighbor)
        delay = propagation + self.params.metric_packet_bits / capacity
        self.adjacent[neighbor] = Link(now, self.params.initial_pheromone, delay)
        for toward in self.toward.values():
            toward.tora.add_link(neighbor)
        # an outstanding discovery gets another chance over the new link
        return [Emission(t.request) for _, t in sorted(self.toward.items()) if t.request is not None]

    def on_link_failure(self, failed: int, now: float) -> list[Emission]:
        if failed not in self.adjacent:
            return []
        del self.adjacent[failed]
        emissions: list[Emission] = []
        for dest, toward in sorted(self.toward.items()):
            toward.tora.remove_link(failed)
            self._prune(toward.candidates, lambda c: c.next_hop == failed)
            self._prune(toward.cache, lambda e: e.next_hop == failed)
            if self.node == dest or has_downstream(toward.tora):
                # the destination, and a node a downstream link survives at, send nothing
                continue
            emissions.extend(self._run_maintenance(toward, Trigger.LINK_FAILURE, now))
            if toward.queue:
                emissions.extend(self._rediscover(toward, now))
        return emissions

    # -- hello plane ---------------------------------------------------------

    def on_hello(self, hello: HelloAnt, sender: int, now: float) -> list[Emission]:
        if now <= hello.send_time:
            raise SimClockError(f"hello received at {now} not after send time {hello.send_time}")
        link = self.adjacent.get(sender)
        if link is None:
            return []
        # residual energy, drain rate, estimated bandwidth, last hello
        link.hello = NeighborInfo(
            hello.residual_energy, hello.drain_rate, hello.size_bits / (now - hello.send_time), now
        )
        return []

    def hello_tick(self, now: float) -> list[Emission]:
        """Periodic beacon: refresh the drain estimate, detect silent
        neighbors, then announce ourselves."""
        self.energy.tick(self.params.hello_interval, self.params.drain_alpha)
        emissions: list[Emission] = []
        cutoff = self.params.neighbor_loss_hellos * self.params.hello_interval
        for j, link in sorted(self.adjacent.items()):
            if link.hello is not None and now - link.hello.last_hello > cutoff:
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
            for _, link in sorted(self.adjacent.items()):
                link.tau = evaporate(link.tau, q)
        for dest, toward in sorted(self.toward.items()):
            if toward.candidates or toward.cache:
                self.route_expiry(dest, now)

    # -- route discovery -----------------------------------------------------

    def start_discovery(self, dest: int, now: float) -> list[Emission]:
        req = QryRequestAnt(
            request_start_time=now,
            source=self.node,
            destination=dest,
            visited=(self.node,),
        )
        return self._await_route(self._toward(dest), req, now)

    def on_qry_request(self, req: QryRequestAnt, sender: int, now: float) -> list[Emission]:
        if req.source == self.node or sender not in self.adjacent:
            return []
        dest = req.destination
        if self.node == dest:
            hello = self.adjacent[sender].hello
            if hello is not None:
                energy = self.energy
                reply = self._destination_reply(
                    req.source, dest, energy.residual, energy.drain_rate, hello.est_bandwidth
                )
                return [Emission(reply)]
        else:
            if self.node in req.visited:
                return []
            toward = self._toward(dest)
            state = toward.tora
            if not has_downstream(state):
                if toward.request is not None:
                    return []
                fwd = QryRequestAnt(req.request_start_time, req.source, dest, req.visited + (self.node,))
                return self._await_route(toward, fwd, now)
            if state.own_height.is_null:
                self._adopt_height(toward, now)
            else:
                # one reply per destination and discovery wave over each link:
                # suppression resets when the link re-activates or a fresh wave
                # starts, else rediscovery could never be answered
                if toward.replied_at >= max(self.adjacent[sender].since, req.request_start_time):
                    return []
            reply = self._relay_reply(req, toward, now)
            if reply is not None:
                return self._send_reply(toward, reply, now)
        return []

    def on_qry_reply(self, rep: QryReplyAnt, sender: int, now: float) -> list[Emission]:
        link = self.adjacent.get(sender)
        if link is None:
            return []
        toward = self._toward(rep.destination)
        toward.tora.set_mirror(sender, rep.reporter_height)
        if self.node == rep.destination:
            return []
        extended: PathMetrics | None = None
        path: tuple[int, ...] = ()
        usable = link.hello is not None and rep.path_nodes[0] == sender and self.node not in rep.path_nodes
        if usable:
            extended, path = self._extend_metrics(rep, sender)
            self._insert(toward, toward.candidates, sender, path, extended, now)
            if not self.params.baseline:
                deposit = pheromone_deposit(
                    extended, self.params.deposit_weights, self.params.bounds
                )
                link.tau = pheromone_update(
                    link.tau, self.params.preference_weights.persistence, deposit
                )

        emissions: list[Emission] = []
        if toward.request is not None and any(not h.is_null for h in toward.tora.links.values()):
            self._adopt_height(toward, now)
            # the source consumes the reply without republishing it: its
            # reverse-path stack is empty, and advertising the source
            # height would leave stale low mirrors at its neighbors that
            # later absorb reversal cascades and mask partitions
            if extended is not None and self.node != rep.source:
                reply = self._reply(rep.source, rep.destination, extended, path, toward.tora.own_height)
                emissions.extend(self._send_reply(toward, reply, now))

        # every request starts in start_discovery and every reply copies the
        # source of the request it answers, so this node started this discovery
        if rep.source == self.node and extended is not None:
            emissions.extend(self._admit_route(toward, path, extended, now))
        return emissions

    def _await_route(self, toward: Toward, req: QryRequestAnt, now: float) -> list[Emission]:
        """Enter route-required toward the record's destination: NULL
        height, and ``req`` held (``link_up`` re-sends it) and flooded. The
        only place a request is held."""
        self._set_height(toward.tora, Height.null(self.node), now)
        toward.request = req
        return [Emission(req)]

    def _adopt_height(self, toward: Toward, now: float) -> None:
        """Join the DAG just above the lowest concrete neighbor, leaving
        route-required by dropping the held request. The only place a
        request is dropped."""
        state = toward.tora
        self._set_height(state, new_height_on_reply(state.concrete_mirrors(), self.node), now)
        toward.request = None

    # -- route maintenance -----------------------------------------------------

    def on_upd(self, upd: UpdPacket, sender: int, now: float) -> list[Emission]:
        if sender not in self.adjacent:
            return []
        toward = self._toward(upd.destination)
        state = toward.tora
        state.set_mirror(sender, upd.height)
        if self.node == upd.destination:
            return []
        if has_downstream(state):
            return []
        if state.own_height.is_null:
            # an undiscovered node has nothing to reverse
            return []
        return self._run_maintenance(toward, Trigger.UPD_REVERSAL, now)

    def _run_maintenance(self, toward: Toward, trigger: Trigger, now: float) -> list[Emission]:
        state = toward.tora
        new = maintenance_case(state, trigger, now)
        if new is None:
            return self._erase_state(toward, state.concrete_mirrors()[0].level, now)
        self._set_height(state, new, now)
        if new.is_null:
            return []
        return [Emission(UpdPacket(destination=state.destination, height=new))]

    def _erase_state(self, toward: Toward, level: tuple, now: float) -> list[Emission]:
        """The one route erasure toward the record's destination, run by the
        partition detector and by each node a clear for its own ``level``
        reaches; returns that clear. Every candidate's and cached route's
        first hop is a current link, so all of them go."""
        state = toward.tora
        self._set_height(state, Height.null(self.node), now)
        state.reset_mirrors()
        toward.candidates.clear()
        toward.cache.clear()
        return [Emission(ClrPacket(destination=state.destination, reference_level=level))]

    def on_error(self, err: ErrorPacket, sender: int, now: float) -> list[Emission]:
        """Purge the routes and candidates over the error's link, either way;
        pass the error back along its path, or rediscover at its source."""
        a, b = err.path[-2:]
        broken = {(a, b), (b, a)}

        def crosses(route: Route) -> bool:
            return not broken.isdisjoint(zip(route.path, route.path[1:]))

        affected: list[Toward] = []
        for _, toward in sorted(self.toward.items()):
            if any(r.live(now) for r in self._prune(toward.cache, crosses)):
                affected.append(toward)
            self._prune(toward.candidates, crosses)
        if self.node != err.path[0]:
            return [Emission(err, to=err.path[err.path.index(self.node) - 1])]
        return [em for toward in affected for em in self._rediscover(toward, now)]

    def on_clr(self, clr: ClrPacket, sender: int, now: float) -> list[Emission]:
        toward = self._toward(clr.destination)
        erase, affected = apply_clr(toward.tora, clr.reference_level)
        if erase:
            return self._erase_state(toward, clr.reference_level, now)
        if affected:
            reset = set(affected)
            self._prune(toward.candidates, lambda c: c.next_hop in reset)
            self._prune(toward.cache, lambda e: not reset.isdisjoint(e.path[1:]))
        return []

    # -- data plane ---------------------------------------------------------

    def send_data(self, dest: int, size_bits: int, seq: int, now: float) -> list[Emission]:
        """Send a new data packet on the best live route; with none, queue
        it until a route is admitted and rediscover."""
        toward = self._toward(dest)
        entry = self._best(toward.cache, now)
        if entry is None:
            toward.queue.append((seq, size_bits))
            return self._rediscover(toward, now)
        entry.expires_at = now + self.params.route_ttl  # refreshed on use
        packet = DataPacket(
            source=self.node, destination=dest, seq=seq, size_bits=size_bits, path=entry.path
        )
        return [Emission(packet, to=entry.next_hop)]

    def on_data(self, packet: DataPacket, sender: int, now: float) -> list[Emission]:
        """Forward along the packet's source route; the destination keeps it.
        A dead next-hop link still gets the packet, which it drops, and a
        route error naming that link goes back to the previous hop."""
        if self.node == packet.destination:
            return []
        path = packet.path
        i = path.index(self.node)
        emissions = [Emission(packet, to=path[i + 1])]
        if path[i + 1] not in self.adjacent:
            emissions.append(Emission(ErrorPacket(path[: i + 2]), to=path[i - 1]))
        return emissions

    def route_expiry(self, dest: int, now: float) -> None:
        """Prune the expired routes toward ``dest`` from both tables: those
        that ``Route.live`` calls expired, by its test written out.

        Nothing is rebuilt while ``now`` is below the record's
        ``expiry_floor``, a lower bound on every expiry in both tables, for
        then no route has expired. The bound starts at -inf, so a record
        whose tables were filled directly is pruned at its first tick; each
        rebuild sets it to the earliest expiry left (+inf for none);
        ``_insert``, which adds every route, lowers it to the new route's
        expiry if that is earlier; and every other writer only removes
        routes or, as a refresh on use does, pushes an expiry later, so it
        stays a bound."""
        toward = self.toward[dest]
        if now < toward.expiry_floor:
            return
        cache = toward.cache = {path: r for path, r in toward.cache.items() if r.expires_at > now}
        candidates = toward.candidates = {
            hop: r for hop, r in toward.candidates.items() if r.expires_at > now
        }
        expiries = [r.expires_at for r in cache.values()] + [r.expires_at for r in candidates.values()]
        toward.expiry_floor = min(expiries, default=math.inf)

    # -- internals ------------------------------------------------------------

    def _best(self, routes: dict, now: float) -> Route | None:
        """The best live route in ``routes``, if any."""
        return next(iter(self._best_first(self._live(routes, now))), None)

    def _best_first(self, routes: list[Route]) -> list[Route]:
        """``routes``, toward one destination, best first: highest
        ``path_preference`` over each route's first-hop tau now and its own
        metrics, then oldest, then path. Baseline mode, a lone route and a
        set with no preferable path rank every route alike."""
        ranks = [1.0] * len(routes)
        if len(routes) > 1 and not self.params.baseline:
            try:
                ranks = path_preference(
                    [(self.adjacent[r.next_hop].tau, r.metrics) for r in routes],
                    self.params.preference_weights,
                )
            except ValueError:
                pass
        ranked = sorted(zip(ranks, routes), key=lambda pr: (-pr[0], pr[1].created_at, pr[1].path))
        return [r for _, r in ranked]

    def _rediscover(self, toward: Toward, now: float) -> list[Emission]:
        """Start a discovery toward the record's destination unless a live
        route exists or one is already running."""
        if toward.request is not None or self._live(toward.cache, now):
            return []
        return self.start_discovery(toward.tora.destination, now)

    def _insert(
        self, toward: Toward, routes: dict, key, path: tuple[int, ...], m: PathMetrics, now: float
    ) -> None:
        """File a route under ``key`` in ``routes``, one of ``toward``'s
        tables, live for one route TTL. The one writer of both tables: the
        route keeps the ``created_at`` of a live route it replaces, so a
        route that replaces an expired one starts a fresh age."""
        old = routes.get(key)
        created = old.created_at if old and old.live(now) else now
        expires = now + self.params.route_ttl
        routes[key] = Route(path, m, created, expires)
        if expires < toward.expiry_floor:
            toward.expiry_floor = expires

    @staticmethod
    def _prune(routes: dict, doomed: Callable[[Route], bool]) -> list[Route]:
        """Remove the routes in ``routes`` that ``doomed`` picks; returns
        the routes that went."""
        return [routes.pop(k) for k in [k for k, r in routes.items() if doomed(r)]]

    @staticmethod
    def _live(routes: dict, now: float) -> list[Route]:
        """The unexpired routes in ``routes``, by key."""
        return [routes[k] for k in sorted(routes) if routes[k].live(now)]

    def _extend_metrics(
        self, rep: QryReplyAnt, sender: int
    ) -> tuple[PathMetrics, tuple[int, ...]]:
        link = self.adjacent[sender]
        info = link.hello
        metrics = PathMetrics(
            delay=rep.delay + link.delay + self.links.processing,
            bandwidth=min(rep.bandwidth, info.est_bandwidth),
            energy=min(rep.energy, self.energy.residual),
            drain_rate=max(rep.drain_rate, self.energy.drain_rate),
            hop_count=rep.hop_count + 1,
        )
        return metrics, (self.node,) + rep.path_nodes

    def _admit_route(
        self, toward: Toward, path: tuple[int, ...], metrics: PathMetrics, now: float
    ) -> list[Emission]:
        dest = toward.tora.destination
        if not self.params.baseline and not self.params.qos.admits(metrics):
            return []
        self._insert(toward, toward.cache, path, path, metrics, now)
        queued, toward.queue = toward.queue, []
        return [em for seq, bits in queued for em in self.send_data(dest, bits, seq, now)]

    def _relay_reply(self, req: QryRequestAnt, toward: Toward, now: float) -> QryReplyAnt | None:
        """A relay's answer to ``req``: its best candidate, else the reply
        of an adjacent destination as this node's hellos describe it."""
        dest = req.destination
        best = self._best(toward.candidates, now)
        if best is not None:
            m, path = best.metrics, best.path
        else:
            info = self.adjacent[dest].hello if dest in self.adjacent else None
            if info is None:
                return None
            heard = self._destination_reply(
                req.source, dest, info.residual_energy, info.drain_rate, info.est_bandwidth
            )
            m, path = self._extend_metrics(heard, dest)
        return self._reply(req.source, dest, m, path, toward.tora.own_height)

    def _destination_reply(
        self, source: int, dest: int, energy: float, drain_rate: float, bandwidth: float
    ) -> QryReplyAnt:
        """The reply ``dest`` seeds toward ``source``: one processing delay,
        the destination's ``energy`` and ``drain_rate``, and ``bandwidth``
        of the link the reply leaves on."""
        return QryReplyAnt(
            hop_count=1,
            delay=self.links.processing,
            energy=energy,
            drain_rate=drain_rate,
            bandwidth=bandwidth,
            source=source,
            destination=dest,
            path_nodes=(dest,),
            reporter_height=Height.zero(dest),
        )

    @staticmethod
    def _reply(
        source: int, dest: int, m: PathMetrics, path: tuple[int, ...], height: Height
    ) -> QryReplyAnt:
        return QryReplyAnt(
            hop_count=m.hop_count,
            delay=m.delay,
            energy=m.energy,
            drain_rate=m.drain_rate,
            bandwidth=m.bandwidth,
            source=source,
            destination=dest,
            path_nodes=path,
            reporter_height=height,
        )

    def _send_reply(self, toward: Toward, reply: QryReplyAnt, now: float) -> list[Emission]:
        """Broadcast a relay's ``reply``; the only writer of ``replied_at``."""
        toward.replied_at = now
        return [Emission(reply)]
