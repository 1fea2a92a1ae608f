"""Scenario files: the single source of truth for a simulation run.

Scenarios are JSON with a fixed vocabulary. Parsing is strict: unknown keys
are rejected, every complaint carries the offending field path, and all
omitted optional sections fall back to the documented defaults so a minimal
file stays reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .aco import DepositWeights, NormalizationBounds, PreferenceWeights
from .agent import ProtocolParams, QosConstraints
from .packets import CONTROL_BITS_KEYS

MODES = ("ant_tora", "baseline_tora")

DEFAULT_CONTROL_BITS = {
    "qry_request": 512,
    "qry_reply": 512,
    "upd": 256,
    "error": 256,
    "clr": 256,
}


class ScenarioError(ValueError):
    """Validation failure; ``problems`` lists '<field path>: <reason>' lines."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid scenario:\n  " + "\n  ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class Flow:
    source: int
    destination: int
    rate_pps: float
    packet_bits: int
    start: float
    stop: float


@dataclass(frozen=True)
class LinkFailure:
    time: float
    a: int
    b: int


@dataclass(frozen=True)
class LinkSpec:
    capacity: float = 2e6
    propagation: float = 1e-3
    processing: float = 5e-4
    overrides: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)

    def params(self, a: int, b: int) -> tuple[float, float]:
        key = (min(a, b), max(a, b))
        return self.overrides.get(key, (self.capacity, self.propagation))


@dataclass(frozen=True)
class TopologySpec:
    mode: str = "static"
    adjacency: tuple[tuple[int, int], ...] = ()
    area: tuple[float, float] = (500.0, 500.0)
    speed: tuple[float, float] = (1.0, 5.0)
    comm_range: float = 150.0
    pause_time: float = 0.0
    step: float = 0.1
    placement_seed: int | None = None


@dataclass(frozen=True)
class NodesSpec:
    count: int = 0
    initial_energy: float = 100.0
    positions: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class Scenario:
    nodes: NodesSpec
    topology: TopologySpec
    links: LinkSpec
    protocol: ProtocolParams
    evaporation_period: float
    beta_tx: float
    beta_rx: float
    control_bits: dict[str, int]
    traffic: tuple[Flow, ...]
    link_failures: tuple[LinkFailure, ...]
    end_time: float
    seed: int
    mode: str


def _join(path: str, key: str) -> str:
    """Field path of ``key`` inside section ``path`` ("" at the top level)."""
    return f"{path}.{key}" if path else key


class _Ctx:
    """Collects validation problems with their field paths."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, path: str, reason: str) -> None:
        self.problems.append(f"{path}: {reason}")

    def section(self, data: dict, path: str, allowed: set[str]) -> None:
        for key in sorted(set(data) - allowed):
            self.fail(_join(path, key), "unknown key")

    def subsection(self, data: dict, path: str, key: str) -> dict:
        """The object under ``key``, or {} after a complaint if it is not one."""
        raw = data.get(key, {})
        if not isinstance(raw, dict):
            self.fail(_join(path, key), f"expected an object, got {raw!r}")
            return {}
        return raw

    def number(self, data, path, key, default, minimum=None, positive=False):
        value = data.get(key, default)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.fail(_join(path, key), f"expected a number, got {value!r}")
            return default
        value = float(value)
        if not math.isfinite(value):
            self.fail(_join(path, key), f"expected a finite number, got {value}")
            return default
        if positive and value <= 0:
            self.fail(_join(path, key), f"must be positive, got {value}")
            return default
        if minimum is not None and value < minimum:
            self.fail(_join(path, key), f"must be >= {minimum}, got {value}")
            return default
        return value

    def integer(self, data, path, key, default, minimum=None):
        """The integer under ``key``; a ``default`` of None makes the key
        required, and None comes back after one complaint about it."""
        if default is None and key not in data:
            self.fail(_join(path, key), "missing key")
            return None
        value = data.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(_join(path, key), f"expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.fail(_join(path, key), f"must be >= {minimum}, got {value}")
            return default
        return value

    def pair(self, data, path, key, default):
        value = data.get(key)
        if value is None:
            return default
        pair = _number_pair(value)
        if pair is None:
            self.fail(_join(path, key), f"expected [low, high], got {value!r}")
            return default
        return pair


def _number_pair(value) -> tuple[float, float] | None:
    """``value`` as two floats if it is a list of two finite numbers (not booleans)."""
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return None
    pair = (float(value[0]), float(value[1]))
    return pair if all(map(math.isfinite, pair)) else None


def _parse_nodes(ctx: _Ctx, data: dict) -> NodesSpec:
    ctx.section(data, "nodes", {"count", "initial_energy", "positions"})
    defaults = NodesSpec()
    count = ctx.integer(data, "nodes", "count", defaults.count, minimum=0)
    energy = ctx.number(data, "nodes", "initial_energy", defaults.initial_energy, positive=True)
    positions = defaults.positions
    raw = data.get("positions")
    if raw is not None:
        if not isinstance(raw, list) or len(raw) != count:
            ctx.fail("nodes.positions", f"expected {count} [x, y] pairs")
        else:
            out = []
            for i, p in enumerate(raw):
                xy = _number_pair(p)
                if xy is None:
                    ctx.fail(f"nodes.positions[{i}]", f"expected [x, y], got {p!r}")
                else:
                    out.append(xy)
            positions = tuple(out)
    return NodesSpec(count=count, initial_energy=energy, positions=positions)


def _parse_topology(ctx: _Ctx, data: dict, node_count: int) -> TopologySpec:
    allowed = {"mode", "adjacency", "area", "speed", "comm_range", "pause_time", "step", "placement_seed"}
    ctx.section(data, "topology", allowed)
    defaults = TopologySpec()
    mode = data.get("mode", defaults.mode)
    if mode not in ("static", "mobility"):
        ctx.fail("topology.mode", f"expected 'static' or 'mobility', got {mode!r}")
        mode = defaults.mode
    adjacency: list[tuple[int, int]] = []
    raw = data.get("adjacency", [])
    if mode == "mobility" and "adjacency" in data:
        ctx.fail("topology.adjacency", "not allowed in mobility mode")
        raw = []
    if not isinstance(raw, list):
        ctx.fail("topology.adjacency", f"expected a list of [a, b] pairs, got {raw!r}")
        raw = []
    seen = set()
    for i, edge in enumerate(raw):
        if not isinstance(edge, list) or len(edge) != 2 or not all(isinstance(v, int) for v in edge):
            ctx.fail(f"topology.adjacency[{i}]", f"expected [a, b] node ids, got {edge!r}")
            continue
        a, b = edge
        if a == b:
            ctx.fail(f"topology.adjacency[{i}]", "self loops are not links")
            continue
        if not (0 <= a < node_count and 0 <= b < node_count):
            ctx.fail(f"topology.adjacency[{i}]", f"node id out of range [0, {node_count})")
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            ctx.fail(f"topology.adjacency[{i}]", f"duplicate link {key}")
            continue
        seen.add(key)
        adjacency.append(key)
    placement_seed = defaults.placement_seed
    if "placement_seed" in data:
        placement_seed = ctx.integer(data, "topology", "placement_seed", 0)
    return TopologySpec(
        mode=mode,
        adjacency=tuple(adjacency),
        area=ctx.pair(data, "topology", "area", defaults.area),
        speed=ctx.pair(data, "topology", "speed", defaults.speed),
        comm_range=ctx.number(data, "topology", "comm_range", defaults.comm_range, positive=True),
        pause_time=ctx.number(data, "topology", "pause_time", defaults.pause_time, minimum=0.0),
        step=ctx.number(data, "topology", "step", defaults.step, positive=True),
        placement_seed=placement_seed,
    )


def _parse_links(ctx: _Ctx, data: dict, topology: TopologySpec) -> LinkSpec:
    ctx.section(data, "links", {"capacity_bps", "propagation_delay_s", "processing_delay_s", "overrides"})
    defaults = LinkSpec()
    capacity = ctx.number(data, "links", "capacity_bps", defaults.capacity, positive=True)
    propagation = ctx.number(data, "links", "propagation_delay_s", defaults.propagation, positive=True)
    processing = ctx.number(data, "links", "processing_delay_s", defaults.processing, positive=True)
    overrides: dict[tuple[int, int], tuple[float, float]] = {}
    raw = data.get("overrides", [])
    if raw and topology.mode == "mobility":
        ctx.fail("links.overrides", "per-link overrides require a static topology")
        raw = []
    if not isinstance(raw, list):
        ctx.fail("links.overrides", f"expected a list, got {raw!r}")
        raw = []
    edges = set(topology.adjacency)
    for i, entry in enumerate(raw):
        path = f"links.overrides[{i}]"
        if not isinstance(entry, dict):
            ctx.fail(path, f"expected an object, got {entry!r}")
            continue
        ctx.section(entry, path, {"a", "b", "capacity_bps", "propagation_delay_s"})
        a = ctx.integer(entry, path, "a", None, minimum=0)
        b = ctx.integer(entry, path, "b", None, minimum=0)
        if a is None or b is None:
            continue
        key = (min(a, b), max(a, b))
        if key not in edges:
            ctx.fail(path, f"link {key} is not in topology.adjacency")
            continue
        if key in overrides:
            ctx.fail(path, f"duplicate link {key}")
            continue
        cap = ctx.number(entry, path, "capacity_bps", capacity, positive=True)
        prop = ctx.number(entry, path, "propagation_delay_s", propagation, positive=True)
        overrides[key] = (cap, prop)
    return LinkSpec(capacity=capacity, propagation=propagation, processing=processing, overrides=overrides)


def _parse_weights(ctx: _Ctx, data: dict):
    ctx.section(
        data,
        "aco",
        {"deposit_weights", "preference_weights", "persistence", "decay",
         "initial_pheromone", "evaporation_period_s"},
    )
    dw_defaults, pw_defaults = DepositWeights(), PreferenceWeights()
    dw_raw = ctx.subsection(data, "aco", "deposit_weights")
    dw_fields = {"bandwidth", "energy", "delay", "hop_count", "drain_rate"}
    ctx.section(dw_raw, "aco.deposit_weights", dw_fields)
    dw_kwargs = {
        k: ctx.number(dw_raw, "aco.deposit_weights", k, getattr(dw_defaults, k), minimum=0.0)
        for k in dw_fields
    }
    pw_raw = ctx.subsection(data, "aco", "preference_weights")
    pw_fields = {"pheromone", "delay", "hop_count", "bandwidth", "energy", "drain_rate"}
    ctx.section(pw_raw, "aco.preference_weights", pw_fields)
    pw_kwargs = {
        k: ctx.number(pw_raw, "aco.preference_weights", k, getattr(pw_defaults, k), minimum=0.0)
        for k in pw_fields
    }
    persistence = ctx.number(data, "aco", "persistence", pw_defaults.persistence, positive=True)
    decay = ctx.number(data, "aco", "decay", pw_defaults.decay, positive=True)
    if not persistence < 1.0:
        ctx.fail("aco.persistence", f"must be below 1, got {persistence}")
        persistence = pw_defaults.persistence
    if decay > 1.0:
        ctx.fail("aco.decay", f"must be at most 1, got {decay}")
        decay = pw_defaults.decay
    tau0 = ctx.number(
        data, "aco", "initial_pheromone", ProtocolParams().initial_pheromone, positive=True
    )
    period = ctx.number(data, "aco", "evaporation_period_s", 1.0, positive=True)
    try:
        dw = DepositWeights(**dw_kwargs)
        pw = PreferenceWeights(persistence=persistence, decay=decay, **pw_kwargs)
    except ValueError as exc:
        ctx.fail("aco", str(exc))
        dw, pw = dw_defaults, pw_defaults
    return dw, pw, tau0, period


def _parse_bounds(ctx: _Ctx, data: dict) -> NormalizationBounds:
    fields_ = {"delay_s", "bandwidth_bps", "energy_j", "drain_rate_jps", "hop_count"}
    ctx.section(data, "normalization", fields_)
    defaults = NormalizationBounds()
    values = {
        "delay": ctx.pair(data, "normalization", "delay_s", defaults.delay),
        "bandwidth": ctx.pair(data, "normalization", "bandwidth_bps", defaults.bandwidth),
        "energy": ctx.pair(data, "normalization", "energy_j", defaults.energy),
        "drain_rate": ctx.pair(data, "normalization", "drain_rate_jps", defaults.drain_rate),
        "hop_count": ctx.pair(data, "normalization", "hop_count", defaults.hop_count),
    }
    try:
        return NormalizationBounds(**values)
    except ValueError as exc:
        ctx.fail("normalization", str(exc))
        return defaults


def _parse_qos(ctx: _Ctx, data: dict) -> QosConstraints:
    fields_ = {"max_delay_s", "min_bandwidth_bps", "min_energy_j", "max_drain_rate_jps", "max_hop_count"}
    ctx.section(data, "qos", fields_)
    defaults = QosConstraints()
    try:
        return QosConstraints(
            max_delay=ctx.number(data, "qos", "max_delay_s", defaults.max_delay, positive=True),
            min_bandwidth=ctx.number(data, "qos", "min_bandwidth_bps", defaults.min_bandwidth, positive=True),
            min_energy=ctx.number(data, "qos", "min_energy_j", defaults.min_energy, positive=True),
            max_drain_rate=ctx.number(data, "qos", "max_drain_rate_jps", defaults.max_drain_rate, positive=True),
            max_hop_count=ctx.integer(data, "qos", "max_hop_count", defaults.max_hop_count, minimum=2),
        )
    except ValueError as exc:
        ctx.fail("qos", str(exc))
        return defaults


def _parse_protocol(ctx: _Ctx, data: dict) -> tuple[dict, dict]:
    """The ``protocol`` section, split into ProtocolParams fields and the
    radio energy costs and control sizes that only the engine uses."""
    fields_ = {
        "hello_interval_s", "hello_bits", "route_ttl_s", "neighbor_loss_hellos",
        "beta_tx_j_per_bit", "beta_rx_j_per_bit", "drain_ewma_alpha",
        "metric_packet_bits", "control_bits",
    }
    ctx.section(data, "protocol", fields_)
    defaults = ProtocolParams()
    raw = ctx.subsection(data, "protocol", "control_bits")
    ctx.section(raw, "protocol.control_bits", set(CONTROL_BITS_KEYS))
    control = {
        key: ctx.integer(raw, "protocol.control_bits", key, DEFAULT_CONTROL_BITS[key], minimum=1)
        for key in CONTROL_BITS_KEYS
    }
    alpha = ctx.number(data, "protocol", "drain_ewma_alpha", defaults.drain_alpha, positive=True)
    if alpha > 1.0:
        ctx.fail("protocol.drain_ewma_alpha", f"must be at most 1, got {alpha}")
        alpha = defaults.drain_alpha
    timers = {
        "hello_interval": ctx.number(
            data, "protocol", "hello_interval_s", defaults.hello_interval, positive=True
        ),
        "hello_bits": ctx.integer(data, "protocol", "hello_bits", defaults.hello_bits, minimum=1),
        "route_ttl": ctx.number(data, "protocol", "route_ttl_s", defaults.route_ttl, positive=True),
        "neighbor_loss_hellos": ctx.integer(
            data, "protocol", "neighbor_loss_hellos", defaults.neighbor_loss_hellos, minimum=1
        ),
        "drain_alpha": alpha,
        "metric_packet_bits": ctx.integer(
            data, "protocol", "metric_packet_bits", defaults.metric_packet_bits, minimum=1
        ),
    }
    radio = {
        "beta_tx": ctx.number(data, "protocol", "beta_tx_j_per_bit", 5e-7, positive=True),
        "beta_rx": ctx.number(data, "protocol", "beta_rx_j_per_bit", 2.5e-7, positive=True),
        "control_bits": control,
    }
    return timers, radio


def _parse_traffic(ctx: _Ctx, data, node_count: int, end_time: float) -> tuple[Flow, ...]:
    if not isinstance(data, list):
        ctx.fail("traffic", f"expected a list of flows, got {data!r}")
        return ()
    flows = []
    for i, raw in enumerate(data):
        path = f"traffic[{i}]"
        if not isinstance(raw, dict):
            ctx.fail(path, f"expected an object, got {raw!r}")
            continue
        ctx.section(raw, path, {"source", "destination", "rate_pps", "packet_bits", "start_s", "stop_s"})
        src = ctx.integer(raw, path, "source", None, minimum=0)
        dst = ctx.integer(raw, path, "destination", None, minimum=0)
        if src is None or dst is None:
            continue
        if not (src < node_count and dst < node_count):
            ctx.fail(path, f"flow endpoints out of range [0, {node_count})")
            continue
        if src == dst:
            ctx.fail(path, "source and destination must be distinct")
            continue
        rate = ctx.number(raw, path, "rate_pps", 1.0, positive=True)
        bits = ctx.integer(raw, path, "packet_bits", 1000, minimum=1)
        start = ctx.number(raw, path, "start_s", 1.0, minimum=0.0)
        stop = ctx.number(raw, path, "stop_s", end_time, positive=True)
        if stop <= start:
            ctx.fail(f"{path}.stop_s", f"must exceed start_s={start}")
            continue
        flows.append(Flow(src, dst, rate, bits, start, stop))
    return tuple(flows)


def _parse_failures(ctx: _Ctx, data, node_count: int) -> tuple[LinkFailure, ...]:
    if not isinstance(data, list):
        ctx.fail("link_failures", f"expected a list, got {data!r}")
        return ()
    out = []
    for i, raw in enumerate(data):
        path = f"link_failures[{i}]"
        if not isinstance(raw, dict):
            ctx.fail(path, f"expected an object, got {raw!r}")
            continue
        ctx.section(raw, path, {"time_s", "a", "b"})
        t = ctx.number(raw, path, "time_s", 1.0, positive=True)
        a = ctx.integer(raw, path, "a", None, minimum=0)
        b = ctx.integer(raw, path, "b", None, minimum=0)
        if a is None or b is None:
            continue
        if not (a < node_count and b < node_count) or a == b:
            ctx.fail(path, f"bad link endpoints ({a}, {b})")
            continue
        out.append(LinkFailure(t, a, b))
    return tuple(sorted(out, key=lambda f: (f.time, f.a, f.b)))


TOP_LEVEL_KEYS = {
    "nodes", "topology", "links", "qos", "aco", "normalization", "protocol",
    "traffic", "link_failures", "end_time_s", "seed", "mode",
}


def parse_scenario(data: dict) -> Scenario:
    """Validate a raw scenario dict and apply the documented defaults."""
    if not isinstance(data, dict):
        raise ScenarioError(["<root>: expected a JSON object"])
    ctx = _Ctx()
    ctx.section(data, "", TOP_LEVEL_KEYS)

    def subsection(key):
        return ctx.subsection(data, "", key)

    nodes = _parse_nodes(ctx, subsection("nodes"))
    topology = _parse_topology(ctx, subsection("topology"), nodes.count)
    links = _parse_links(ctx, subsection("links"), topology)
    qos = _parse_qos(ctx, subsection("qos"))
    dw, pw, tau0, evap = _parse_weights(ctx, subsection("aco"))
    bounds = _parse_bounds(ctx, subsection("normalization"))
    timers, radio = _parse_protocol(ctx, subsection("protocol"))
    end_time = ctx.number(data, "", "end_time_s", 10.0, positive=True)
    traffic = _parse_traffic(ctx, data.get("traffic", []), nodes.count, end_time)
    failures = _parse_failures(ctx, data.get("link_failures", []), nodes.count)
    seed = ctx.integer(data, "", "seed", 0)
    mode = data.get("mode", "ant_tora")
    if mode not in MODES:
        ctx.fail("mode", f"expected one of {MODES}, got {mode!r}")
        mode = "ant_tora"
    if topology.mode == "mobility" and nodes.positions is None and topology.placement_seed is None:
        # fall back to the run seed for placement
        topology = replace(topology, placement_seed=seed)

    if ctx.problems:
        raise ScenarioError(ctx.problems)
    protocol = ProtocolParams(
        **timers,
        initial_pheromone=tau0,
        deposit_weights=dw,
        preference_weights=pw,
        bounds=bounds,
        qos=qos,
        baseline=mode == "baseline_tora",
    )
    return Scenario(
        nodes=nodes,
        topology=topology,
        links=links,
        protocol=protocol,
        evaporation_period=evap,
        traffic=traffic,
        link_failures=failures,
        end_time=end_time,
        seed=seed,
        mode=mode,
        **radio,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError([f"<file>: {path} does not exist"]) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"<file>: not valid JSON ({exc})"]) from None
    return parse_scenario(data)
