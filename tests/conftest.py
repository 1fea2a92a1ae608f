"""Shared scenario builders for engine, harness, and acceptance tests, the
batch metric oracle for the aco and agent tests, the link-direction and
maintenance oracles for the height, agent and acceptance tests, the
field-by-field trace body codec, the oracle for the packet codec tests, and
the all-pairs range-crossing scan, the oracle for the engine's pruned one."""

from __future__ import annotations

import math
import random
from typing import Sequence

from anttora.aco import PathMetrics
from anttora.heights import Height, Trigger
from anttora.packets import (
    ClrPacket,
    DataPacket,
    ErrorPacket,
    HelloAnt,
    QryReplyAnt,
    QryRequestAnt,
    TraceDecodeError,
    TraceFieldError,
    TraceRecord,
    UnknownPacketTypeError,
    UpdPacket,
    decode_trace_record,
)
from anttora.scenario import Scenario, parse_scenario

# event lines with one malformed field: (packet, its field token, the
# malformed replacement, the field the decoder must blame)
MALFORMED_EVENT_FIELDS = {
    "size_bits": (HelloAnt(3, 1.0, 50.0, 0.25, 512), "size_bits=512", "size_bits=twelve", "size_bits"),
    # the height token splits into five numbers, but its reflection bit is 7
    "reflection_bit": (
        UpdPacket(7, Height(1.0, 2, 0, 0, 4)), "height=1.000000:2:0:0:4", "height=1.000000:2:7:0:4", "height"
    ),
    # a negative timestamp, which the encoder refuses
    "negative_timestamp": (
        HelloAnt(3, 1.0, 50.0, 0.25, 512), "0000000001.000000 ", "-000000001.000000 ", "timestamp"
    ),
}


# The trace body codec written out field by field, as each packet type's type
# token and its fields in line order, each as (name, value kind). Bodies that
# the packet codec writes and reads must come out as these functions write and
# read them, and bodies these refuse must be refused with the same error.
REFERENCE_FIELDS = {
    HelloAnt: ("hello", (
        ("sender", "int"), ("send_time", "float"), ("residual_energy", "float"), ("drain_rate", "float"),
        ("size_bits", "int"),
    )),
    QryRequestAnt: ("qreq", (
        ("request_start_time", "float"), ("source", "int"), ("destination", "int"), ("visited", "ids"),
    )),
    QryReplyAnt: ("qrep", (
        ("hop_count", "int"), ("delay", "float"), ("energy", "float"), ("drain_rate", "float"),
        ("bandwidth", "float"), ("source", "int"), ("destination", "int"), ("path_nodes", "ids"),
        ("reporter_height", "height"),
    )),
    UpdPacket: ("upd", (("destination", "int"), ("height", "height"))),
    ErrorPacket: ("err", (("path", "ids"),)),
    ClrPacket: ("clr", (("destination", "int"), ("reference_level", "level"))),
    DataPacket: ("data", (
        ("source", "int"), ("destination", "int"), ("seq", "int"), ("size_bits", "int"), ("path", "ids"),
    )),
}


def _ref_fmt_int(name: str, value) -> str:
    if type(value) is not int:
        raise ValueError(f"cannot encode field {name}={value!r}: expected an int")
    return str(value)


def _ref_fmt_float(name: str, value) -> str:
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"cannot encode field {name}={value!r}: expected a finite number")
    return f"{value:.6f}"


def _ref_fmt_ids(name: str, ids) -> str:
    return ",".join(_ref_fmt_int(name, i) for i in ids) if ids else "-"


def _ref_fmt_height(name: str, h: Height) -> str:
    if h.is_null:
        return f"null:{_ref_fmt_int('node', h.node)}"
    return (
        f"{_ref_fmt_float('tau', h.tau)}:{_ref_fmt_int('oid', h.oid)}:{_ref_fmt_int('r', h.r)}"
        f":{_ref_fmt_int('delta', h.delta)}:{_ref_fmt_int('node', h.node)}"
    )


def _ref_fmt_level(name: str, level) -> str:
    return f"{_ref_fmt_float('tau', level[0])}:{_ref_fmt_int('oid', level[1])}:{_ref_fmt_int('r', level[2])}"


def _ref_parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TraceFieldError(name, f"expected integer, got {raw!r}") from None


def _ref_parse_float(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise TraceFieldError(name, f"expected decimal, got {raw!r}") from None
    if not math.isfinite(value):
        raise TraceFieldError(name, f"expected finite decimal, got {raw!r}")
    return value


def _ref_parse_ids(name: str, raw: str) -> tuple[int, ...]:
    if raw == "-":
        return ()
    return tuple(_ref_parse_int(name, part) for part in raw.split(","))


def _ref_parse_height(name: str, raw: str) -> Height:
    parts = raw.split(":")
    if len(parts) == 2 and parts[0] == "null":
        return Height.null(_ref_parse_int(name, parts[1]))
    if len(parts) != 5:
        raise TraceFieldError(name, f"expected 5-part height, got {raw!r}")
    values = (
        _ref_parse_float(name, parts[0]),
        _ref_parse_int(name, parts[1]),
        _ref_parse_int(name, parts[2]),
        _ref_parse_int(name, parts[3]),
        _ref_parse_int(name, parts[4]),
    )
    try:
        return Height(*values)
    except ValueError as exc:
        raise TraceFieldError(name, f"{exc} in {raw!r}") from None


def _ref_parse_level(name: str, raw: str) -> tuple[float, int, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise TraceFieldError(name, f"expected 3-part level, got {raw!r}")
    return (_ref_parse_float(name, parts[0]), _ref_parse_int(name, parts[1]), _ref_parse_int(name, parts[2]))


# (format, parse) by value kind
REFERENCE_CODECS = {
    "int": (_ref_fmt_int, _ref_parse_int),
    "float": (_ref_fmt_float, _ref_parse_float),
    "ids": (_ref_fmt_ids, _ref_parse_ids),
    "height": (_ref_fmt_height, _ref_parse_height),
    "level": (_ref_fmt_level, _ref_parse_level),
}


def reference_encode_body(packet) -> str:
    """A packet as a line's body, ``<type> <field>=<value> ...``, formatted
    field by field."""
    if type(packet) not in REFERENCE_FIELDS:
        raise ValueError(f"not a protocol packet: {type(packet).__name__}")
    token, fields = REFERENCE_FIELDS[type(packet)]
    texts = [f"{name}={REFERENCE_CODECS[kind][0](name, getattr(packet, name))}" for name, kind in fields]
    return " ".join([token, *texts])


def reference_decode_body(rest: str):
    """Strictly parse a line's body field by field."""
    tokens = rest.split(" ")
    type_token = tokens[0]
    classes = {token: cls for cls, (token, _) in REFERENCE_FIELDS.items()}
    if type_token not in classes:
        raise UnknownPacketTypeError(f"unknown packet type token {type_token!r}")
    cls = classes[type_token]
    fields = REFERENCE_FIELDS[cls][1]
    body = tokens[1:]
    if len(body) != len(fields):
        raise TraceDecodeError(f"{type_token} line has {len(body)} fields, expected {len(fields)}")
    values = []
    for (name, kind), token in zip(fields, body):
        key, sep, raw = token.partition("=")
        if key != name or not sep:
            raise TraceFieldError(name, f"expected {name}=<value>, got {token!r}")
        values.append(REFERENCE_CODECS[kind][1](name, raw))
    try:
        return cls(*values)
    except ValueError as exc:
        raise TraceDecodeError(f"decoded {type_token} violates its invariants: {exc}") from exc


def aggregate_metrics(
    link_delays: Sequence[float],
    node_delays: Sequence[float],
    link_bandwidths: Sequence[float],
    node_energies: Sequence[float],
    node_drain_rates: Sequence[float],
    node_count: int,
) -> PathMetrics:
    """Fold per-link and per-node values into one PathMetrics in one batch:
    the oracle for the agent's hop-by-hop fold, ``_extend_metrics``.

    Delay adds up, bandwidth and energy take the bottleneck minimum, drain
    rate the worst-node maximum, hop count is the number of nodes.
    """
    if node_count < 2:
        raise ValueError(f"a path needs at least 2 nodes, got {node_count}")
    if not link_delays or not node_delays or not link_bandwidths:
        raise ValueError("link and node lists must be nonempty")
    if not node_energies or not node_drain_rates:
        raise ValueError("link and node lists must be nonempty")
    if len(link_delays) != node_count - 1 or len(link_bandwidths) != node_count - 1:
        raise ValueError("per-link lists must have node_count - 1 entries")
    if len(node_delays) != node_count or len(node_energies) != node_count:
        raise ValueError("per-node lists must have node_count entries")
    if len(node_drain_rates) != node_count:
        raise ValueError("per-node lists must have node_count entries")
    for seq in (link_delays, node_delays, link_bandwidths, node_energies, node_drain_rates):
        for v in seq:
            if not math.isfinite(v):
                raise ValueError(f"path component must be finite, got {v!r}")
    if any(b <= 0 for b in link_bandwidths):
        raise ValueError("link bandwidths must be positive")
    return PathMetrics(
        delay=sum(link_delays) + sum(node_delays),
        bandwidth=min(link_bandwidths),
        energy=min(node_energies),
        drain_rate=max(node_drain_rates),
        hop_count=node_count,
    )


def link_direction(own: Height, mirror: Height) -> str:
    """"dn", "up" or "un": the link to a neighbor mirrored at ``mirror``,
    seen from a node of height ``own``. A NULL neighbor is undirected; a
    node with a NULL height sees every concrete neighbor as downstream."""
    if mirror.is_null:
        return "un"
    if mirror < own:
        return "dn"
    if own < mirror:
        return "up"
    return "un"


def five_tuple(h: Height) -> tuple:
    """A height as the plain lexicographic tuple (tau, oid, r, delta, node):
    the order oracle for concrete heights."""
    return (h.tau, h.oid, h.r, h.delta, h.node)


def maintenance_oracle(state, trigger, now, levels_equal, r, oid_is_self):
    """Independent decision table: the height that a node with a concrete
    height and no downstream link takes, given the selector bits the test
    built ``state`` from, or None on a partition."""
    me, own, mirrors = state.node, state.own_height, state.concrete_mirrors()
    fresh = Height(now, me, 0, 0, me)
    if trigger is Trigger.LINK_FAILURE:
        upstream = any(five_tuple(h) > five_tuple(own) for h in mirrors)
        return fresh if upstream else Height.null(me)
    if not levels_equal:
        top = max((h.tau, h.oid, h.r) for h in mirrors)
        floor = min(h.delta for h in mirrors if (h.tau, h.oid, h.r) == top)
        return Height(top[0], top[1], top[2], floor - 1, me)
    tau, oid = mirrors[0].tau, mirrors[0].oid
    if r == 0:
        return Height(tau, oid, 1, 0, me)
    return None if oid_is_self else fresh


def reference_crossings(mobility, r, t0, t1) -> list[tuple[float, int, int, bool]]:
    """Every range crossing of pairwise-linear motion on [t0, t1), as
    (time, a, b, up) in the order the engine schedules them: the engine's
    all-pairs scan, which solves every pair's quadratic."""
    rr = r * r
    state = [(i, m.pos[0], m.pos[1], *m.velocity(t0)) for i, m in sorted(mobility.items())]
    out = []
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
            for s, up in (((-qb - sq) / (2 * qa), True), ((-qb + sq) / (2 * qa), False)):
                if s > -1e-12 and t0 + s < t1 - 1e-12:
                    out.append((t0 + max(s, 0.0), a, b, up))
    return out


def scenario_dict(n, edges, flows=(), **overrides) -> dict:
    data = {
        "nodes": {"count": n, "initial_energy": 100.0},
        "topology": {"mode": "static", "adjacency": [list(e) for e in edges]},
        "traffic": [dict(f) for f in flows],
        "end_time_s": 8.0,
        "seed": 1,
    }
    data.update(overrides)
    return data


def static_scenario(n, edges, flows=(), **overrides) -> Scenario:
    return parse_scenario(scenario_dict(n, edges, flows, **overrides))


def flow(source, destination, rate=2.0, bits=1000, start=2.0, stop=4.0) -> dict:
    return {
        "source": source,
        "destination": destination,
        "rate_pps": rate,
        "packet_bits": bits,
        "start_s": start,
        "stop_s": stop,
    }


def trace_of(sim) -> list[str]:
    """The full trace of a finished run whose event lines went to the
    default in-memory ``trace_file``: header lines, then event lines."""
    return sim.trace_lines() + sim.trace_file.getvalue().splitlines()


def records_of(sim) -> list[TraceRecord]:
    """The event lines of such a run, decoded, in trace order."""
    return [decode_trace_record(line) for line in sim.trace_file.getvalue().splitlines()]


def connected_random_graph(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Deterministic Erdos-Renyi graph, resampled until connected."""
    rng = random.Random(seed)
    while True:
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
        ]
        if _connected(n, edges):
            return edges


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    if n == 0:
        return True
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n
