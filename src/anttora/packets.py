"""Protocol packet model and the canonical trace-line encoding.

Seven packet families: the periodic hello beacon, the discovery
request/reply pair, height updates, route errors, route-clear floods, and
the data packets whose delivery the harness measures. Every packet event in
a run serializes to exactly one line of fixed-order ``key=value`` text with
six fractional digits on every decimal, so identical runs produce
byte-identical traces and the golden-file regression is exact.

Trace line layout::

    <timestamp> <seq> <event> <node> <type> <field>=<value> ...

with the timestamp zero-padded to sort lexically, ``seq`` the engine event
counter, ``event`` one of ``snd``/``rcv``/``drp``, and ``node`` the node the
event happened at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

from .heights import Height

TRACE_EVENTS = ("snd", "rcv", "drp")


class TraceDecodeError(ValueError):
    """A trace line that does not conform to the canonical grammar."""


class UnknownPacketTypeError(TraceDecodeError):
    """A trace line naming a packet type this codec does not know."""


class TraceFieldError(TraceDecodeError):
    """A malformed field inside an otherwise recognizable trace line."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"field {field_name!r}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class HelloAnt:
    """Per-second beacon carrying the sender's energy budget."""

    sender: int
    send_time: float
    residual_energy: float
    drain_rate: float
    size_bits: int

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("hello size_bits must be positive")
        if self.send_time < 0:
            raise ValueError("hello send_time must be nonnegative")


@dataclass(frozen=True)
class QryRequestAnt:
    """Flooded discovery request, accumulating the nodes it visited."""

    request_start_time: float
    source: int
    destination: int
    visited: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.visited or self.visited[0] != self.source:
            raise ValueError("visited stack must begin with the source")
        if len(set(self.visited)) != len(self.visited):
            raise ValueError("visited stack must not repeat a node")


@dataclass(frozen=True)
class QryReplyAnt:
    """Reply broadcast back toward the source, growing path metrics.

    ``path_nodes`` is the route from the reporting node to the destination,
    inclusive; each relay prepends itself, so the source can reconstruct
    the full path it is admitting. ``reporter_height`` lets receivers mirror
    the reporter's position in the DAG.
    """

    hop_count: int
    delay: float
    energy: float
    drain_rate: float
    bandwidth: float
    source: int
    destination: int
    path_nodes: tuple[int, ...]
    reporter_height: Height

    def __post_init__(self) -> None:
        if self.hop_count < 1:
            raise ValueError("reply hop_count counts at least the reporter")
        if self.delay < 0 or self.energy < 0 or self.drain_rate < 0:
            raise ValueError("reply metric fields must be nonnegative")
        if self.bandwidth <= 0:
            raise ValueError("reply bandwidth must be positive")
        if not self.path_nodes:
            raise ValueError("reply must name the route it reports")
        if len(set(self.path_nodes)) != len(self.path_nodes):
            raise ValueError("reported route must be loop-free")


@dataclass(frozen=True)
class UpdPacket:
    """Height announcement broadcast during route maintenance."""

    destination: int
    height: Height


@dataclass(frozen=True)
class ErrorPacket:
    """Route-failure notice from the node that lost its last outbound link."""

    source: int
    originator: int


@dataclass(frozen=True)
class ClrPacket:
    """Route-erasure flood carrying the reflected reference level."""

    destination: int
    reference_level: tuple[float, int, int]

    def __post_init__(self) -> None:
        if self.reference_level[2] != 1:
            raise ValueError("clear packets carry a reflected (r=1) level")


@dataclass(frozen=True)
class DataPacket:
    """Payload following a cached source route hop by hop."""

    source: int
    destination: int
    seq: int
    size_bits: int
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("data size_bits must be positive")
        if len(self.path) < 2 or self.path[0] != self.source or self.path[-1] != self.destination:
            raise ValueError("data path must run source to destination")
        if len(set(self.path)) != len(self.path):
            raise ValueError("data path must be loop-free")


Packet = Union[HelloAnt, QryRequestAnt, QryReplyAnt, UpdPacket, ErrorPacket, ClrPacket, DataPacket]


@dataclass(frozen=True)
class PacketKind:
    """What the trace, the frame-cost model and the dispatcher know of one
    packet type.

    ``token`` names the type on trace lines. ``bits_key`` indexes the
    scenario's ``control_bits``; it is None for packets that carry their own
    ``size_bits``. ``handler`` is the ``NodeAgent`` method that receives the
    packet; it is None for data, which the engine forwards itself.
    """

    token: str
    bits_key: str | None
    handler: str | None


PACKET_KINDS: dict[type, PacketKind] = {
    HelloAnt: PacketKind("hello", None, "on_hello"),
    QryRequestAnt: PacketKind("qreq", "qry_request", "on_qry_request"),
    QryReplyAnt: PacketKind("qrep", "qry_reply", "on_qry_reply"),
    UpdPacket: PacketKind("upd", "upd", "on_upd"),
    ErrorPacket: PacketKind("err", "error", "on_error"),
    ClrPacket: PacketKind("clr", "clr", "on_clr"),
    DataPacket: PacketKind("data", None, None),
}
PACKET_OF_TOKEN = {kind.token: cls for cls, kind in PACKET_KINDS.items()}
CONTROL_BITS_KEYS = tuple(kind.bits_key for kind in PACKET_KINDS.values() if kind.bits_key)


def _fmt_float(name: str, value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot encode non-finite field {name}={value!r}")
    return f"{value:.6f}"


def _fmt_ids(ids: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in ids) if ids else "-"


def _fmt_height(h: Height) -> str:
    if h.is_null:
        return f"null:{h.node}"
    return f"{_fmt_float('tau', h.tau)}:{h.oid}:{h.r}:{h.delta}:{h.node}"


def _fmt_level(level: tuple[float, int, int]) -> str:
    return f"{_fmt_float('tau', level[0])}:{level[1]}:{level[2]}"


def _parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TraceFieldError(name, f"expected integer, got {raw!r}") from None


def _parse_float(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise TraceFieldError(name, f"expected decimal, got {raw!r}") from None
    if not math.isfinite(value):
        raise TraceFieldError(name, f"expected finite decimal, got {raw!r}")
    return value


def _parse_ids(name: str, raw: str) -> tuple[int, ...]:
    if raw == "-":
        return ()
    return tuple(_parse_int(name, part) for part in raw.split(","))


def _parse_height(name: str, raw: str) -> Height:
    parts = raw.split(":")
    if len(parts) == 2 and parts[0] == "null":
        return Height.null(_parse_int(name, parts[1]))
    if len(parts) != 5:
        raise TraceFieldError(name, f"expected 5-part height, got {raw!r}")
    return Height(
        _parse_float(name, parts[0]),
        _parse_int(name, parts[1]),
        _parse_int(name, parts[2]),
        _parse_int(name, parts[3]),
        _parse_int(name, parts[4]),
    )


def _parse_level(name: str, raw: str) -> tuple[float, int, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise TraceFieldError(name, f"expected 3-part level, got {raw!r}")
    return (_parse_float(name, parts[0]), _parse_int(name, parts[1]), _parse_int(name, parts[2]))


def _encode_fields(packet: Packet) -> list[str]:
    out = []
    for f in fields(packet):
        v = getattr(packet, f.name)
        if isinstance(v, bool):
            raise ValueError(f"unexpected bool field {f.name}")
        if isinstance(v, int):
            out.append(f"{f.name}={v}")
        elif isinstance(v, float):
            out.append(f"{f.name}={_fmt_float(f.name, v)}")
        elif isinstance(v, tuple) and f.name == "reference_level":
            out.append(f"{f.name}={_fmt_level(v)}")
        elif isinstance(v, tuple):
            out.append(f"{f.name}={_fmt_ids(v)}")
        elif isinstance(v, Height):
            out.append(f"{f.name}={_fmt_height(v)}")
        else:
            raise ValueError(f"cannot encode field {f.name} of type {type(v).__name__}")
    return out


def _decode_fields(cls: type, tokens: list[str]) -> Packet:
    spec = fields(cls)
    if len(tokens) != len(spec):
        raise TraceDecodeError(
            f"{PACKET_KINDS[cls].token} line has {len(tokens)} fields, expected {len(spec)}"
        )
    values = {}
    for f, token in zip(spec, tokens):
        if "=" not in token:
            raise TraceFieldError(f.name, f"expected key=value, got {token!r}")
        key, raw = token.split("=", 1)
        if key != f.name:
            raise TraceFieldError(f.name, f"expected key {f.name!r}, got {key!r}")
        if f.type in ("int",):
            values[key] = _parse_int(key, raw)
        elif f.type in ("float",):
            values[key] = _parse_float(key, raw)
        elif f.name == "reference_level":
            values[key] = _parse_level(key, raw)
        elif f.type in ("tuple[int, ...]",):
            values[key] = _parse_ids(key, raw)
        elif f.type in ("Height",):
            values[key] = _parse_height(key, raw)
        else:
            raise TraceDecodeError(f"unhandled field type {f.type!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise TraceDecodeError(f"decoded {PACKET_KINDS[cls].token} violates its invariants: {exc}") from exc


@dataclass(frozen=True)
class TraceRecord:
    """One packet event: when, where, and which way it moved."""

    timestamp: float
    seq: int
    event: str
    node: int
    packet: Packet

    def encode(self) -> str:
        return encode_trace(
            self.packet, self.timestamp, seq=self.seq, event=self.event, node=self.node
        )


def encode_trace(
    packet: Packet, timestamp: float, *, seq: int = 0, event: str = "snd", node: int = 0
) -> str:
    """Serialize one packet event to its canonical single-line form."""
    if not math.isfinite(timestamp) or timestamp < 0:
        raise ValueError(f"timestamp must be finite and nonnegative, got {timestamp!r}")
    if event not in TRACE_EVENTS:
        raise ValueError(f"event must be one of {TRACE_EVENTS}, got {event!r}")
    kind = PACKET_KINDS.get(type(packet))
    if kind is None:
        raise ValueError(f"not a protocol packet: {type(packet).__name__}")
    head = f"{timestamp:017.6f} {seq:08d} {event} {node} {kind.token}"
    body = _encode_fields(packet)
    return " ".join([head] + body)


def decode_trace_record(line: str) -> TraceRecord:
    """Parse one canonical trace line back into a TraceRecord."""
    tokens = line.rstrip("\n").split(" ")
    if len(tokens) < 5:
        raise TraceDecodeError(f"trace line too short: {line!r}")
    ts_raw, seq_raw, event, node_raw, type_token = tokens[:5]
    timestamp = _parse_float("timestamp", ts_raw)
    seq = _parse_int("seq", seq_raw)
    if event not in TRACE_EVENTS:
        raise TraceDecodeError(f"unknown trace event {event!r}")
    node = _parse_int("node", node_raw)
    cls = PACKET_OF_TOKEN.get(type_token)
    if cls is None:
        raise UnknownPacketTypeError(f"unknown packet type token {type_token!r}")
    packet = _decode_fields(cls, tokens[5:])
    return TraceRecord(timestamp, seq, event, node, packet)


def decode_trace(line: str) -> tuple[Packet, float]:
    """Inverse of :func:`encode_trace` for the (packet, timestamp) pair."""
    record = decode_trace_record(line)
    return record.packet, record.timestamp
