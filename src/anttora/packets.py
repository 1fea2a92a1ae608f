"""Protocol packet model and the canonical trace-line encoding.

Seven packet families: the periodic hello beacon, the discovery
request/reply pair, height updates, link-named route errors, route-clear
floods, and the data packets whose delivery the harness measures. Every
packet event in a run serializes to exactly one line of fixed-order
``key=value`` text with six fractional digits on every decimal, so
identical runs produce byte-identical traces and the golden-file
regression is exact.

Trace line layout::

    <timestamp> <seq> <event> <nodes> <type> <field>=<value> ...

with the timestamp zero-padded to sort lexically, ``seq`` the engine event
counter, ``event`` one of ``snd``/``rcv``/``drp``, and ``nodes`` the node the
event happened at. A ``rcv`` line may name several nodes, the receivers that
got one frame at one instant: their ascending ids joined by ``,``, as in
``... rcv 1,4,7 hello ...``, with no id repeated. A ``snd`` or ``drp`` line,
and a ``rcv`` line with one receiver, names one plain id, so a trace that
gives each receiver its own ``rcv`` line reads the same.

A line is a head, ``<timestamp> <seq> <event> <nodes>``, and a body, the type
token and its fields. The head is formatted, parsed and checked on every
line. The body is a pure function of the packet, and a run repeats a few
bodies many times: a broadcast's ``snd`` line and its receivers' ``rcv``
line, often with other events between them, and a data packet's hops. So
each side keeps a bounded memo of the bodies it has seen, at most
``MEMO_SIZE`` entries and emptied when full: the encoder maps a packet object
(by identity, never by equality, since ``0.0 == -0.0`` spell differently) to
its text, and the decoder maps a body's text to its packet. A call that
raises leaves its memo as it was, so a hit returns exactly what a strict
decode of the same text returned.

``decode_trace_record`` is the one parser of event lines: the metrics fold
reads the records it returns. It refuses a head the encoder would refuse to
write, so a timestamp must be a finite, nonnegative decimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Union

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
    """Route error sent back hop by hop along a data packet's ``path``, cut
    after the dead link it names: the last two nodes."""

    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.path) < 2 or len(set(self.path)) != len(self.path):
            raise ValueError("error path must name a link and be loop-free")


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
    ``size_bits``. ``handler`` names the ``NodeAgent`` method that receives
    every packet of the type, called as ``handler(packet, sender, now)`` and
    returning the emissions to transmit.
    """

    token: str
    bits_key: str | None
    handler: str


PACKET_KINDS: dict[type, PacketKind] = {
    HelloAnt: PacketKind("hello", None, "on_hello"),
    QryRequestAnt: PacketKind("qreq", "qry_request", "on_qry_request"),
    QryReplyAnt: PacketKind("qrep", "qry_reply", "on_qry_reply"),
    UpdPacket: PacketKind("upd", "upd", "on_upd"),
    ErrorPacket: PacketKind("err", "error", "on_error"),
    ClrPacket: PacketKind("clr", "clr", "on_clr"),
    DataPacket: PacketKind("data", None, "on_data"),
}
PACKET_OF_TOKEN = {kind.token: cls for cls, kind in PACKET_KINDS.items()}
CONTROL_BITS_KEYS = tuple(kind.bits_key for kind in PACKET_KINDS.values() if kind.bits_key)


def _fmt_int(name: str, value: int) -> str:
    if type(value) is not int:  # a bool is an int subclass and is refused too
        raise ValueError(f"cannot encode field {name}={value!r}: expected an int")
    return str(value)


def _fmt_float(name: str, value: float) -> str:
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"cannot encode field {name}={value!r}: expected a finite number")
    return f"{value:.6f}"


def _fmt_ids(name: str, ids: tuple[int, ...]) -> str:
    return ",".join(_fmt_int(name, i) for i in ids) if ids else "-"


def _fmt_height(name: str, h: Height) -> str:
    if h.is_null:
        return f"null:{_fmt_int('node', h.node)}"
    return (
        f"{_fmt_float('tau', h.tau)}:{_fmt_int('oid', h.oid)}:{_fmt_int('r', h.r)}"
        f":{_fmt_int('delta', h.delta)}:{_fmt_int('node', h.node)}"
    )


def _fmt_level(name: str, level: tuple[float, int, int]) -> str:
    return f"{_fmt_float('tau', level[0])}:{_fmt_int('oid', level[1])}:{_fmt_int('r', level[2])}"


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
    values = (
        _parse_float(name, parts[0]),
        _parse_int(name, parts[1]),
        _parse_int(name, parts[2]),
        _parse_int(name, parts[3]),
        _parse_int(name, parts[4]),
    )
    try:
        return Height(*values)
    except ValueError as exc:  # e.g. a reflection bit other than 0 or 1
        raise TraceFieldError(name, f"{exc} in {raw!r}") from None


def _parse_level(name: str, raw: str) -> tuple[float, int, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise TraceFieldError(name, f"expected 3-part level, got {raw!r}")
    return (_parse_float(name, parts[0]), _parse_int(name, parts[1]), _parse_int(name, parts[2]))


# (format, parse) by field annotation; a packet field of any other type
# fails the import that builds FIELD_CODECS
_CODEC_OF_TYPE = {
    "int": (_fmt_int, _parse_int),
    "float": (_fmt_float, _parse_float),
    "tuple[int, ...]": (_fmt_ids, _parse_ids),
    "tuple[float, int, int]": (_fmt_level, _parse_level),
    "Height": (_fmt_height, _parse_height),
}

# per packet class, its fields in line order as (name, format, parse);
# encode and decode both read this table
FIELD_CODECS: dict[type, tuple[tuple[str, Callable, Callable], ...]] = {
    cls: tuple((f.name, *_CODEC_OF_TYPE[f.type]) for f in fields(cls)) for cls in PACKET_KINDS
}


class TraceRecord(NamedTuple):
    """One packet event: when, where, and which way it moved. ``nodes`` holds
    one id, or for a ``rcv`` the ascending ids of every receiver."""

    timestamp: float
    seq: int
    event: str
    nodes: tuple[int, ...]
    packet: Packet


def _nodes_fault(event: str, nodes: tuple[int, ...]) -> str | None:
    """Why ``nodes`` cannot head an ``event`` line, or None if it can."""
    if not nodes:
        return "a line names at least one node"
    if len(nodes) == 1:
        return None
    if event != "rcv":
        return f"only a rcv line names several nodes, not {event}"
    if len(set(nodes)) != len(nodes):
        return f"receivers {nodes} repeat a node"
    if list(nodes) != sorted(nodes):
        return f"receivers {nodes} are not in ascending order"
    return None


# builds a TraceRecord from a tuple of its fields without the NamedTuple's
# Python-level __new__, which the decoder would otherwise call on every line
_new_record = tuple.__new__


# the most entries a body memo holds; a full memo is emptied before its next
# entry goes in, and the size is read at each call
MEMO_SIZE = 256

# id(packet) -> (packet, body text), the packet held so that its id cannot be
# reused while the entry lives; and body text -> packet. An entry goes in only
# after the call that makes it has succeeded.
_encoded: dict[int, tuple[Packet, str]] = {}
_decoded: dict[str, Packet] = {}


def remember(memo: dict, key, value) -> None:
    """Put ``key: value`` in ``memo``, emptying it first if it is full."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value


def _encode_body(packet: Packet) -> str:
    """Format a packet as a line's body, ``<type> <field>=<value> ...``."""
    kind = PACKET_KINDS.get(type(packet))
    if kind is None:
        raise ValueError(f"not a protocol packet: {type(packet).__name__}")
    fields_text = (f"{name}={fmt(name, getattr(packet, name))}" for name, fmt, _ in FIELD_CODECS[type(packet)])
    return " ".join((kind.token, *fields_text))


def encode_trace(
    packet: Packet, timestamp: float, *, seq: int = 0, event: str = "snd", nodes: tuple[int, ...] = (0,)
) -> str:
    """Serialize one packet event to its canonical single-line form."""
    if not math.isfinite(timestamp) or timestamp < 0:
        raise ValueError(f"timestamp must be finite and nonnegative, got {timestamp!r}")
    if event not in TRACE_EVENTS:
        raise ValueError(f"event must be one of {TRACE_EVENTS}, got {event!r}")
    _fmt_int("seq", seq)  # refuses a bool or a float, as for each node id
    if type(nodes) is not tuple:
        raise ValueError(f"nodes must be a tuple of node ids, got {nodes!r}")
    nodes_text = ",".join([_fmt_int("node", node) for node in nodes])
    fault = _nodes_fault(event, nodes)
    if fault is not None:
        raise ValueError(f"cannot encode nodes {nodes!r}: {fault}")
    hit = _encoded.get(id(packet))  # a live entry holds its packet, so a hit is this object
    if hit is None:
        body = _encode_body(packet)
        remember(_encoded, id(packet), (packet, body))
    else:
        body = hit[1]
    return f"{timestamp:017.6f} {seq:08d} {event} {nodes_text} {body}"


def _decode_body(rest: str) -> Packet:
    """Strictly parse a line's body, ``<type> <field>=<value> ...``."""
    tokens = rest.split(" ")
    type_token = tokens[0]
    cls = PACKET_OF_TOKEN.get(type_token)
    if cls is None:
        raise UnknownPacketTypeError(f"unknown packet type token {type_token!r}")
    codecs = FIELD_CODECS[cls]
    body = tokens[1:]
    if len(body) != len(codecs):
        raise TraceDecodeError(f"{type_token} line has {len(body)} fields, expected {len(codecs)}")
    values = []
    for (name, _, parse), token in zip(codecs, body):
        key, sep, raw = token.partition("=")
        if key != name or not sep:
            raise TraceFieldError(name, f"expected {name}=<value>, got {token!r}")
        values.append(parse(name, raw))
    try:
        return cls(*values)
    except ValueError as exc:
        raise TraceDecodeError(f"decoded {type_token} violates its invariants: {exc}") from exc


def decode_trace_record(line: str) -> TraceRecord:
    """Parse one canonical trace line, with or without its newline, back
    into a TraceRecord."""
    parts = line.split(" ", 4)  # the four head tokens, then the body
    if len(parts) < 5:
        raise TraceDecodeError(f"trace line too short: {line!r}")
    ts_raw, seq_raw, event, nodes_raw, rest = parts
    # a good head reads in one try; any other goes through the strict parse,
    # which raises the error naming its first bad field
    try:
        timestamp, seq = float(ts_raw), int(seq_raw)
        nodes = tuple(map(int, nodes_raw.split(","))) if "," in nodes_raw else (int(nodes_raw),)
    except ValueError:
        timestamp = math.nan
    if (
        not 0.0 <= timestamp < math.inf
        or event not in TRACE_EVENTS
        or (len(nodes) > 1 and _nodes_fault(event, nodes) is not None)
    ):
        timestamp, seq, nodes = _decode_head(ts_raw, seq_raw, event, nodes_raw)
    packet = _decoded.get(rest)
    if packet is None:  # the key keeps a line's newline; the parse never sees it
        packet = _decode_body(rest.rstrip("\n"))
        remember(_decoded, rest, packet)
    return _new_record(TraceRecord, (timestamp, seq, event, nodes, packet))


def _decode_head(ts_raw: str, seq_raw: str, event: str, nodes_raw: str) -> tuple[float, int, tuple[int, ...]]:
    """Strictly parse a head field by field, raising on its first bad field."""
    timestamp = _parse_float("timestamp", ts_raw)
    if timestamp < 0:
        raise TraceFieldError("timestamp", f"expected nonnegative decimal, got {ts_raw!r}")
    seq = _parse_int("seq", seq_raw)
    if event not in TRACE_EVENTS:
        raise TraceDecodeError(f"unknown trace event {event!r}")
    nodes = tuple(_parse_int("node", raw) for raw in nodes_raw.split(","))
    fault = _nodes_fault(event, nodes)
    if fault is not None:
        raise TraceFieldError("node", f"{fault} in {nodes_raw!r}")
    return timestamp, seq, nodes
