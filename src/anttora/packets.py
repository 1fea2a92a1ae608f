"""Protocol packet model and the canonical trace-line encoding.

Seven packet families: the periodic hello beacon, the discovery
request/reply pair, height updates, link-named route errors, route-clear
floods, and the data packets whose delivery the harness measures. Every
packet event in a run serializes to exactly one line of fixed-order
``key=value`` text with six fractional digits on every decimal, so
identical runs produce byte-identical traces and the golden-file
regression is exact.

Every packet is a tuple with named fields whose constructor runs the
packet's checks, and nothing changes it once built. Build one only through
that constructor: a NamedTuple's ``_replace`` and ``_make`` skip it.

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

``FIELD_CODECS`` lists each packet type's fields in line order with their
format and parse functions, and both directions read it. From it each type
also gets a ``%`` template and a compiled pattern of its canonical body,
which write and read a body in one step; they take only what the
field-by-field codec would write or read the same way, and leave the rest to
it, which then writes it, reads it, or raises the error naming the field.

``decode_trace_record`` is the one parser of event lines: the metrics fold
reads the records it returns. It refuses a head the encoder would refuse to
write, so a timestamp must be a finite, nonnegative decimal.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, NamedTuple, Union, get_type_hints

from .heights import Height

TRACE_EVENTS = ("snd", "rcv", "drp")

# builds a tuple subclass from a tuple of its fields without the class's own
# __new__: each packet's __new__ calls it once its checks pass, and the
# decoder builds every TraceRecord with it
_tuple_new = tuple.__new__


class TraceDecodeError(ValueError):
    """A trace line that does not conform to the canonical grammar."""


class UnknownPacketTypeError(TraceDecodeError):
    """A trace line naming a packet type this codec does not know."""


class TraceFieldError(TraceDecodeError):
    """A malformed field inside an otherwise recognizable trace line."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"field {field_name!r}: {message}")
        self.field_name = field_name


class _HelloFields(NamedTuple):
    sender: int
    send_time: float
    residual_energy: float
    drain_rate: float
    size_bits: int


class HelloAnt(_HelloFields):
    """Per-second beacon carrying the sender's energy budget."""

    __slots__ = ()

    def __new__(
        cls, sender: int, send_time: float, residual_energy: float, drain_rate: float, size_bits: int
    ) -> "HelloAnt":
        if size_bits <= 0:
            raise ValueError("hello size_bits must be positive")
        if send_time < 0:
            raise ValueError("hello send_time must be nonnegative")
        return _tuple_new(cls, (sender, send_time, residual_energy, drain_rate, size_bits))


class _QryRequestFields(NamedTuple):
    request_start_time: float
    source: int
    destination: int
    visited: tuple[int, ...]


class QryRequestAnt(_QryRequestFields):
    """Flooded discovery request, accumulating the nodes it visited."""

    __slots__ = ()

    def __new__(
        cls, request_start_time: float, source: int, destination: int, visited: tuple[int, ...]
    ) -> "QryRequestAnt":
        if not visited or visited[0] != source:
            raise ValueError("visited stack must begin with the source")
        if len(set(visited)) != len(visited):
            raise ValueError("visited stack must not repeat a node")
        return _tuple_new(cls, (request_start_time, source, destination, visited))


class _QryReplyFields(NamedTuple):
    hop_count: int
    delay: float
    energy: float
    drain_rate: float
    bandwidth: float
    source: int
    destination: int
    path_nodes: tuple[int, ...]
    reporter_height: Height


class QryReplyAnt(_QryReplyFields):
    """Reply broadcast back toward the source, growing path metrics.

    ``path_nodes`` is the route from the reporting node to the destination,
    inclusive; each relay prepends itself, so the source can reconstruct
    the full path it is admitting. ``reporter_height`` lets receivers mirror
    the reporter's position in the DAG.
    """

    __slots__ = ()

    def __new__(
        cls,
        hop_count: int,
        delay: float,
        energy: float,
        drain_rate: float,
        bandwidth: float,
        source: int,
        destination: int,
        path_nodes: tuple[int, ...],
        reporter_height: Height,
    ) -> "QryReplyAnt":
        if hop_count < 1:
            raise ValueError("reply hop_count counts at least the reporter")
        if delay < 0 or energy < 0 or drain_rate < 0:
            raise ValueError("reply metric fields must be nonnegative")
        if bandwidth <= 0:
            raise ValueError("reply bandwidth must be positive")
        if not path_nodes:
            raise ValueError("reply must name the route it reports")
        if len(set(path_nodes)) != len(path_nodes):
            raise ValueError("reported route must be loop-free")
        metrics = (hop_count, delay, energy, drain_rate, bandwidth)
        return _tuple_new(cls, (*metrics, source, destination, path_nodes, reporter_height))


class UpdPacket(NamedTuple):
    """Height announcement broadcast during route maintenance."""

    destination: int
    height: Height


class _ErrorFields(NamedTuple):
    path: tuple[int, ...]


class ErrorPacket(_ErrorFields):
    """Route error sent back hop by hop along a data packet's ``path``, cut
    after the dead link it names: the last two nodes."""

    __slots__ = ()

    def __new__(cls, path: tuple[int, ...]) -> "ErrorPacket":
        if len(path) < 2 or len(set(path)) != len(path):
            raise ValueError("error path must name a link and be loop-free")
        return _tuple_new(cls, (path,))


class _ClrFields(NamedTuple):
    destination: int
    reference_level: tuple[float, int, int]


class ClrPacket(_ClrFields):
    """Route-erasure flood carrying the reflected reference level."""

    __slots__ = ()

    def __new__(cls, destination: int, reference_level: tuple[float, int, int]) -> "ClrPacket":
        if reference_level[2] != 1:
            raise ValueError("clear packets carry a reflected (r=1) level")
        return _tuple_new(cls, (destination, reference_level))


class _DataFields(NamedTuple):
    source: int
    destination: int
    seq: int
    size_bits: int
    path: tuple[int, ...]


class DataPacket(_DataFields):
    """Payload following a cached source route hop by hop."""

    __slots__ = ()

    def __new__(
        cls, source: int, destination: int, seq: int, size_bits: int, path: tuple[int, ...]
    ) -> "DataPacket":
        if size_bits <= 0:
            raise ValueError("data size_bits must be positive")
        if len(path) < 2 or path[0] != source or path[-1] != destination:
            raise ValueError("data path must run source to destination")
        if len(set(path)) != len(path):
            raise ValueError("data path must be loop-free")
        return _tuple_new(cls, (source, destination, seq, size_bits, path))


Packet = Union[HelloAnt, QryRequestAnt, QryReplyAnt, UpdPacket, ErrorPacket, ClrPacket, DataPacket]


class PacketKind(NamedTuple):
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


# (format, parse) by field type; a packet field of any other type fails the
# import that builds FIELD_CODECS
_CODEC_OF_TYPE = {
    int: (_fmt_int, _parse_int),
    float: (_fmt_float, _parse_float),
    tuple[int, ...]: (_fmt_ids, _parse_ids),
    tuple[float, int, int]: (_fmt_level, _parse_level),
    Height: (_fmt_height, _parse_height),
}


def _field_codecs(cls: type) -> tuple[tuple[str, Callable, Callable], ...]:
    # the types are evaluated, not read as the annotation strings a NamedTuple
    # keeps, whose form differs between Python versions
    hints = get_type_hints(cls)
    return tuple((name, *_CODEC_OF_TYPE[hints[name]]) for name in cls._fields)


# per packet class, its fields in line order as (name, format, parse);
# encode and decode both read this table
FIELD_CODECS: dict[type, tuple[tuple[str, Callable, Callable], ...]] = {
    cls: _field_codecs(cls) for cls in PACKET_KINDS
}


# The one-step codec, whose template and reader the module docstring
# describes, and what it needs of each field format.

_INT_ONLY = {int}
_CONCRETE_HEIGHT = (float, int, int, int, int)
_LEVEL = (float, int, int)


def _ids_text(ids: tuple) -> str | None:
    if {*map(type, ids)} <= _INT_ONLY:
        return ",".join(map(str, ids)) if ids else "-"
    return None


def _level_text(level: tuple) -> str | None:
    if tuple(map(type, level)) == _LEVEL and math.isfinite(level[0]):
        return "%.6f:%d:%d" % level
    return None


def _height_text(h: Height) -> str | None:
    if h.tau is None:
        return "null:%d" % h.node if type(h.node) is int else None
    if tuple(map(type, h)) == _CONCRETE_HEIGHT and math.isfinite(h.tau):
        return "%.6f:%d:%d:%d:%d" % h
    return None


def _read_ids(raw: str) -> tuple[int, ...]:
    return () if raw == "-" else tuple(map(int, raw.split(",")))


def _read_level(raw: str) -> tuple[float, int, int]:
    tau, oid, r = raw.split(":")
    return (float(tau), int(oid), int(r))


def _read_height(raw: str) -> Height:
    if raw[0] == "n":
        return Height.null(int(raw[5:]))
    tau, oid, r, delta, node = raw.split(":")
    return Height(float(tau), int(oid), int(r), int(delta), int(node))


class _OneStep(NamedTuple):
    """How the one-step codec writes and reads a field of one format."""

    type: type  # of the values it writes
    placeholder: str
    # a value's text, or None to step aside; no function where the
    # placeholder formats the value itself
    text: Callable | None
    pattern: str  # of the text it reads
    read: Callable  # converts that text


_INT_TEXT = r"-?[0-9]+"
_FLOAT_TEXT = r"-?[0-9]{1,308}\.[0-9]+"  # at most 308 digits before the point, so finite
_ONE_STEP = {
    _fmt_int: _OneStep(int, "%d", None, _INT_TEXT, int),
    _fmt_float: _OneStep(float, "%.6f", None, _FLOAT_TEXT, float),
    _fmt_ids: _OneStep(tuple, "%s", _ids_text, rf"-|{_INT_TEXT}(?:,{_INT_TEXT})*", _read_ids),
    _fmt_level: _OneStep(tuple, "%s", _level_text, rf"{_FLOAT_TEXT}(?::{_INT_TEXT}){{2}}", _read_level),
    _fmt_height: _OneStep(
        Height, "%s", _height_text, rf"null:{_INT_TEXT}|{_FLOAT_TEXT}(?::{_INT_TEXT}){{4}}", _read_height
    ),
}


def _template(cls: type) -> tuple[str, tuple[type, ...], tuple[int, ...], tuple[tuple[int, Callable], ...]]:
    """The body template of ``cls``, a placeholder for each value, and what
    it asks of a packet: the type of each value, the positions of the
    decimals, and the position and text function of each value that the
    placeholder cannot format."""
    steps = [(i, name, _ONE_STEP[fmt]) for i, (name, fmt, _) in enumerate(FIELD_CODECS[cls])]
    return (
        " ".join([PACKET_KINDS[cls].token] + [f"{name}={step.placeholder}" for _, name, step in steps]),
        tuple(step.type for _, _, step in steps),
        tuple(i for i, _, step in steps if step.type is float),
        tuple((i, step.text) for i, _, step in steps if step.text is not None),
    )


def _reader(cls: type) -> tuple[type, re.Pattern, tuple[Callable, ...]]:
    """``cls``, the pattern of its canonical fields after the type token,
    one group per field, and the function converting each group."""
    steps = [(name, _ONE_STEP[fmt]) for name, fmt, _ in FIELD_CODECS[cls]]
    pattern = " ".join(f"{name}=({step.pattern})" for name, step in steps)
    return cls, re.compile(pattern), tuple(step.read for _, step in steps)


_TEMPLATES = {cls: _template(cls) for cls in PACKET_KINDS}
_READERS = {kind.token: _reader(cls) for cls, kind in PACKET_KINDS.items()}


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
    if all(map(operator.lt, nodes, nodes[1:])):  # strictly ascending, as written
        return None
    if len(set(nodes)) != len(nodes):
        return f"receivers {nodes} repeat a node"
    return f"receivers {nodes} are not in ascending order"


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
    body = _write_body(packet)
    return _encode_fields(packet) if body is None else body


def _write_body(packet: Packet) -> str | None:
    """The body its class's template writes, or None where it steps aside."""
    template = _TEMPLATES.get(type(packet))
    if template is None:
        return None
    text, types, decimals, texts = template
    # a sum of finite decimals is finite unless it overflows, which steps aside too
    if tuple(map(type, packet)) != types or not math.isfinite(sum(map(packet.__getitem__, decimals))):
        return None
    try:
        if not texts:
            return text % packet
        values = list(packet)
        for i, value_text in texts:
            values[i] = value_text(values[i])
        return None if None in values else text % tuple(values)
    except ValueError:  # an int too long to write, which the field-by-field codec reports
        return None


def _encode_fields(packet: Packet) -> str:
    """Format a packet as a line's body field by field, raising on the first
    field it cannot write."""
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
    if type(seq) is not int:
        _fmt_int("seq", seq)  # refuses a bool or a float, as for each node id
    if type(nodes) is not tuple:
        raise ValueError(f"nodes must be a tuple of node ids, got {nodes!r}")
    if len(nodes) == 1 and type(nodes[0]) is int:
        nodes_text = str(nodes[0])
    else:
        if {*map(type, nodes)} <= _INT_ONLY:
            nodes_text = ",".join(map(str, nodes))
        else:  # raises for the first id that is not an int
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
    """Parse a line's body, ``<type> <field>=<value> ...``: in one step by
    its class's reader when the body is canonical, else strictly, field by
    field."""
    token, _, fields_text = rest.partition(" ")
    reader = _READERS.get(token)
    if reader is not None:
        cls, pattern, reads = reader
        match = pattern.fullmatch(fields_text)
        if match is not None:
            try:
                return cls(*[read(raw) for read, raw in zip(reads, match.groups())])
            except ValueError:
                pass  # the strict parse raises the error that names the field
    return _decode_fields(rest)


def _decode_fields(rest: str) -> Packet:
    """Strictly parse a line's body field by field, raising on its first bad
    field."""
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
    return _tuple_new(TraceRecord, (timestamp, seq, event, nodes, packet))


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
