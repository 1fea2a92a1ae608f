"""Run metrics, computed from the canonical trace.

Every reported number is derived from the serialized trace rather than from
live simulation state, so replaying a trace file reproduces the original
report exactly: the report is a pure function of the trace bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .packets import PACKET_KINDS, DataPacket, TraceDecodeError, decode_trace_record, remember, value_slot


@dataclass
class RunMetrics:
    """Delivery, delay, overhead, and energy accounting for one run."""

    data_sent: int = 0
    data_delivered: int = 0
    pdr: float = 0.0
    mean_end_to_end_delay: float = 0.0
    control_packets: dict[str, int] = field(default_factory=dict)
    energy_spent: dict[int, float] = field(default_factory=dict)
    cache_size: list[tuple[float, int]] = field(default_factory=list)
    reaction_locality: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "data_sent": self.data_sent,
            "data_delivered": self.data_delivered,
            "pdr": self.pdr,
            "mean_end_to_end_delay": self.mean_end_to_end_delay,
            "control_packets": {
                kind.token: self.control_packets.get(kind.token, 0)
                for cls, kind in PACKET_KINDS.items()
                if cls is not DataPacket
            },
            "energy_spent": {str(n): j for n, j in sorted(self.energy_spent.items())},
            "cache_size": [[t, total] for t, total in self.cache_size],
            "reaction_locality": {str(k): v for k, v in sorted(self.reaction_locality.items())},
        }


# header parameters that metrics need as numbers, by name prefix
_PARAM_TYPES = {"beta": float, "bits": int}


def _parse_annotation(line: str, params: dict, metrics: RunMetrics) -> None:
    tokens = line[2:].split(" ")
    kind = tokens[0]
    try:
        kv = dict(part.split("=", 1) for part in tokens[1:])
        if kind == "param":
            for key, value in kv.items():
                params[key] = _PARAM_TYPES.get(key.split("_", 1)[0], str)(value)
        elif kind == "cachesize":
            metrics.cache_size.append((float(kv["t"]), int(kv["total"])))
        elif kind == "locality":
            metrics.reaction_locality[int(kv["failure"])] = int(kv["nodes"])
    except (KeyError, ValueError):
        raise TraceDecodeError(f"malformed annotation {line!r}") from None


# where the fold finds what it reads on an event line's body split at spaces
_DATA = PACKET_KINDS[DataPacket].token
(_SRC, _SRC_AT), (_DST, _DST_AT), (_SEQ, _SEQ_AT) = (
    value_slot(DataPacket, name) for name in ("source", "destination", "seq")
)
# a frame's size: its own size_bits field, or else a header parameter
_SIZE_SLOT = {k.token: value_slot(cls, "size_bits") for cls, k in PACKET_KINDS.items() if not k.bits_key}
_SIZE_PARAM = {k.token: f"bits_{k.bits_key}" for k in PACKET_KINDS.values() if k.bits_key}

# body text -> what the fold reads of it: (type token, own size_bits or None,
# (source, destination, seq) of a data packet or None); bounded like the
# codec's memos
_folded: dict[str, tuple[str, int | None, tuple[int, int, int] | None]] = {}


def _body_facts(body: str) -> tuple[str, int | None, tuple[int, int, int] | None]:
    parts = body.split(" ")
    token = parts[0]
    own = _SIZE_SLOT.get(token)
    bits = int(parts[own[0]][own[1] :]) if own else None
    key = None
    if token == _DATA:
        key = (int(parts[_SRC][_SRC_AT:]), int(parts[_DST][_DST_AT:]), int(parts[_SEQ][_SEQ_AT:]))
    return token, bits, key


def compute_metrics(lines: Iterable[str]) -> RunMetrics:
    """Recompute the full report from trace lines (header included).

    Event lines must come from the encoder or have passed
    :func:`validate_trace_order`, since nothing on them is checked: each
    line's head is split off and read, and the few facts the report needs
    of its body are read once per distinct body text and remembered."""
    metrics = RunMetrics()
    params: dict[str, str | int | float] = {}
    first_send: dict[tuple[int, int, int], float] = {}
    delivered_at: dict[tuple[int, int, int], float] = {}
    offered: set[tuple[int, int, int]] = set()
    energy, control = metrics.energy_spent, metrics.control_packets
    for raw in lines:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            _parse_annotation(line, params, metrics)
            continue
        ts, _seq, event, node_raw, body = line.split(" ", 4)
        node = int(node_raw)
        facts = _folded.get(body)
        if facts is None:
            facts = _body_facts(body)
            remember(_folded, body, facts)
        token, own_bits, key = facts
        if key is not None:
            if event == "snd" and node == key[0]:
                offered.add(key)
                if key not in first_send:
                    first_send[key] = float(ts)
            elif event == "drp" and node == key[0] and key not in offered:
                offered.add(key)  # queued at the source and never transmitted
            elif event == "rcv" and node == key[1]:
                delivered_at[key] = float(ts)
        elif event == "snd":
            control[token] = control.get(token, 0) + 1
        if event in ("snd", "rcv"):
            try:
                bits = own_bits if own_bits is not None else params[_SIZE_PARAM[token]]
                beta = params["beta_tx"] if event == "snd" else params["beta_rx"]
            except KeyError as exc:
                raise TraceDecodeError(f"trace header missing parameter {exc}") from None
            energy[node] = energy.get(node, 0.0) + beta * bits
    metrics.data_sent = len(offered)
    metrics.data_delivered = len(delivered_at)
    metrics.pdr = metrics.data_delivered / metrics.data_sent if metrics.data_sent else 0.0
    delays = [
        delivered_at[k] - first_send[k] for k in sorted(delivered_at) if k in first_send
    ]
    metrics.mean_end_to_end_delay = sum(delays) / len(delays) if delays else 0.0
    return metrics


def read_trace(path: str) -> Iterator[str]:
    """Yield the lines of the trace file at ``path``, without their
    newlines, as they are read. The file is opened on the first ``next``
    and closed when the lines run out or the generator is closed or
    dropped; like any generator it can be iterated only once."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")


def validate_trace_order(lines: Iterable[str]) -> None:
    """Strictly decode every packet-event line and require its
    (timestamp, seq) to be greater than the line before.

    The writer emits events in engine order without sorting, so this is the
    one place the order is checked, and the one pass that checks each event
    line against the canonical grammar before :func:`compute_metrics` folds
    it."""
    last_time, last_seq = -math.inf, 0
    for line in lines:
        if not line or line.startswith("#"):
            continue
        rec = decode_trace_record(line)
        timestamp, seq = rec.timestamp, rec.seq
        if timestamp < last_time or (timestamp == last_time and seq <= last_seq):
            raise TraceDecodeError("trace packet events are not in canonical order")
        last_time, last_seq = timestamp, seq
