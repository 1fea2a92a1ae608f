"""Run metrics, computed from the canonical trace.

Every reported number is derived from the serialized trace rather than from
live simulation state, so replaying a trace file reproduces the original
report exactly: the report is a pure function of the trace bytes.

``compute_metrics`` reads a trace in one strict pass: it decodes each event
line once, checks the line's (timestamp, seq) order, and folds the decoded
record, so a trace is never split or parsed a second time.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .packets import PACKET_KINDS, DataPacket, TraceDecodeError, decode_trace_record


class RunMetrics:
    """Delivery, delay, overhead, and energy accounting for one run; two
    are equal when every field is, and the repr names every field."""

    __slots__ = (
        "data_sent", "data_delivered", "pdr", "mean_end_to_end_delay",
        "control_packets", "energy_spent", "cache_size", "reaction_locality",
    )

    def __init__(self) -> None:
        self.data_sent = 0
        self.data_delivered = 0
        self.pdr = 0.0
        self.mean_end_to_end_delay = 0.0
        self.control_packets: dict[str, int] = {}
        self.energy_spent: dict[int, float] = {}
        self.cache_size: list[tuple[float, int]] = []
        self.reaction_locality: dict[int, int] = {}

    def __eq__(self, other: object) -> bool:
        if type(other) is not RunMetrics:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"RunMetrics({fields})"

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


def ordered_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added one by one, left to right, from the int
    0, as ``sum`` adds them before Python 3.12; from 3.12 ``sum`` rounds a
    float sum another way, and a report must read the same on every
    Python."""
    total = 0
    for value in values:
        total += value
    return total


_DISORDER = "trace packet events are not in canonical order"

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


# per packet class: its type token, the header parameter holding its frame
# size (None when it carries its own size_bits), and whether it is data
_FOLD = {
    cls: (kind.token, f"bits_{kind.bits_key}" if kind.bits_key else None, cls is DataPacket)
    for cls, kind in PACKET_KINDS.items()
}


def compute_metrics(lines: Iterable[str]) -> RunMetrics:
    """Recompute the full report from trace lines (header included).

    This is the one strict pass over a trace: every event line is decoded
    by ``decode_trace_record``, its (timestamp, seq) checked against the
    line before as :func:`validate_trace_order` checks it, and the decoded
    record folded. A line empty but for its newline is skipped."""
    metrics = RunMetrics()
    params: dict[str, str | int | float] = {}
    first_send: dict[tuple[int, int, int], float] = {}
    delivered_at: dict[tuple[int, int, int], float] = {}
    offered: set[tuple[int, int, int]] = set()
    energy, control = metrics.energy_spent, metrics.control_packets
    decode = decode_trace_record  # looked up per call, so a wrapped decoder is seen
    last_time, last_seq = -math.inf, 0
    for line in lines:
        if not line or line == "\n":
            continue
        if line[0] == "#":
            _parse_annotation(line.rstrip("\n"), params, metrics)
            continue
        ts, seq, event, nodes, packet = decode(line)
        if ts < last_time or (ts == last_time and seq <= last_seq):
            raise TraceDecodeError(_DISORDER)
        last_time, last_seq = ts, seq
        token, size_param, is_data = _FOLD[type(packet)]
        # only a rcv line names more than one node
        if is_data:
            key = (packet.source, packet.destination, packet.seq)
            if event == "snd" and nodes[0] == key[0]:
                offered.add(key)
                if key not in first_send:
                    first_send[key] = ts
            elif event == "drp" and nodes[0] == key[0] and key not in offered:
                offered.add(key)  # queued at the source and never transmitted
            elif event == "rcv" and key[1] in nodes:
                delivered_at[key] = ts
        elif event == "snd":
            control[token] = control.get(token, 0) + 1
        if event in ("snd", "rcv"):
            try:
                bits = packet.size_bits if size_param is None else params[size_param]
                beta = params["beta_tx"] if event == "snd" else params["beta_rx"]
            except KeyError as exc:
                raise TraceDecodeError(f"trace header missing parameter {exc}") from None
            cost = beta * bits
            for node in nodes:
                energy[node] = energy.get(node, 0.0) + cost
    metrics.data_sent = len(offered)
    metrics.data_delivered = len(delivered_at)
    metrics.pdr = metrics.data_delivered / metrics.data_sent if metrics.data_sent else 0.0
    delays = [
        delivered_at[k] - first_send[k] for k in sorted(delivered_at) if k in first_send
    ]
    metrics.mean_end_to_end_delay = ordered_sum(delays) / len(delays) if delays else 0.0
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

    The writer emits events in engine order without sorting, so the order
    must be checked on reading. :func:`compute_metrics` makes the same check
    as it folds and refuses a trace with the same message; this is the check
    alone, for a caller that wants no report. A line empty but for its
    newline is skipped."""
    last_time, last_seq = -math.inf, 0
    for line in lines:
        if not line or line == "\n" or line.startswith("#"):
            continue
        rec = decode_trace_record(line)
        timestamp, seq = rec.timestamp, rec.seq
        if timestamp < last_time or (timestamp == last_time and seq <= last_seq):
            raise TraceDecodeError(_DISORDER)
        last_time, last_seq = timestamp, seq
