"""Run metrics, computed from the canonical trace.

Every reported number is derived from the serialized trace rather than from
live simulation state, so replaying a trace file reproduces the original
report exactly: the report is a pure function of the trace bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .packets import PACKET_KINDS, DataPacket, TraceDecodeError, decode_trace_record


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


def compute_metrics(lines: list[str]) -> RunMetrics:
    """Recompute the full report from trace lines (header included)."""
    metrics = RunMetrics()
    params: dict[str, str | int | float] = {}
    first_send: dict[tuple[int, int, int], float] = {}
    delivered_at: dict[tuple[int, int, int], float] = {}
    offered: set[tuple[int, int, int]] = set()
    for raw in lines:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            _parse_annotation(line, params, metrics)
            continue
        rec = decode_trace_record(line)
        pkt = rec.packet
        kind = PACKET_KINDS[type(pkt)]
        if isinstance(pkt, DataPacket):
            key = (pkt.source, pkt.destination, pkt.seq)
            if rec.event == "snd" and rec.node == pkt.source:
                offered.add(key)
                if key not in first_send:
                    first_send[key] = rec.timestamp
            elif rec.event == "drp" and rec.node == pkt.source and key not in offered:
                offered.add(key)  # queued at the source and never transmitted
            elif rec.event == "rcv" and rec.node == pkt.destination:
                delivered_at[key] = rec.timestamp
        elif rec.event == "snd":
            metrics.control_packets[kind.token] = metrics.control_packets.get(kind.token, 0) + 1
        if rec.event in ("snd", "rcv"):
            try:
                bits = pkt.size_bits if kind.bits_key is None else params[f"bits_{kind.bits_key}"]
                beta = params["beta_tx"] if rec.event == "snd" else params["beta_rx"]
            except KeyError as exc:
                raise TraceDecodeError(f"trace header missing parameter {exc}") from None
            metrics.energy_spent[rec.node] = metrics.energy_spent.get(rec.node, 0.0) + beta * bits
    metrics.data_sent = len(offered)
    metrics.data_delivered = len(delivered_at)
    metrics.pdr = metrics.data_delivered / metrics.data_sent if metrics.data_sent else 0.0
    delays = [
        delivered_at[k] - first_send[k] for k in sorted(delivered_at) if k in first_send
    ]
    metrics.mean_end_to_end_delay = sum(delays) / len(delays) if delays else 0.0
    return metrics


def read_trace(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def validate_trace_order(lines: list[str]) -> None:
    """Packet-event lines must be ordered by (timestamp, seq).

    The writer emits events in engine order without sorting, so this is the
    one place the order is checked. Comparing whole lines is the fast path,
    exact while the zero-padded timestamp and seq fields keep their widths;
    ``seq`` widens past eight digits ("100000000" < "99999999"), so a line
    that sorts lexically before its predecessor, or whose fields differ in
    width from it, is decoded and must have a greater (timestamp, seq)."""
    prev, prev_ts_end, prev_seq_end = "", 0, 0
    for line in lines:
        if not line or line.startswith("#"):
            continue
        ts_end = line.find(" ")
        seq_end = line.find(" ", ts_end + 1)
        if prev and (line < prev or ts_end != prev_ts_end or seq_end != prev_seq_end):
            cur, last = decode_trace_record(line), decode_trace_record(prev)
            if (cur.timestamp, cur.seq) <= (last.timestamp, last.seq):
                raise TraceDecodeError("trace packet events are not in canonical order")
        prev, prev_ts_end, prev_seq_end = line, ts_end, seq_end
