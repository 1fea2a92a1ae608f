"""Canonical trace encoding: determinism, round trips, error taxonomy."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from anttora.agent import NodeAgent
from anttora.heights import Height
from anttora.packets import (
    CONTROL_BITS_KEYS,
    PACKET_KINDS,
    ClrPacket,
    DataPacket,
    ErrorPacket,
    HelloAnt,
    QryReplyAnt,
    QryRequestAnt,
    TraceDecodeError,
    TraceFieldError,
    UnknownPacketTypeError,
    UpdPacket,
    decode_trace_record,
    encode_trace,
)
from anttora.scenario import DEFAULT_CONTROL_BITS

from conftest import MALFORMED_EVENT_FIELDS

# six-fractional-digit grid: values that survive the canonical rounding
_q6 = st.integers(0, 10_000_000).map(lambda n: n / 1e6)
_ids = st.integers(0, 99)


def _sample_packets():
    h = Height(2.5, 3, 1, -2, 4)
    return [
        HelloAnt(3, 1.0, 50.0, 0.25, 512),
        QryRequestAnt(1.5, 0, 7, (0, 2, 5)),
        QryReplyAnt(3, 0.0125, 40.0, 0.5, 2e6, 0, 7, (5, 6, 7), h),
        UpdPacket(7, h),
        UpdPacket(7, Height.null(2)),
        ErrorPacket(0, 3),
        ClrPacket(7, (3.0, 5, 1)),
        DataPacket(0, 7, 12, 1000, (0, 2, 5, 7)),
    ]


def test_encoding_is_deterministic():
    hello = HelloAnt(3, 1.0, 50.0, 0.25, 512)
    assert encode_trace(hello, 1.0) == encode_trace(hello, 1.0)


def test_every_type_round_trips():
    for i, pkt in enumerate(_sample_packets()):
        line = encode_trace(pkt, 2.5, seq=i, event="rcv", node=9)
        rec = decode_trace_record(line)
        assert rec.packet == pkt
        assert rec.timestamp == 2.5
        assert (rec.seq, rec.event, rec.node) == (i, "rcv", 9)


def test_six_digit_precision_distinguishes_packets():
    a = HelloAnt(3, 1.0, 50.0, 0.25, 512)
    b = HelloAnt(3, 1.0, 50.0, 0.250001, 512)
    assert encode_trace(a, 1.0) != encode_trace(b, 1.0)


def test_timestamps_sort_lexically():
    hello = HelloAnt(3, 1.0, 50.0, 0.25, 512)
    lines = [encode_trace(hello, t) for t in (9.5, 10.0, 100.25, 0.125)]
    assert sorted(lines) == [lines[3], lines[0], lines[1], lines[2]]


def test_non_finite_fields_rejected():
    with pytest.raises(ValueError):
        encode_trace(HelloAnt(3, 1.0, math.inf, 0.25, 512), 1.0)
    with pytest.raises(ValueError):
        encode_trace(HelloAnt(3, 1.0, 50.0, math.nan, 512), 1.0)


@pytest.mark.parametrize(
    "pkt",
    [
        HelloAnt(3, 1.0, 50.0, 0.25, 512.0),  # would write size_bits=512.000000
        HelloAnt(True, 1.0, 50.0, 0.25, 512),
        HelloAnt(3, 1.0, False, 0.25, 512),
    ],
)
def test_encoder_refuses_values_the_decoder_would_refuse(pkt):
    with pytest.raises(ValueError):
        encode_trace(pkt, 1.0)


def test_truncated_line_is_a_parse_error():
    line = encode_trace(HelloAnt(3, 1.0, 50.0, 0.25, 512), 1.0)
    with pytest.raises(TraceDecodeError):
        decode_trace_record(line.rsplit(" ", 2)[0])


def test_unknown_type_token_is_a_distinct_error():
    line = encode_trace(HelloAnt(3, 1.0, 50.0, 0.25, 512), 1.0)
    bad = line.replace(" hello ", " bogus ")
    with pytest.raises(UnknownPacketTypeError):
        decode_trace_record(bad)


def test_malformed_field_names_the_offender():
    for packet, good, bad_token, field_name in MALFORMED_EVENT_FIELDS.values():
        line = encode_trace(packet, 1.0)
        bad = line.replace(good, bad_token)
        assert bad != line
        with pytest.raises(TraceFieldError) as err:
            decode_trace_record(bad)
        assert err.value.field_name == field_name
        assert not isinstance(err.value, UnknownPacketTypeError)


def test_field_order_is_enforced():
    line = encode_trace(ErrorPacket(0, 3), 1.0)
    swapped = line.replace("source=0 originator=3", "originator=3 source=0")
    with pytest.raises(TraceDecodeError):
        decode_trace_record(swapped)


@given(sender=_ids, send_time=_q6, energy=_q6, drain=_q6, bits=st.integers(1, 1 << 16), t=_q6)
def test_hello_round_trip_property(sender, send_time, energy, drain, bits, t):
    pkt = HelloAnt(sender, send_time, energy, drain, bits)
    rec = decode_trace_record(encode_trace(pkt, t))
    assert (rec.packet, rec.timestamp) == (pkt, t)


@given(
    hop=st.integers(1, 20), delay=_q6, energy=_q6, drain=_q6,
    bw=st.integers(1, 10_000_000).map(float),
    src=_ids, dst=_ids, t=_q6,
    route=st.lists(st.integers(200, 220), min_size=1, max_size=5, unique=True),
    null_height=st.booleans(), tau=_q6, oid=_ids, r=st.integers(0, 1),
    delta=st.integers(-8, 8), owner=_ids,
)
def test_reply_round_trip_property(
    hop, delay, energy, drain, bw, src, dst, t, route,
    null_height, tau, oid, r, delta, owner,
):
    height = Height.null(owner) if null_height else Height(tau, oid, r, delta, owner)
    pkt = QryReplyAnt(hop, delay, energy, drain, bw, src, dst, tuple(route), height)
    rec = decode_trace_record(encode_trace(pkt, t))
    assert (rec.packet, rec.timestamp) == (pkt, t)


def test_packet_invariants():
    with pytest.raises(ValueError):
        QryRequestAnt(1.0, 0, 7, (1, 2))  # visited must start at source
    with pytest.raises(ValueError):
        QryRequestAnt(1.0, 0, 7, (0, 2, 2))  # loop
    with pytest.raises(ValueError):
        ClrPacket(7, (3.0, 5, 0))  # unreflected level
    with pytest.raises(ValueError):
        DataPacket(0, 7, 1, 100, (0, 3))  # path must end at destination
    with pytest.raises(ValueError):
        HelloAnt(3, 1.0, 50.0, 0.25, 0)  # empty packet


def test_registry_names_agent_handlers_and_defaulted_bits_keys():
    for kind in PACKET_KINDS.values():
        assert kind.handler is None or callable(getattr(NodeAgent, kind.handler))
    assert set(CONTROL_BITS_KEYS) == set(DEFAULT_CONTROL_BITS)
