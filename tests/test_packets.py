"""Canonical trace encoding: determinism, round trips, error taxonomy."""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import given, strategies as st

from anttora import packets
from anttora.agent import NodeAgent, ProtocolParams
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
    TRACE_EVENTS,
    TraceDecodeError,
    TraceFieldError,
    TraceRecord,
    UnknownPacketTypeError,
    UpdPacket,
    decode_trace_record,
    encode_trace,
)
from anttora.scenario import DEFAULT_CONTROL_BITS, LinkSpec

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
        DataPacket(0, 1, 2, 512, (0, True)),  # would write path=0,True
        UpdPacket(1, Height(0.5, 1.0, 0, 2, 3)),  # would write height=0.500000:1.0:0:2:3
        UpdPacket(1, Height.null(True)),  # would write height=null:True
        ClrPacket(1, (0.5, 2.0, 1)),  # would write reference_level=0.500000:2.0:1
    ],
)
def test_encoder_refuses_values_the_decoder_would_refuse(pkt):
    with pytest.raises(ValueError):
        encode_trace(pkt, 1.0)


@pytest.mark.parametrize("head", [{"seq": True, "node": True}, {"seq": True}, {"node": 2.0}, {"seq": 1.0}])
def test_encoder_refuses_a_head_the_decoder_would_refuse(head):
    with pytest.raises(ValueError):
        encode_trace(HelloAnt(3, 1.0, 50.0, 0.25, 512), 1.0, **head)


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
        decode_trace_record(line)  # the bad line differs from this one in one field
        for _ in range(2):  # and fails as often as it is decoded
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


# what an integer slot may be handed: an int nine times in ten, else a bool or
# a float, which the decoder would refuse or read back as another type
_int_slot = st.integers(0, 9).flatmap(
    lambda k: st.integers(-3, 99) if k else st.one_of(st.booleans(), st.integers(0, 9).map(float), st.floats(-10, 10))
)
_height = st.one_of(
    st.builds(Height.null, _int_slot),
    st.builds(Height, _q6, _int_slot, st.sampled_from([0, 1, False, True, 0.0, 1.0]), _int_slot, _int_slot),
)


def _packets(make, *parts):
    """Packets ``make(*values)`` over draws of ``parts``; draws that the
    packet's own invariants refuse are dropped."""

    def build(values):
        try:
            return make(*values)
        except ValueError:
            return None

    return st.tuples(*parts).map(build).filter(lambda packet: packet is not None)


_hops = st.lists(_int_slot, max_size=3)
_any_packet = st.one_of(
    _packets(HelloAnt, _int_slot, _q6, _q6, _q6, _int_slot),
    _packets(lambda t, s, d, hops: QryRequestAnt(t, s, d, (s, *hops)), _q6, _int_slot, _int_slot, _hops),
    _packets(QryReplyAnt, _int_slot, _q6, _q6, _q6, _q6, _int_slot, _int_slot, _hops.map(tuple), _height),
    _packets(UpdPacket, _int_slot, _height),
    _packets(ErrorPacket, _int_slot, _int_slot),
    _packets(ClrPacket, _int_slot, st.tuples(_q6, _int_slot, st.sampled_from([1, True, 1.0]))),
    _packets(
        lambda s, d, seq, bits, hops: DataPacket(s, d, seq, bits, (s, *hops, d)),
        _int_slot, _int_slot, _int_slot, _int_slot, _hops,
    ),
)


@given(packet=_any_packet, t=_q6, seq=_int_slot, node=_int_slot, event=st.sampled_from(TRACE_EVENTS))
def test_encoder_writes_only_what_the_decoder_reads_back(packet, t, seq, node, event):
    try:
        line = encode_trace(packet, t, seq=seq, event=event, node=node)
    except ValueError:
        return
    rec = decode_trace_record(line)
    assert rec == (t, seq, event, node, packet)
    # == cannot tell True from 1 or 2.0 from 2; the spelling can
    assert repr(rec) == repr(TraceRecord(t, seq, event, node, packet))
    assert encode_trace(rec.packet, rec.timestamp, seq=rec.seq, event=rec.event, node=rec.node) == line


def test_encode_memo_gives_each_packet_its_own_text():
    a = HelloAnt(3, 1.0, 50.0, 0.25, 512)
    b = HelloAnt(4, 1.0, 50.0, 0.25, 512)
    first, other, again = (encode_trace(p, 1.0) for p in (a, b, a))
    assert first == again != other
    assert "sender=4" in other and "sender=3" in again
    twin = HelloAnt(3, 1.0, 50.0, 0.25, 512)  # equal to a, another object
    assert twin is not a and encode_trace(twin, 1.0) == first


def test_encode_that_raises_raises_again():
    bad = HelloAnt(3, 1.0, math.inf, 0.25, 512)
    for _ in range(2):
        with pytest.raises(ValueError):
            encode_trace(bad, 1.0)


@pytest.mark.parametrize("first", ["plus", "minus"])
def test_equal_packets_keep_their_own_text(first, monkeypatch):
    # 0.0 == -0.0, so the two hellos are equal (and hash alike), but each is
    # written as it is, whichever of them the encoder meets first
    monkeypatch.setattr(packets, "_encoded", {})
    hellos = {"plus": HelloAnt(3, 1.0, 0.0, 0.25, 512), "minus": HelloAnt(3, 1.0, -0.0, 0.25, 512)}
    assert hellos["plus"] == hellos["minus"]
    second = "minus" if first == "plus" else "plus"
    lines = {name: encode_trace(hellos[name], 1.0) for name in (first, second)}
    assert " residual_energy=0.000000 " in lines["plus"]
    assert " residual_energy=-0.000000 " in lines["minus"]


def test_decode_that_raises_raises_again():
    line = encode_trace(HelloAnt(3, 1.0, 50.0, 0.25, 512), 1.0).replace("size_bits=512", "size_bits=0")
    for _ in range(2):
        with pytest.raises(TraceDecodeError):
            decode_trace_record(line)


def test_memos_stay_bounded_and_never_mix_up_packets(monkeypatch):
    for memo in ("_encoded", "_decoded"):
        monkeypatch.setattr(packets, memo, {})
    for sender in range(2 * packets.MEMO_SIZE + 3):
        # nothing else holds the packet, so only the memo keeps its id taken
        line = encode_trace(HelloAnt(sender, 1.0, 50.0, 0.25, 512), 1.0, event="drp")
        assert f" sender={sender} " in line
        assert decode_trace_record(line).packet.sender == sender
        assert max(len(packets._encoded), len(packets._decoded)) <= packets.MEMO_SIZE


@pytest.mark.parametrize(
    "field_name, index, bad",
    [
        ("timestamp", 0, "1.0x"),
        ("timestamp", 0, "inf"),
        ("timestamp", 0, "-000000001.000000"),
        ("seq", 1, "1.5"),
        ("node", 3, "n9"),
    ],
)
def test_a_repeated_body_still_checks_the_head(field_name, index, bad, monkeypatch):
    monkeypatch.setattr(packets, "_decoded", {})
    line = encode_trace(HelloAnt(3, 1.0, 50.0, 0.25, 512), 1.0, seq=1, node=9)
    decode_trace_record(line)
    for i, other in enumerate(_sample_packets()):  # the body is memoized lines ago
        decode_trace_record(encode_trace(other, 2.0, seq=2 + i))
    assert line.split(" ", 4)[4] in packets._decoded
    tokens = line.split(" ")
    tokens[index] = bad
    with pytest.raises(TraceFieldError) as err:
        decode_trace_record(" ".join(tokens))
    assert err.value.field_name == field_name


@pytest.mark.parametrize(
    "bad, field_name",
    [({0: "x", 3: "y"}, "timestamp"), ({1: "1.5", 2: "bogus"}, "seq"), ({2: "bogus", 3: "y"}, None)],
)
def test_a_bad_head_is_refused_at_its_first_bad_field(bad, field_name):
    tokens = encode_trace(HelloAnt(3, 1.0, 50.0, 0.25, 512), 1.0, seq=1, node=9).split(" ")
    for index, token in bad.items():
        tokens[index] = token
    with pytest.raises(TraceDecodeError) as err:
        decode_trace_record(" ".join(tokens))
    # a bad event is not a field error
    assert getattr(err.value, "field_name", None) == field_name


def test_records_that_share_a_body_keep_their_own_head():
    data = DataPacket(0, 7, 12, 1000, (0, 2, 5, 7))
    heads = [(1.5, 4, "snd", 0), (1.5, 5, "rcv", 2), (1.75, 6, "drp", 2)]
    lines = [encode_trace(data, t, seq=seq, event=event, node=node) for t, seq, event, node in heads]
    assert len({line.split(" ", 4)[4] for line in lines}) == 1
    records = [decode_trace_record(line) for line in lines]
    assert [tuple(rec[:4]) for rec in records] == heads
    assert all(rec.packet == data for rec in records)


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
    # every packet type is received by one NodeAgent method, called as
    # handler(packet, sender, now), that returns the emissions as a list
    samples = {type(pkt): pkt for pkt in _sample_packets()}
    assert set(samples) == set(PACKET_KINDS)
    for cls, kind in PACKET_KINDS.items():
        handler = getattr(NodeAgent, kind.handler)
        assert list(inspect.signature(handler).parameters)[2:] == ["sender", "now"]
        agent = NodeAgent(2, ProtocolParams(), LinkSpec(), 100.0)
        sender = samples[cls].sender if cls is HelloAnt else 0
        agent.link_up(sender, 0.0)
        assert isinstance(getattr(agent, kind.handler)(samples[cls], sender, 2.0), list)
    assert set(CONTROL_BITS_KEYS) == set(DEFAULT_CONTROL_BITS)
