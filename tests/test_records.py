"""The value records: those a run builds by the thousand (the seven packet
types, ``Height``, ``PathMetrics`` and ``Emission``) and those the scenario
parser builds once (the weights, bounds and constraints, the parameters and
the scenario's parts). Each is a tuple whose constructor refuses what breaks
its invariants, whose fields cannot be assigned, and, for ``Height``, whose
order is TORA's and not the tuple's. ``Route`` is no tuple, since its expiry
moves, but its constructor refuses as the tuples' do."""

from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, strategies as st

from anttora.aco import DepositWeights, NormalizationBounds, PathMetrics, PreferenceWeights
from anttora.agent import Emission, NeighborInfo, ProtocolParams, QosConstraints, Route
from anttora.heights import Height
from anttora.packets import (
    PACKET_KINDS,
    ClrPacket,
    DataPacket,
    ErrorPacket,
    HelloAnt,
    QryReplyAnt,
    QryRequestAnt,
    UpdPacket,
    decode_trace_record,
    encode_trace,
)
from anttora.scenario import Flow, LinkFailure, LinkSpec, NodesSpec, TopologySpec, parse_scenario

H = Height(2.5, 3, 1, -2, 4)

# one record of each type that its constructor accepts
RECORDS = {
    "hello": HelloAnt(3, 1.0, 50.0, 0.25, 512),
    "qreq": QryRequestAnt(1.5, 0, 7, (0, 2, 5)),
    "qrep": QryReplyAnt(3, 0.0125, 40.0, 0.5, 2e6, 0, 7, (5, 6, 7), H),
    "upd": UpdPacket(7, H),
    "err": ErrorPacket((0, 2, 5, 7)),
    "clr": ClrPacket(7, (3.0, 5, 1)),
    "data": DataPacket(0, 7, 12, 1000, (0, 2, 5, 7)),
    "height": H,
    "null height": Height.null(2),
    "metrics": PathMetrics(0.01, 1e6, 10.0, 0.0, 3),
    "emission": Emission(HelloAnt(3, 1.0, 50.0, 0.25, 512), to=4),
    "neighbor": NeighborInfo(50.0, 0.25, 1e6, 2.0),
    "packet kind": PACKET_KINDS[HelloAnt],
    "deposit weights": DepositWeights(),
    "preference weights": PreferenceWeights(),
    "bounds": NormalizationBounds(),
    "qos": QosConstraints(),
    "protocol": ProtocolParams(),
    "flow": Flow(0, 1, 1.0, 1000, 1.0, 2.0),
    "link failure": LinkFailure(1.0, 0, 1),
    "links": LinkSpec(),
    "topology": TopologySpec(),
    "nodes": NodesSpec(count=2),
    "scenario": parse_scenario({"nodes": {"count": 2}, "topology": {"adjacency": [[0, 1]]}}),
}

_REPLY = (3, 0.0125, 40.0, 0.5, 2e6, 0, 7, (5, 6, 7), H)

# (record type, arguments, exception type, its message): each constructor
# refuses what it refused as a frozen dataclass, with the same message; an
# arity error names the constructor, which was __init__ and is now __new__, so
# only the text after that name is compared
REFUSALS = {
    "hello size": (HelloAnt, (3, 1.0, 50.0, 0.25, 0), ValueError, "hello size_bits must be positive"),
    "hello time": (HelloAnt, (3, -1.0, 50.0, 0.25, 512), ValueError, "hello send_time must be nonnegative"),
    "hello arity": (
        HelloAnt, (3, 1.0, 50.0, 0.25), TypeError, "missing 1 required positional argument: 'size_bits'"
    ),
    "qreq empty": (QryRequestAnt, (1.0, 0, 7, ()), ValueError, "visited stack must begin with the source"),
    "qreq source": (QryRequestAnt, (1.0, 0, 7, (1, 2)), ValueError, "visited stack must begin with the source"),
    "qreq loop": (QryRequestAnt, (1.0, 0, 7, (0, 2, 2)), ValueError, "visited stack must not repeat a node"),
    "qrep hops": (QryReplyAnt, (0, *_REPLY[1:]), ValueError, "reply hop_count counts at least the reporter"),
    "qrep delay": (QryReplyAnt, (3, -0.1, *_REPLY[2:]), ValueError, "reply metric fields must be nonnegative"),
    "qrep drain": (
        QryReplyAnt, (*_REPLY[:3], -1.0, *_REPLY[4:]), ValueError, "reply metric fields must be nonnegative"
    ),
    "qrep bandwidth": (
        QryReplyAnt, (*_REPLY[:4], 0.0, *_REPLY[5:]), ValueError, "reply bandwidth must be positive"
    ),
    "qrep no route": (QryReplyAnt, (*_REPLY[:7], (), H), ValueError, "reply must name the route it reports"),
    "qrep loop": (QryReplyAnt, (*_REPLY[:7], (5, 6, 5), H), ValueError, "reported route must be loop-free"),
    "upd arity": (UpdPacket, (7,), TypeError, "missing 1 required positional argument: 'height'"),
    "err short": (ErrorPacket, ((4,),), ValueError, "error path must name a link and be loop-free"),
    "err loop": (ErrorPacket, ((0, 4, 0),), ValueError, "error path must name a link and be loop-free"),
    "clr unreflected": (ClrPacket, (7, (3.0, 5, 0)), ValueError, "clear packets carry a reflected (r=1) level"),
    "data size": (DataPacket, (0, 7, 1, 0, (0, 7)), ValueError, "data size_bits must be positive"),
    "data ends": (DataPacket, (0, 7, 1, 100, (0, 3)), ValueError, "data path must run source to destination"),
    "data loop": (DataPacket, (0, 7, 1, 100, (0, 3, 0, 7)), ValueError, "data path must be loop-free"),
    "height half null": (
        Height, (None, 1, None, None, 3), ValueError,
        "height must be fully NULL or fully set: Height(tau=None, oid=1, r=None, delta=None, node=3)",
    ),
    "height reflection": (Height, (1.0, 2, 7, 0, 4), ValueError, "reflection bit must be 0 or 1, got 7"),
    "metrics delay inf": (
        PathMetrics, (math.inf, 1e6, 10.0, 0.0, 3), ValueError, "delay must be finite, got inf"
    ),
    "metrics energy nan": (
        PathMetrics, (0.01, 1e6, math.nan, 0.0, 3), ValueError, "energy must be finite, got nan"
    ),
    "metrics drain inf": (
        PathMetrics, (0.01, 1e6, 10.0, math.inf, 3), ValueError, "drain_rate must be finite, got inf"
    ),
    "metrics delay": (PathMetrics, (0, 1e6, 10.0, 0.0, 3), ValueError, "delay must be positive, got 0"),
    "metrics bandwidth": (
        PathMetrics, (0.01, -1.0, 10.0, 0.0, 3), ValueError, "bandwidth must be positive, got -1.0"
    ),
    "metrics energy": (
        PathMetrics, (0.01, 1e6, -1.0, 0.0, 3), ValueError, "energy must be nonnegative, got -1.0"
    ),
    "metrics drain": (
        PathMetrics, (0.01, 1e6, 10.0, -0.5, 3), ValueError, "drain_rate must be nonnegative, got -0.5"
    ),
    "metrics hops": (
        PathMetrics, (0.01, 1e6, 10.0, 0.0, 1), ValueError, "a path joins at least 2 nodes, got 1"
    ),
    "emission arity": (Emission, (), TypeError, "missing 1 required positional argument: 'packet'"),
    "deposit nan": (DepositWeights, (1.0, math.nan), ValueError, "energy must be finite, got nan"),
    "deposit negative": (
        DepositWeights, (-1.0,), ValueError, "deposit weight bandwidth must be >= 0, got -1.0"
    ),
    "preference inf": (PreferenceWeights, (math.inf,), ValueError, "pheromone must be finite, got inf"),
    "preference negative": (
        PreferenceWeights, (1.0, 1.0, 1.0, 1.0, 1.0, -0.5), ValueError,
        "preference weight drain_rate must be >= 0, got -0.5",
    ),
    "preference persistence": (
        PreferenceWeights, (1.0,) * 7, ValueError, "persistence must be in (0, 1), got 1.0"
    ),
    "preference decay": (
        PreferenceWeights, (1.0,) * 6 + (0.5, 0.0), ValueError, "decay must be in (0, 1], got 0.0"
    ),
    "bounds inf": (
        NormalizationBounds, ((1e-4, 1.0), (1e3, math.inf)), ValueError, "bandwidth must be finite, got inf"
    ),
    "bounds order": (
        NormalizationBounds, ((1.0, 1.0),), ValueError, "bounds for delay need lo < hi, got (1.0, 1.0)"
    ),
    "qos delay": (QosConstraints, (0.0,), ValueError, "max_delay must be positive"),
    "qos drain": (QosConstraints, (10.0, 1.0, 1e-6, -1.0), ValueError, "max_drain_rate must be positive"),
    "qos hops": (QosConstraints, (10.0, 1.0, 1e-6, 1e6, 1), ValueError, "max_hop_count must be >= 2, got 1"),
    "route loop": (
        Route, ((0, 2, 0), PathMetrics(0.01, 1e6, 10.0, 0.0, 3), 1.0, 2.0), ValueError,
        "route path must be loop-free",
    ),
    "route expiry": (
        Route, ((0, 2), PathMetrics(0.01, 1e6, 10.0, 0.0, 2), 2.0, 2.0), ValueError,
        "route must expire after creation",
    ),
}


@pytest.mark.parametrize("cls, args, error, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_record_refuses_what_it_refused_with_the_same_message(cls, args, error, message):
    with pytest.raises(error) as err:
        cls(*args)
    text = str(err.value)
    assert text == message if error is ValueError else text.endswith(f"() {message}")


@pytest.mark.parametrize("record", RECORDS.values(), ids=list(RECORDS))
def test_no_field_of_a_record_can_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):  # nor can a field be added
        record.extra = 1


@pytest.mark.parametrize("name", [n for n in RECORDS if type(RECORDS[n]) in PACKET_KINDS])
def test_a_decoded_packet_is_of_exactly_the_encoded_type(name):
    # the types are tuples, so == alone would let one type stand for another
    packet = RECORDS[name]
    for nodes in ((9,), (1, 4, 9)):
        decoded = decode_trace_record(encode_trace(packet, 2.0, event="rcv", nodes=nodes)).packet
        assert type(decoded) is type(packet)
        assert decoded == packet


def _sort_key(h: Height) -> tuple:
    """The order oracle: NULL above every concrete height, all NULLs tied,
    concrete heights lexicographic on (tau, oid, r, delta, node)."""
    return (1, 0.0, 0, 0, 0, 0) if h.tau is None else (0, h.tau, h.oid, h.r, h.delta, h.node)


_small = st.integers(-1, 1)
_heights = st.one_of(
    st.builds(Height.null, _small),
    st.builds(Height, st.sampled_from([0.0, -0.0, 0.5, 1.0]), _small, st.integers(0, 1), _small, _small),
)


@given(a=_heights, b=_heights)
def test_height_order_agrees_with_its_sort_key(a, b):
    # the tuple's own order would compare None with a number and raise, or
    # rank two NULLs by owner
    for op in (operator.lt, operator.gt, operator.le, operator.ge):
        assert op(a, b) == op(_sort_key(a), _sort_key(b)), op.__name__
