"""Height algebra: ordering, link direction, maintenance reactions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from anttora.heights import (
    Height,
    NodeToraState,
    Trigger,
    apply_clr,
    has_downstream,
    maintenance_case,
    new_height_on_reply,
)

from conftest import five_tuple, link_direction, maintenance_oracle

# ---------------------------------------------------------------------------
# construction


def test_height_must_be_all_null_or_all_set():
    with pytest.raises(ValueError):
        Height(1.0, None, 0, 0, 3)
    with pytest.raises(ValueError):
        Height(1.0, 2, 3, 0, 3)  # bad r bit
    assert Height.null(4).is_null
    assert not Height.zero(4).is_null


def test_reference_level_prefix():
    assert Height(5.0, 2, 1, -3, 7).level == (5.0, 2, 1)
    assert Height.null(7).level is None


# ---------------------------------------------------------------------------
# comparison


def _random_height(rng: random.Random) -> Height:
    return Height(
        float(rng.randint(0, 5)), rng.randint(0, 4), rng.randint(0, 1),
        rng.randint(-4, 4), rng.randint(0, 9),
    )


def test_destination_is_globally_lowest():
    assert Height.zero(3) < Height(0.0, 0, 0, 1, 0)


def test_identical_heights_compare_equal():
    h, twin = Height(5.0, 1, 0, 2, 2), Height(5.0, 1, 0, 2, 2)
    assert h == twin
    assert not h < twin and not twin < h


def test_null_orders_above_everything():
    assert not Height.null(1) < Height(9.0, 9, 1, 9, 9)
    assert Height(9.0, 9, 1, 9, 9) < Height.null(1)
    # NULLs tie, whoever owns them
    assert not Height.null(1) < Height.null(2) and not Height.null(2) < Height.null(1)


def test_comparison_matches_tuple_oracle():
    rng = random.Random(42)
    for _ in range(200):
        a, b = _random_height(rng), _random_height(rng)
        assert (a < b) == (five_tuple(a) < five_tuple(b))
        assert (b < a) == (five_tuple(a) > five_tuple(b))


@given(st.lists(st.tuples(
    st.floats(0, 10, allow_nan=False), st.integers(0, 5),
    st.integers(0, 1), st.integers(-5, 5), st.integers(0, 9),
), min_size=3, max_size=3))
def test_total_order_transitive_antisymmetric(raw):
    a, b, c = (Height(*t) for t in raw)
    # totality and antisymmetry: exactly one of a < b, b < a, a == b
    assert (a < b) + (b < a) + (a == b) == 1
    # transitivity of < and of <=
    if a < b and b < c:
        assert a < c
    if not b < a and not c < b:
        assert not c < a


# ---------------------------------------------------------------------------
# link direction


def test_destination_neighbor_is_downstream():
    assert link_direction(Height(0.0, 0, 0, 1, 1), Height.zero(9)) == "dn"


def test_null_neighbor_is_undirected():
    assert link_direction(Height(0.0, 0, 0, 1, 1), Height.null(2)) == "un"


def test_null_own_sees_concrete_neighbor_downstream():
    assert link_direction(Height.null(1), Height(3.0, 2, 0, 0, 2)) == "dn"


def test_reflection_bit_dominates_delta():
    own = Height(3.0, 1, 0, 0, 1)
    neighbor = Height(3.0, 1, 1, 0, 2)
    assert own < neighbor
    assert link_direction(own, neighbor) == "up"


def test_classification_mirrors_between_consistent_nodes():
    rng = random.Random(7)
    for _ in range(300):
        a, b = _random_height(rng), _random_height(rng)
        if a == b:
            continue
        assert (link_direction(a, b) == "dn") == (link_direction(b, a) == "up")


# ---------------------------------------------------------------------------
# downstream detection


def _state(node, dest, mirrors, own=None):
    st_ = NodeToraState(node=node, destination=dest)
    for j, h in mirrors.items():
        st_.add_link(j)
        st_.set_mirror(j, h)
    if own is not None:
        st_.set_own_height(own)
    return st_


def test_link_writes_have_no_fallback():
    s = _state(1, 9, {2: Height(3.0, 5, 0, 0, 2)})
    s.add_link(2)  # a re-added link starts from the initial height again
    assert s.links == {2: Height.null(2)}
    s.remove_link(2)
    assert s.links == {}
    with pytest.raises(KeyError):
        s.remove_link(2)


def test_destination_neighbor_has_downstream():
    s = _state(1, 9, {9: Height.zero(9)}, own=Height(0.0, 0, 0, 1, 1))
    assert has_downstream(s)


def test_all_null_neighbors_mean_no_downstream():
    s = _state(1, 9, {2: Height.null(2), 3: Height.null(3)})
    assert not has_downstream(s)


def test_has_downstream_matches_scan_oracle():
    rng = random.Random(11)
    for _ in range(200):
        mirrors = {j: (_random_height(rng) if rng.random() < 0.7 else Height.null(j))
                   for j in range(1, rng.randint(2, 6))}
        own = _random_height(rng) if rng.random() < 0.8 else Height.null(0)
        s = _state(0, 99, mirrors, own=own)
        expect = any(
            not h.is_null and (own.is_null or five_tuple(h) < five_tuple(own))
            for h in mirrors.values()
        )
        assert has_downstream(s) == expect


# ---------------------------------------------------------------------------
# height adoption


def test_adopt_next_to_destination():
    assert new_height_on_reply({Height.zero(9)}, 1) == Height(0.0, 0, 0, 1, 1)


def test_adopt_above_minimum_neighbor():
    hs = {Height(0.0, 0, 0, 1, 1), Height(0.0, 0, 0, 2, 2)}
    assert new_height_on_reply(hs, 3) == Height(0.0, 0, 0, 2, 3)


def test_adopt_requires_a_concrete_neighbor():
    with pytest.raises(ValueError):
        new_height_on_reply({Height.null(1), Height.null(2)}, 3)


def test_adopt_matches_min_oracle():
    rng = random.Random(23)
    for _ in range(100):
        hs = [_random_height(rng) for _ in range(rng.randint(1, 6))]
        got = new_height_on_reply(hs, 77)
        low = hs[0]
        for h in hs[1:]:
            if five_tuple(h) < five_tuple(low):
                low = h
        assert got == Height(low.tau, low.oid, low.r, low.delta + 1, 77)
        # adopted height sits strictly above the minimum it was built from
        assert low < got


# ---------------------------------------------------------------------------
# maintenance cases


def test_generate_on_link_failure_with_upstream():
    s = _state(1, 9, {2: Height(9.0, 9, 1, 9, 2)}, own=Height(0.0, 0, 0, 1, 1))
    assert maintenance_case(s, Trigger.LINK_FAILURE, now=7.0) == Height(7.0, 1, 0, 0, 1)


def test_generate_without_upstream_goes_null():
    s = _state(1, 9, {2: Height.null(2)}, own=Height(0.0, 0, 0, 1, 1))
    # nothing to announce
    assert maintenance_case(s, Trigger.LINK_FAILURE, now=7.0) == Height.null(1)


def test_propagate_adopts_highest_level():
    s = _state(1, 9, {
        2: Height(3.0, 2, 0, 0, 2),
        3: Height(5.0, 4, 0, 2, 3),
        4: Height(5.0, 4, 0, 4, 4),
    }, own=Height(0.0, 0, 0, 1, 1))
    # min delta 2 at top level, minus 1
    assert maintenance_case(s, Trigger.UPD_REVERSAL, now=8.0) == Height(5.0, 4, 0, 1, 1)


def test_reflect_on_uniform_unreflected_level():
    s = _state(1, 9, {
        2: Height(3.0, 7, 0, 0, 2),
        3: Height(3.0, 7, 0, 5, 3),
    }, own=Height(0.0, 0, 0, 1, 1))
    assert maintenance_case(s, Trigger.UPD_REVERSAL, now=8.0) == Height(3.0, 7, 1, 0, 1)


def test_detect_partition_on_own_reflected_level():
    s = _state(3, 9, {
        2: Height(3.0, 3, 1, 0, 2),
        4: Height(3.0, 3, 1, 2, 4),
    }, own=Height(3.0, 3, 0, 0, 3))
    assert maintenance_case(s, Trigger.UPD_REVERSAL, now=8.0) is None


def test_foreign_reflected_level_generates_fresh_level():
    s = _state(1, 9, {
        2: Height(3.0, 7, 1, 0, 2),
        4: Height(3.0, 7, 1, 2, 4),
    }, own=Height(3.0, 7, 0, -1, 1))
    assert maintenance_case(s, Trigger.UPD_REVERSAL, now=8.5) == Height(8.5, 1, 0, 0, 1)


def test_reversal_without_concrete_neighbors_goes_null():
    s = _state(1, 9, {2: Height.null(2)}, own=Height(3.0, 7, 0, -1, 1))
    assert maintenance_case(s, Trigger.UPD_REVERSAL, now=8.5) == Height.null(1)


def test_precondition_rejects_surviving_downstream():
    s = _state(1, 9, {9: Height.zero(9)}, own=Height(0.0, 0, 0, 1, 1))
    with pytest.raises(ValueError):
        maintenance_case(s, Trigger.LINK_FAILURE, now=1.0)


def _build_reversal_state(rng, levels_equal, r, oid_is_self, me=1):
    """Neighbor configuration realizing the requested selector bits,
    arranged so the node has no downstream link."""
    oid = me if oid_is_self else me + 50
    base = (100.0, oid, r)
    mirrors = {}
    n = rng.randint(2, 5)
    for idx in range(n):
        j = 10 + idx
        if levels_equal or idx > 0:
            lvl = base
        else:
            lvl = (100.0, oid, 0) if r == 1 else (90.0, oid, r)
        mirrors[j] = Height(lvl[0], lvl[1], lvl[2], rng.randint(0, 5), j)
    # own height sits below every mirror so no downstream link exists
    return _state(me, 999, mirrors, own=Height(0.0, 0, 0, 1, me))


@pytest.mark.parametrize("levels_equal", [False, True])
@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("oid_is_self", [False, True])
def test_decision_table_exhaustive(levels_equal, r, oid_is_self):
    rng = random.Random(1000 + levels_equal * 4 + r * 2 + oid_is_self)
    s = _build_reversal_state(rng, levels_equal, r, oid_is_self)
    out = maintenance_case(s, Trigger.UPD_REVERSAL, now=200.0)
    # mixed levels propagate whatever the other bits say
    assert out == maintenance_oracle(s, Trigger.UPD_REVERSAL, 200.0, levels_equal, r, oid_is_self)


def test_decision_table_randomized():
    rng = random.Random(77)
    for _ in range(500):
        trigger = rng.choice([Trigger.LINK_FAILURE, Trigger.UPD_REVERSAL])
        levels_equal = rng.random() < 0.5
        r = rng.randint(0, 1)
        oid_is_self = rng.random() < 0.5
        s = _build_reversal_state(rng, levels_equal, r, oid_is_self)
        out = maintenance_case(s, trigger, now=200.0)
        assert out == maintenance_oracle(s, trigger, 200.0, levels_equal, r, oid_is_self)


def test_new_height_never_collides_with_neighbors():
    rng = random.Random(5)
    for _ in range(300):
        trigger = rng.choice([Trigger.LINK_FAILURE, Trigger.UPD_REVERSAL])
        s = _build_reversal_state(
            rng, rng.random() < 0.5, rng.randint(0, 1), rng.random() < 0.5
        )
        out = maintenance_case(s, trigger, now=300.0)
        if out is None or out.is_null:
            continue
        for mirror in s.links.values():
            assert out != mirror


# ---------------------------------------------------------------------------
# route erasure


def test_clr_matching_level_asks_for_erasure():
    # the caller erases, through the same path as the partition detector
    mirrors = {2: Height(3.0, 5, 1, 0, 2), 3: Height(0.0, 0, 0, 4, 3)}
    s = _state(1, 9, mirrors, own=Height(3.0, 5, 1, -1, 1))
    erase, affected = apply_clr(s, (3.0, 5, 1))
    assert erase
    assert affected == []
    assert s.own_height == Height(3.0, 5, 1, -1, 1)
    assert s.links == mirrors


def test_clr_nonmatching_level_resets_shared_mirrors_only():
    s = _state(1, 9, {
        2: Height(3.0, 5, 1, 0, 2),
        3: Height(0.0, 0, 0, 4, 3),
    }, own=Height(5.0, 6, 0, 0, 1))
    erase, affected = apply_clr(s, (3.0, 5, 1))
    assert not erase
    assert affected == [2]
    assert s.own_height == Height(5.0, 6, 0, 0, 1)
    assert s.links[2].is_null
    assert s.links[3] == Height(0.0, 0, 0, 4, 3)


def test_clr_keeps_destination_mirror_zero():
    s = _state(1, 9, {
        9: Height.zero(9),
        2: Height(3.0, 5, 1, 0, 2),
    }, own=Height(5.0, 6, 0, 0, 1))
    # a clear never matches the destination's unreflected zero level
    assert apply_clr(s, (3.0, 5, 1)) == (False, [2])
    assert s.links[9] == Height.zero(9)
    # the erasure a matching clear asks for: NULL height, mirrors reset
    s.set_mirror(2, Height(3.0, 5, 1, 0, 2))
    s.set_own_height(Height(3.0, 5, 1, -1, 1))
    assert apply_clr(s, (3.0, 5, 1)) == (True, [])
    s.set_own_height(Height.null(1))
    s.reset_mirrors()
    assert s.links == {9: Height.zero(9), 2: Height.null(2)}
    # after a full reset every link is undirected or points at the destination
    for j, mirror in s.links.items():
        direction = link_direction(s.own_height, mirror)
        assert direction in ("un", "dn")
        if direction == "dn":
            assert j == 9
