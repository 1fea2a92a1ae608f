"""Link-reversal height algebra for destination-oriented routing.

Every node carries a five-part height (tau, oid, r, delta, node) that orders
it relative to one destination. Links point from the higher endpoint to the
lower one, the destination holds the all-zero height and is the unique sink
of the resulting DAG. A height may also be NULL, meaning the node holds no
route opinion yet; NULL orders above every concrete height so an
undiscovered node never attracts traffic.

Everything here is pure state algebra: one total order on heights
(``Height``'s own ``<``, ``>``, ``<=`` and ``>=``), the reaction a node runs
when it loses its last downstream link, which returns the node's next height
or None on a partition, and what a clear packet asks of a node. It decides;
only the agent changes a height, through ``NodeToraState.set_own_height``.
No I/O, no clocks, no RNG.

A ``Height`` is a tuple: its constructor checks it, its equality and hash
are the tuple's, and its order is TORA's, not the tuple's. On two concrete
heights the two agree, so the order compares the tuples themselves; it
differs only where a NULL height is involved.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Trigger(Enum):
    """Why a node lost its last downstream link: a plain link failure
    (TORA's case 1) or a neighbor's reversal (cases 2-5)."""

    LINK_FAILURE = "link_failure"
    UPD_REVERSAL = "upd_reversal"


class _HeightFields(NamedTuple):
    tau: float | None
    oid: int | None
    r: int | None
    delta: int | None
    node: int


# the tuple's own constructor and order, which skip Height's
_tuple_new = tuple.__new__
_tuple_lt = tuple.__lt__


class Height(_HeightFields):
    """Ordering tag of one node relative to one destination.

    Either all of (tau, oid, r, delta) are None (a NULL height) or none are.
    The (tau, oid, r) prefix is the reference level; (delta, node) orders
    nodes within a level. ``node`` is always the owning node's id.
    """

    __slots__ = ()

    def __new__(
        cls, tau: float | None, oid: int | None, r: int | None, delta: int | None, node: int
    ) -> "Height":
        self = _tuple_new(cls, (tau, oid, r, delta, node))
        missing = (tau is None) + (oid is None) + (r is None) + (delta is None)
        if missing not in (0, 4):
            raise ValueError(f"height must be fully NULL or fully set: {self!r}")
        if r is not None and r not in (0, 1):
            raise ValueError(f"reflection bit must be 0 or 1, got {r!r}")
        return self

    @classmethod
    def null(cls, node: int) -> "Height":
        return cls(None, None, None, None, node)

    @classmethod
    def zero(cls, node: int) -> "Height":
        return cls(0.0, 0, 0, 0, node)

    @property
    def is_null(self) -> bool:
        return self.tau is None

    @property
    def level(self) -> tuple[float, int, int] | None:
        """Reference level (tau, oid, r), or None for a NULL height."""
        if self.is_null:
            return None
        return (self.tau, self.oid, self.r)

    def __lt__(self, other: "Height") -> bool:
        """The total order: concrete heights compare on (tau, oid, r, delta,
        node); a NULL height is above every concrete one and all NULL
        heights tie regardless of owner."""
        if self.tau is None:
            return False
        return other.tau is None or _tuple_lt(self, other)

    def __gt__(self, other: "Height") -> bool:
        return other < self

    def __le__(self, other: "Height") -> bool:
        return not other < self

    def __ge__(self, other: "Height") -> bool:
        return not self < other


class NodeToraState:
    """One node's routing state toward one destination. ``links`` maps each
    neighbor to the last height heard from it; a link's direction follows
    from that mirror and ``own_height``, written only by ``set_own_height``
    once built. A held route request is the agent's record, not kept here."""

    __slots__ = ("node", "destination", "links", "own_height")

    def __init__(self, node: int, destination: int) -> None:
        self.node = node
        self.destination = destination
        self.links: dict[int, Height] = {}
        self.own_height = self.initial_height(node)

    def initial_height(self, node: int) -> Height:
        """Zero for the destination, NULL for every other node."""
        return Height.zero(node) if node == self.destination else Height.null(node)

    def add_link(self, neighbor: int) -> None:
        self.links[neighbor] = self.initial_height(neighbor)

    def remove_link(self, neighbor: int) -> None:
        del self.links[neighbor]

    def set_mirror(self, neighbor: int, height: Height) -> None:
        self.links[neighbor] = height

    def reset_mirrors(self) -> None:
        """Mirror every neighbor's initial height again."""
        for j in self.links:
            self.links[j] = self.initial_height(j)

    def set_own_height(self, height: Height) -> None:
        if self.node == self.destination and height != Height.zero(self.node):
            raise ValueError("the destination's height is immutable")
        self.own_height = height

    def concrete_mirrors(self) -> list[Height]:
        return [h for _, h in sorted(self.links.items()) if not h.is_null]


def has_downstream(state: NodeToraState) -> bool:
    """True iff some concrete-height neighbor sits strictly below the node
    (a NULL mirror is never below anything)."""
    own = state.own_height
    if own.tau is None:  # every concrete mirror is below a NULL height
        return any(h.tau is not None for h in state.links.values())
    # two concrete heights order as their tuples do
    return any(h.tau is not None and _tuple_lt(h, own) for h in state.links.values())


def new_height_on_reply(neighbor_heights: set[Height] | list[Height], own_id: int) -> Height:
    """Height adopted when joining the DAG: just above the lowest neighbor.

    Carries the reference level of the minimum concrete neighbor height and
    orders one delta step above it; the fifth component is the adopting
    node's own id.
    """
    concrete = [h for h in neighbor_heights if not h.is_null]
    if not concrete:
        raise ValueError("cannot adopt a height from all-NULL neighbors")
    low = min(concrete)
    return Height(low.tau, low.oid, low.r, low.delta + 1, own_id)


def maintenance_case(state: NodeToraState, trigger: Trigger, now: float) -> Height | None:
    """The next height of a node with no remaining downstream link, or None
    when the destination is unreachable (partition: erase routes).

    Callers invoke this exactly when the node has just lost its last
    downstream link (the failed link already removed from ``state``); the
    node's own height is not yet modified. The node announces a concrete
    result with an UPD and a NULL one with nothing. Cases, in order:

    * a plain link failure defines a fresh reference level, or goes NULL
      when nobody upstream would hear about it;
    * mixed neighbor reference levels propagate the highest one, ordering
      just below its lowest member;
    * a uniform unreflected level is reflected back with the r bit set;
    * a uniform reflected level that this node itself originated means the
      destination is unreachable: None;
    * a uniform reflected level someone else originated starts a fresh
      level here, with no further network-wide reaction implied.
    """
    if has_downstream(state):
        raise ValueError("maintenance invoked while a downstream link exists")
    me, own = state.node, state.own_height
    mirrors = state.concrete_mirrors()
    fresh = Height(now, me, 0, 0, me)
    if trigger is Trigger.LINK_FAILURE or not mirrors:
        # a reversal with no concrete neighbor left counts as a fresh failure
        return fresh if any(own < h for h in mirrors) else Height.null(me)

    levels = {h.level for h in mirrors}
    if len(levels) > 1:
        top = max(levels)
        floor = min(h.delta for h in mirrors if h.level == top)
        return Height(*top, floor - 1, me)

    (tau, oid, r) = levels.pop()
    if r == 0:
        return Height(tau, oid, 1, 0, me)
    if oid == me:
        return None
    return fresh


def apply_clr(state: NodeToraState, level: tuple[float, int, int]) -> tuple[bool, list[int]]:
    """What a clear carrying the reflected reference ``level`` does at ``state``.

    A node whose own level matches (never the destination, whose zero level
    is unreflected) must erase its routes and rebroadcast, as the partition
    detector does: (True, []), ``state`` untouched. Otherwise the mirrors
    at ``level`` go NULL: (False, those neighbors in id order).
    """
    if state.own_height.level == level:
        return True, []
    affected = [j for j, mirror in sorted(state.links.items()) if mirror.level == level]
    for j in affected:
        state.set_mirror(j, Height.null(j))
    return False, affected
