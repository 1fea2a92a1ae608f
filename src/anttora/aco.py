"""Pheromone arithmetic and QoS path scoring.

A discovered path is summarized by five aggregated quantities (delay,
bandwidth, residual energy, drain rate, hop count). Replies deposit
pheromone on the link they arrived over, scaled by path quality; pheromone
decays both at update time (persistence factor) and on a periodic
evaporation timer. Next-hop choice ranks candidates by a normalized product
of pheromone and the path metrics; ``path_preference`` floors the drain rate
at ``DRAIN_FLOOR``, so a path over nodes that have spent nothing scores finitely.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

NORMAL_FLOOR = 1e-6
DRAIN_FLOOR = 1e-12  # keeps reciprocal drain finite before any energy is spent


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


class _PathMetricsFields(NamedTuple):
    delay: float
    bandwidth: float
    energy: float
    drain_rate: float
    hop_count: int


class PathMetrics(_PathMetricsFields):
    """Aggregated QoS quantities of one path between distinct endpoints.

    delay sums link transmission+propagation and node processing delays;
    bandwidth is the minimum over links; energy the minimum residual over
    nodes; drain_rate the maximum dissipation rate over nodes; hop_count
    counts the nodes in the path, endpoints included. A tuple, checked when
    built.
    """

    __slots__ = ()

    def __new__(
        cls, delay: float, bandwidth: float, energy: float, drain_rate: float, hop_count: int
    ) -> "PathMetrics":
        finite = math.isfinite
        if not (finite(delay) and finite(bandwidth) and finite(energy) and finite(drain_rate)):
            values = (delay, bandwidth, energy, drain_rate)
            for name, value in zip(("delay", "bandwidth", "energy", "drain_rate"), values):
                _require_finite(name, value)
        if delay <= 0:
            raise ValueError(f"delay must be positive, got {delay}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if energy < 0:
            raise ValueError(f"energy must be nonnegative, got {energy}")
        if drain_rate < 0:
            raise ValueError(f"drain_rate must be nonnegative, got {drain_rate}")
        if hop_count < 2:
            raise ValueError(f"a path joins at least 2 nodes, got {hop_count}")
        return tuple.__new__(cls, (delay, bandwidth, energy, drain_rate, hop_count))


class _DepositWeightsFields(NamedTuple):
    bandwidth: float = 1.0
    energy: float = 1.0
    delay: float = 1.0
    hop_count: float = 1.0
    drain_rate: float = 1.0


class DepositWeights(_DepositWeightsFields):
    """Exponents weighting each metric in the pheromone deposit ratio. A
    tuple, checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "DepositWeights":
        self = super().__new__(cls, *args, **kwargs)
        for name, v in zip(self._fields, self):
            _require_finite(name, v)
            if v < 0:
                raise ValueError(f"deposit weight {name} must be >= 0, got {v}")
        return self


class _PreferenceWeightsFields(NamedTuple):
    pheromone: float = 1.0
    delay: float = 1.0
    hop_count: float = 1.0
    bandwidth: float = 1.0
    energy: float = 1.0
    drain_rate: float = 1.0
    persistence: float = 0.7
    decay: float = 0.1


class PreferenceWeights(_PreferenceWeightsFields):
    """Exponents for next-hop preference, plus the two decay factors. A
    tuple, checked when built.

    ``persistence`` scales old pheromone at deposit time (in (0, 1));
    ``decay`` is the fraction evaporated on each evaporation tick (in
    (0, 1]).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PreferenceWeights":
        self = super().__new__(cls, *args, **kwargs)
        for name in ("pheromone", "delay", "hop_count", "bandwidth", "energy", "drain_rate"):
            v = getattr(self, name)
            _require_finite(name, v)
            if v < 0:
                raise ValueError(f"preference weight {name} must be >= 0, got {v}")
        if not 0.0 < self.persistence < 1.0:
            raise ValueError(f"persistence must be in (0, 1), got {self.persistence}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        return self


class _NormalizationBoundsFields(NamedTuple):
    delay: tuple[float, float] = (1e-4, 1.0)
    bandwidth: tuple[float, float] = (1e3, 1e7)
    energy: tuple[float, float] = (1e-3, 100.0)
    drain_rate: tuple[float, float] = (1e-6, 1.0)
    hop_count: tuple[float, float] = (2.0, 32.0)


class NormalizationBounds(_NormalizationBoundsFields):
    """Per-scenario reference ranges mapping raw metrics into [floor, 1]. A
    tuple, checked when built.

    The deposit ratio mixes quantities of different units; each metric is
    min-max scaled against these bounds (and clamped) before entering it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "NormalizationBounds":
        self = super().__new__(cls, *args, **kwargs)
        for name, (lo, hi) in zip(self._fields, self):
            _require_finite(name, lo)
            _require_finite(name, hi)
            if not lo < hi:
                raise ValueError(f"bounds for {name} need lo < hi, got ({lo}, {hi})")
        return self


def normalize(value: float, lo: float, hi: float, floor: float = NORMAL_FLOOR) -> float:
    """Min-max scale ``value`` into [floor, 1], clamping outside [lo, hi]."""
    x = (value - lo) / (hi - lo)
    x = min(1.0, max(0.0, x))
    return floor + (1.0 - floor) * x


def deposit_ratio(
    bandwidth: float,
    energy: float,
    delay: float,
    hop_count: float,
    drain_rate: float,
    w: DepositWeights,
) -> float:
    """Quality ratio rewarding bandwidth and energy, punishing the rest.

    All five inputs are expected to be dimensionless (already normalized).
    """
    num = bandwidth**w.bandwidth + energy**w.energy
    den = delay**w.delay + hop_count**w.hop_count + drain_rate**w.drain_rate
    if den <= 0.0:
        raise ValueError("deposit denominator must be positive")
    return num / den


def pheromone_deposit(m: PathMetrics, w: DepositWeights, bounds: NormalizationBounds) -> float:
    """Pheromone quantity earned by a discovered path of quality ``m``: each
    metric scaled as ``normalize`` scales it, then ``deposit_ratio``."""
    span = 1.0 - NORMAL_FLOOR
    scaled = []
    # PathMetrics and NormalizationBounds name the five metrics in one order
    for value, (lo, hi) in zip(m, bounds):
        x = (value - lo) / (hi - lo)
        # where normalize's max(0.0, x) gives 0.0 for a -0.0, this keeps the
        # -0.0, and the sum with the floor comes out the same
        scaled.append(NORMAL_FLOOR + span * (0.0 if x < 0.0 else 1.0 if x > 1.0 else x))
    delay, bandwidth, energy, drain_rate, hop_count = scaled
    return deposit_ratio(bandwidth, energy, delay, hop_count, drain_rate, w)


def pheromone_update(tau: float, rho: float, delta_tau: float) -> float:
    """Reinforce a link: persistence-scaled old pheromone plus the deposit."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"persistence must be in (0, 1), got {rho}")
    if tau < 0 or delta_tau < 0:
        raise ValueError("pheromone and deposit must be nonnegative")
    return rho * tau + delta_tau


def evaporate(tau: float, q: float) -> float:
    """Periodic decay keeping stale links from dominating forever."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"decay must be in (0, 1], got {q}")
    if tau < 0:
        raise ValueError("pheromone must be nonnegative")
    return (1.0 - q) * tau


def path_preference(
    candidates: Sequence[tuple[float, PathMetrics]], w: PreferenceWeights
) -> list[float]:
    """Probability of choosing each candidate, given as the pheromone of its
    first link and its path metrics, in input order: proportional to a
    weighted product of pheromone, inverse delay, inverse hop count,
    bandwidth, energy, and inverse drain rate (floored at ``DRAIN_FLOOR``).

    Raises if every candidate's product is zero: no path is preferable and
    the caller should rediscover.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    products: list[float] = []
    for i, (tau, m) in enumerate(candidates):
        if tau <= 0 and w.pheromone != 0:
            raise ValueError(f"candidate {i} has no pheromone")
        products.append(
            tau**w.pheromone
            * (1.0 / m.delay) ** w.delay
            * (1.0 / m.hop_count) ** w.hop_count
            * m.bandwidth**w.bandwidth
            * m.energy**w.energy
            * (1.0 / max(m.drain_rate, DRAIN_FLOOR)) ** w.drain_rate
        )
    total = sum(products)
    if total <= 0.0:
        raise ValueError("no preferable path among candidates")
    return [p / total for p in products]
