"""Metric-space voting over slot vectors.

All algorithms see the full slot vector (valid and invalid entries) and a
distance function on values.  Majority counts classes against the total
slot count, so invalid slots weigh against reaching a majority; the other
algorithms operate on the valid slots only.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .core import (
    AlgorithmId,
    EqClass,
    ErrorCode,
    ValueSlot,
    VoteKind,
    VoteOutcome,
    VoteValue,
)

# Voting assumes d(a, a) == 0 and d(a, b) == d(b, a): it measures each
# unordered pair once and never a value against itself.  `default_metric`
# meets both exactly, `euclidean_metric` on values without inf or NaN.
# A metric must also be pure: the same values give the same distance (or
# the same exception), with no side effects.  The voters of a farm share
# one outcome per distinct slot vector, which is sound only under this.
Metric = Callable[[VoteValue, VoteValue], float]


def default_metric(a: VoteValue, b: VoteValue) -> float:
    """Discrete distance: 0 if the byte sequences are identical, else 1."""
    return 0.0 if a.data == b.data else 1.0


def euclidean_metric(a: VoteValue, b: VoteValue) -> float:
    """Euclidean distance between the numeric views of two values; a
    dimension mismatch raises ValueError."""
    return math.dist(a.floats(), b.floats())


_METRICS: dict[str, Metric] = {
    "default": default_metric,
    "euclidean": euclidean_metric,
}


def register_metric(name: str, fn: Metric) -> None:
    """Make `fn` resolvable by `name`.  Voting assumes d(a, a) == 0,
    d(a, b) == d(b, a), and purity (same values, same distance, no side
    effects) of it (see `Metric`)."""
    _METRICS[name] = fn


def resolve_metric(metric: Metric | str | None) -> tuple[Metric, str]:
    """Accept a metric callable, a registered name, or None (the default);
    return the callable together with a stable identifier."""
    if metric is None:
        return default_metric, "default"
    if isinstance(metric, str):
        try:
            return _METRICS[metric], metric
        except KeyError:
            raise KeyError(f"unknown metric {metric!r}") from None
    for name, fn in _METRICS.items():
        if fn is metric:
            return metric, name
    return metric, f"fn:{getattr(metric, '__qualname__', repr(metric))}"


def cluster(
    slots: Sequence[ValueSlot], epsilon: float, metric: Metric
) -> tuple[EqClass, ...]:
    """Leader-scan clustering of the valid slots.

    Scanning in slot order, each value joins the first existing class whose
    leader is within epsilon; otherwise it leads a new class.  Invalid slots
    belong to no class.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    leaders: list[int] = []
    members: list[list[int]] = []
    for i, slot in enumerate(slots):
        if not slot.valid:
            continue
        for k, leader in enumerate(leaders):
            if metric(slot.value, slots[leader].value) <= epsilon:
                members[k].append(i)
                break
        else:
            leaders.append(i)
            members.append([i])
    return tuple(EqClass(l, tuple(m)) for l, m in zip(leaders, members))


def _distance_totals(values: Sequence[VoteValue], metric: Metric) -> list[float]:
    """Each value's summed distance to the others, measuring each unordered
    pair once.  Every total takes its terms in ascending index order, as a
    scan of its row of the distance matrix would."""
    totals = [0.0] * len(values)
    for a, va in enumerate(values):
        for b in range(a + 1, len(values)):
            d = metric(va, values[b])
            totals[a] += d
            totals[b] += d
    return totals


def _representative(slots: Sequence[ValueSlot], cls: EqClass, metric: Metric) -> int:
    """Class member minimizing total distance to the other members; ties go
    to the lowest slot index."""
    totals = _distance_totals([slots[i].value for i in cls.members], metric)
    # min() replaces its pick only on a strict `<`: the lowest index wins a
    # tie, and a NaN first total is never displaced.
    return cls.members[min(range(len(totals)), key=totals.__getitem__)]


def vote_majority(
    slots: Sequence[ValueSlot], epsilon: float, metric: Metric
) -> VoteOutcome:
    """Strict majority over all N slots: a class must hold more than N/2
    members.  Invalid slots count toward N, never toward a class."""
    n = len(slots)
    for cls in cluster(slots, epsilon, metric):
        if len(cls.members) * 2 > n:
            rep = _representative(slots, cls, metric)
            return VoteOutcome(value=slots[rep].value)
    return VoteOutcome(failure=ErrorCode.NO_MAJORITY)


def _nan_far(d: float) -> float:
    return math.inf if d != d else d


def vote_median(slots: Sequence[ValueSlot], metric: Metric) -> VoteOutcome:
    """Generalized median: repeatedly discard the two remaining values at
    maximum pairwise distance (ties: lexicographically smallest index pair)
    until one or two remain; of two, the lower slot index wins."""
    values = [s.value for s in slots if s.valid]
    if not values:
        return VoteOutcome(failure=ErrorCode.BAD_STATE)
    if len(values) <= 2:
        return VoteOutcome(value=values[0])
    # Every pair is measured once, up front, in row order, and sorted
    # farthest first, ties by index pair.  A NaN distance ranks as +inf, so
    # a faulty value is far from every other.  Each discard takes the first
    # pair whose ends are both left: that is the farthest remaining pair.
    pairs = sorted(
        (-_nan_far(metric(va, values[b])), a, b)
        for a, va in enumerate(values)
        for b in range(a + 1, len(values))
    )
    left = [True] * len(values)
    count = len(values)
    for _, a, b in pairs:
        if count <= 2:
            break
        if left[a] and left[b]:
            left[a] = left[b] = False
            count -= 2
    return VoteOutcome(value=values[left.index(True)])


def vote_plurality(
    slots: Sequence[ValueSlot], epsilon: float, metric: Metric
) -> VoteOutcome:
    """Largest class wins; ties between classes go to the lowest leader
    slot index (the scan order makes that the earliest-formed class)."""
    classes = cluster(slots, epsilon, metric)
    if not classes:
        return VoteOutcome(failure=ErrorCode.BAD_STATE)
    best = classes[0]
    for cls in classes[1:]:
        if len(cls.members) > len(best.members):
            best = cls
    rep = _representative(slots, best, metric)
    return VoteOutcome(value=slots[rep].value)


def vote_weighted_average(
    slots: Sequence[ValueSlot], scaling_factor: float, metric: Metric
) -> VoteOutcome:
    """Distance-damped average of the numeric views.

    Each valid slot gets raw weight 1 / (1 + s * sum of its distances to the
    other valid slots); invalid slots get exactly zero.  Weights are
    normalized to sum to one, so s = 0 degenerates to the arithmetic mean.
    """
    valid = [i for i, s in enumerate(slots) if s.valid]
    if not valid:
        return VoteOutcome(failure=ErrorCode.BAD_STATE)
    for i in valid:
        if not slots[i].value.numeric:
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
    dim = slots[valid[0]].value.dimension
    if any(slots[i].value.dimension != dim for i in valid):
        return VoteOutcome(failure=ErrorCode.BAD_STATE)

    raw = [0.0] * len(slots)
    totals = _distance_totals([slots[i].value for i in valid], metric)
    for i, total in zip(valid, totals):
        raw[i] = 1.0 / (1.0 + scaling_factor * total)
    z = sum(raw[i] for i in valid)
    if not (z > 0.0) or math.isinf(z) or math.isnan(z):
        return VoteOutcome(failure=ErrorCode.BAD_STATE)
    out = [0.0] * dim
    for i in valid:
        weight = raw[i] / z
        comps = slots[i].value.floats()
        for c in range(dim):
            out[c] += weight * comps[c]
    return VoteOutcome(value=VoteValue.from_floats(out))


def vote(
    algorithm: AlgorithmId, slots: Sequence[ValueSlot], metric: Metric
) -> VoteOutcome:
    """Dispatch to the algorithm named by the AlgorithmId."""
    if algorithm.kind == VoteKind.MAJORITY:
        return vote_majority(slots, algorithm.epsilon, metric)
    if algorithm.kind == VoteKind.MEDIAN:
        return vote_median(slots, metric)
    if algorithm.kind == VoteKind.PLURALITY:
        return vote_plurality(slots, algorithm.epsilon, metric)
    if algorithm.kind == VoteKind.WEIGHTED_AVERAGE:
        return vote_weighted_average(slots, algorithm.scaling_factor, metric)
    return VoteOutcome(failure=ErrorCode.BAD_STATE)
