"""Metric-space voting over slot vectors.

A slot vector holds one entry per voter, in voter-id order: the value that
voter contributed, or None for an invalid slot (`Slots`).  All algorithms
see the full vector and a distance function on values.  Majority counts
classes against the total slot count, so invalid slots weigh against
reaching a majority; the other algorithms operate on the valid slots only.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .core import AlgorithmId, ErrorCode, VoteKind, VoteOutcome, VoteValue

# Voting assumes d(a, a) == 0 and d(a, b) == d(b, a): it measures each
# unordered pair once and never a value against itself.  `default_metric`
# meets both exactly, and d(a, b) == 0 only if a == b (equal bytes and flag);
# `euclidean_metric` meets both on values without inf or NaN, and a value
# with no numeric view is 0 from an equal value and +inf from any other.
# A metric must also be pure: the same values give the same distance (or
# the same exception), with no side effects.  The voters of a farm share
# one outcome per distinct slot vector, which is sound only under this.
Metric = Callable[[VoteValue, VoteValue], float]

# One entry per voter in voter-id order; None marks an invalid slot.
Slots = Sequence[VoteValue | None]


def default_metric(a: VoteValue, b: VoteValue) -> float:
    """Discrete distance: 0 if the values are equal in bytes and flag, else 1."""
    return 0.0 if a.data == b.data and a.numeric == b.numeric else 1.0


def euclidean_metric(a: VoteValue, b: VoteValue) -> float:
    """Euclidean distance between the numeric views of two values, +inf
    between different dimensions; a value with no numeric view is 0 from
    an equal value and +inf from any other."""
    try:
        return math.dist(a.floats(), b.floats())
    except ValueError:  # no numeric view, or points of two dimensions
        return 0.0 if a == b else math.inf


_METRICS: dict[str, Metric] = {
    "default": default_metric,
    "euclidean": euclidean_metric,
}


def register_metric(name: str, fn: Metric) -> None:
    """Make `fn` resolvable by `name`.  Voting assumes d(a, a) == 0,
    d(a, b) == d(b, a), and purity (same values, same distance, no side
    effects) of it (see `Metric`)."""
    _METRICS[name] = fn


def resolve_metric(metric: Metric | str | None) -> tuple[Metric, str | None]:
    """Accept a metric callable, a registered name, or None (the default);
    return the callable together with its name, which is None for a
    callable."""
    if metric is None:
        return default_metric, "default"
    if isinstance(metric, str):
        try:
            return _METRICS[metric], metric
        except KeyError:
            raise KeyError(f"unknown metric {metric!r}") from None
    return metric, None


def cluster(
    slots: Slots, epsilon: float, metric: Metric
) -> tuple[tuple[int, ...], ...]:
    """Leader-scan clustering of the valid slots into tuples of slot
    indices, leader first.

    Scanning in slot order, each value joins the first existing class whose
    leader is within epsilon; otherwise it leads a new class.  Invalid slots
    belong to no class.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    classes: list[list[int]] = []
    for i, value in enumerate(slots):
        if value is None:
            continue
        for members in classes:
            if metric(value, slots[members[0]]) <= epsilon:
                members.append(i)
                break
        else:
            classes.append([i])
    return tuple(map(tuple, classes))


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


def _representative(
    slots: Slots, members: tuple[int, ...], metric: Metric
) -> VoteValue:
    """The class member's value minimizing total distance to the other
    members; ties go to the lowest slot index.  A class whose members all
    equal its leader is its own representative: under the `Metric` axioms
    every total is the same (0, or NaN), so the leader wins and nothing is
    measured."""
    values = [slots[i] for i in members]
    # count() passes the leader by identity: only the later members are compared
    if values.count(values[0]) == len(values):
        return values[0]
    totals = _distance_totals(values, metric)
    # min() replaces its pick only on a strict `<`: the lowest index wins a
    # tie, and a NaN first total is never displaced.
    return slots[members[min(range(len(totals)), key=totals.__getitem__)]]


def vote_majority(slots: Slots, epsilon: float, metric: Metric) -> VoteOutcome:
    """Strict majority over all N slots: a class must hold more than N/2
    members.  Invalid slots count toward N, never toward a class."""
    n = len(slots)
    for members in cluster(slots, epsilon, metric):
        if len(members) * 2 > n:
            return VoteOutcome(value=_representative(slots, members, metric))
    return VoteOutcome(failure=ErrorCode.NO_MAJORITY)


def _nan_far(d: float) -> float:
    return math.inf if d != d else d


def vote_median(slots: Slots, metric: Metric) -> VoteOutcome:
    """Generalized median: repeatedly discard the two remaining values at
    maximum pairwise distance (ties: lexicographically smallest index pair)
    until one or two remain; of two, the lower slot index wins."""
    values = [v for v in slots if v is not None]
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


def vote_plurality(slots: Slots, epsilon: float, metric: Metric) -> VoteOutcome:
    """Largest class wins; ties between classes go to the lowest leader
    slot index (the scan order makes that the earliest-formed class)."""
    classes = cluster(slots, epsilon, metric)
    if not classes:
        return VoteOutcome(failure=ErrorCode.BAD_STATE)
    # max() keeps the first of equally large classes
    best = max(classes, key=len)
    return VoteOutcome(value=_representative(slots, best, metric))


def vote_weighted_average(
    slots: Slots, scaling_factor: float, metric: Metric
) -> VoteOutcome:
    """Distance-damped average of the numeric views.

    Each finite valid slot gets raw weight 1 / (1 + s * sum of its distances
    to the others); invalid slots and those with a NaN or infinite component
    get exactly zero, unmeasured.  Weights are normalized to sum to one, so
    s = 0 degenerates to the arithmetic mean of the finite values.
    """
    values = [v for v in slots if v is not None]
    if not values or not all(v.numeric for v in values):
        return VoteOutcome(failure=ErrorCode.BAD_STATE)
    dim = values[0].dimension
    if any(v.dimension != dim for v in values):
        return VoteOutcome(failure=ErrorCode.BAD_STATE)
    values = [v for v in values if all(map(math.isfinite, v.floats()))]  # none left: z = 0

    raw = [1.0 / (1.0 + scaling_factor * t) for t in _distance_totals(values, metric)]
    z = sum(raw)
    if not (z > 0.0) or math.isinf(z) or math.isnan(z):
        return VoteOutcome(failure=ErrorCode.BAD_STATE)
    out = [0.0] * dim
    for r, value in zip(raw, values):
        weight = r / z
        comps = value.floats()
        for c in range(dim):
            out[c] += weight * comps[c]
    return VoteOutcome(value=VoteValue.from_floats(out))


def vote(algorithm: AlgorithmId, slots: Slots, metric: Metric) -> VoteOutcome:
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
