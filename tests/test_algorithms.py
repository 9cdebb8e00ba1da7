"""Voting algorithms against frozen examples and their invariants."""

import itertools
import math
import random
import struct

import pytest
from hypothesis import given, strategies as st

from votefarm.core import AlgorithmId, ErrorCode, VoteKind, VoteValue
from votefarm.harness import oracle_vote
from votefarm.voting import (
    cluster,
    default_metric,
    euclidean_metric,
    register_metric,
    resolve_metric,
    vote,
    vote_majority,
    vote_median,
    vote_plurality,
    vote_weighted_average,
)


def slots(*xs):
    """Floats become valid slots, None an invalid one."""
    return tuple(None if x is None else VoteValue.from_floats([float(x)]) for x in xs)


def first_float(outcome):
    assert outcome.ok
    return outcome.value.floats()[0]


# -- majority -------------------------------------------------------------------


def test_majority_two_of_three():
    assert first_float(vote_majority(slots(42, 42, 7), 0.0, euclidean_metric)) == 42.0


def test_majority_all_distinct_fails():
    out = vote_majority(slots(1, 2, 3), 0.0, euclidean_metric)
    assert out.failure == ErrorCode.NO_MAJORITY


def test_majority_is_strict():
    # two of four agreeing is not more than half
    out = vote_majority(slots(5, 5, 6, 7), 0.0, euclidean_metric)
    assert out.failure == ErrorCode.NO_MAJORITY


def test_majority_counts_invalid_slots_in_n():
    # 2 matching out of 4 slots, one invalid: still no strict majority
    out = vote_majority(slots(5, 5, 6, None), 0.0, euclidean_metric)
    assert out.failure == ErrorCode.NO_MAJORITY
    assert first_float(vote_majority(slots(5, 5, 5, None), 0.0, euclidean_metric)) == 5.0


def test_majority_epsilon_band():
    out = vote_majority(slots(1.0, 1.05, 2.0), 0.1, euclidean_metric)
    assert first_float(out) == 1.0  # representative ties go to the lower slot


# -- median ---------------------------------------------------------------------


def test_median_discards_extremes():
    assert first_float(vote_median(slots(1, 2, 10), euclidean_metric)) == 2.0


def test_median_tie_breaks_lexicographically():
    # pairs (1,3) and (2,3) are both at distance 4; (1,3) goes first
    assert first_float(vote_median(slots(5, 5, 9), euclidean_metric)) == 5.0


def test_median_single_value():
    assert first_float(vote_median(slots(3), euclidean_metric)) == 3.0


def test_median_two_left_takes_lower_index():
    assert first_float(vote_median(slots(8, 2), euclidean_metric)) == 8.0


def test_median_nothing_valid():
    out = vote_median(slots(None, None), euclidean_metric)
    assert out.failure == ErrorCode.BAD_STATE


NAN = float("nan")
INF = math.inf


@pytest.mark.parametrize(
    "xs, want",
    [
        ((1, 1, NAN), 1.0),
        ((1, NAN, 2), 2.0),
        ((NAN, 1, 2, 3), 2.0),
        ((1, NAN, NAN), None),  # no usable distance left: any pick will do
        ((NAN, NAN, NAN), None),
    ],
)
def test_median_ranks_a_nan_distance_farthest(xs, want):
    """A NaN distance counts as +inf (ties still to the smallest index
    pair), so a NaN value is discarded first and never crashes the vote;
    the oracle follows the same rule."""
    sv = slots(*xs)
    out = vote_median(sv, euclidean_metric)
    assert out.ok
    assert out == oracle_vote(VoteKind.MEDIAN, sv, metric="euclidean")
    if want is not None:
        assert first_float(out) == want


# -- plurality ------------------------------------------------------------------


def test_plurality_largest_class():
    assert first_float(vote_plurality(slots(1, 1, 2, 3), 0.0, euclidean_metric)) == 1.0


def test_plurality_tie_goes_to_earliest_class():
    assert first_float(vote_plurality(slots(2, 1, 1, 2, 3), 0.0, euclidean_metric)) == 2.0


def test_plurality_no_majority_needed():
    assert first_float(vote_plurality(slots(7, 8, 9), 0.0, euclidean_metric)) == 7.0


def test_plurality_nothing_valid():
    out = vote_plurality(slots(None, None, None), 0.0, euclidean_metric)
    assert out.failure == ErrorCode.BAD_STATE


# -- weighted average --------------------------------------------------------------


def test_weighted_average_frozen_example():
    # weights 1/10, 1/10, 1/19 normalize to 19/48, 19/48, 10/48: result 90/48
    out = vote_weighted_average(slots(0, 0, 9), 1.0, euclidean_metric)
    assert math.isclose(first_float(out), 1.875, rel_tol=0, abs_tol=1e-12)


def test_weighted_average_zero_scaling_is_mean():
    out = vote_weighted_average(slots(1, 2, 6), 0.0, euclidean_metric)
    assert math.isclose(first_float(out), 3.0, abs_tol=1e-12)


def test_weighted_average_invalid_slots_weigh_nothing():
    out = vote_weighted_average(slots(4, None, 8), 0.5, euclidean_metric)
    assert first_float(out) == 6.0  # symmetric pair, equal weights


def test_weighted_average_rejects_raw_bytes():
    raw = VoteValue.from_bytes(b"abc")
    out = vote_weighted_average((raw,), 1.0, default_metric)
    assert out.failure == ErrorCode.BAD_STATE


def test_weighted_average_rejects_mixed_dimensions():
    a = VoteValue.from_floats([1.0])
    b = VoteValue.from_floats([1.0, 2.0])
    out = vote_weighted_average((a, b), 1.0, euclidean_metric)
    assert out.failure == ErrorCode.BAD_STATE


def test_weighted_average_nothing_valid():
    out = vote_weighted_average(slots(None), 1.0, euclidean_metric)
    assert out.failure == ErrorCode.BAD_STATE


# -- clustering -----------------------------------------------------------------


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
slot_lists = st.lists(st.one_of(st.none(), finite), min_size=1, max_size=6).map(
    lambda xs: slots(*xs)
)


@given(slot_lists, st.floats(min_value=0, max_value=10))
def test_cluster_partitions_valid_slots(sv, eps):
    classes = cluster(sv, eps, euclidean_metric)
    seen = [i for c in classes for i in c]
    assert sorted(seen) == [i for i, s in enumerate(sv) if s is not None]
    for c in classes:
        assert c and list(c) == sorted(c)  # members in scan order, leader first
        for m in c:
            assert euclidean_metric(sv[m], sv[c[0]]) <= eps


@given(slot_lists, st.floats(min_value=0, max_value=10))
def test_cluster_leaders_break_new_ground(sv, eps):
    leaders = [c[0] for c in cluster(sv, eps, euclidean_metric)]
    for i, lead in enumerate(leaders):
        for earlier in leaders[:i]:
            assert euclidean_metric(sv[lead], sv[earlier]) > eps


@given(slot_lists)
def test_selective_algorithms_return_an_input(sv):
    valid_data = {s.data for s in sv if s is not None}
    for kind in (VoteKind.MAJORITY, VoteKind.MEDIAN, VoteKind.PLURALITY):
        out = vote(AlgorithmId(kind), sv, euclidean_metric)
        if out.ok:
            assert out.value.data in valid_data


@given(st.lists(finite, min_size=1, max_size=6))
def test_weighted_average_zero_scaling_matches_mean(xs):
    out = vote_weighted_average(slots(*xs), 0.0, euclidean_metric)
    mean = math.fsum(xs) / len(xs)
    assert math.isclose(first_float(out), mean, abs_tol=1e-9)


@given(st.lists(finite, min_size=1, max_size=6), st.floats(min_value=0, max_value=5))
def test_weighted_average_stays_in_hull(xs, scaling):
    out = vote_weighted_average(slots(*xs), scaling, euclidean_metric)
    got = first_float(out)
    assert min(xs) - 1e-9 <= got <= max(xs) + 1e-9


@given(st.lists(finite, min_size=1, max_size=6))
def test_unanimous_inputs_win_everywhere(xs):
    sv = slots(*([xs[0]] * len(xs)))
    for kind in VoteKind:
        out = vote(AlgorithmId(kind, 0.0, 1.0), sv, euclidean_metric)
        assert out.ok
        assert math.isclose(first_float(out), xs[0], rel_tol=1e-12, abs_tol=1e-12)


# -- metric registry ---------------------------------------------------------------


def test_default_metric_is_byte_equality():
    a = VoteValue.from_bytes(b"xy")
    b = VoteValue.from_bytes(b"xz")
    assert default_metric(a, a) == 0.0
    assert default_metric(a, b) == 1.0


def test_a_copy_with_a_flipped_flag_does_not_win():
    """The same bytes without the numeric flag are another value, at
    distance 1 under the default metric and its oracle, so the opaque copy
    in slot 1 neither joins nor leads the class of the two numeric ones."""
    numeric = VoteValue.from_floats([42.0])
    opaque = VoteValue.from_bytes(numeric.data)
    assert default_metric(numeric, opaque) == default_metric(opaque, numeric) == 1.0
    sv = (opaque, numeric, numeric)
    for kind, vote_fn in ((VoteKind.MAJORITY, vote_majority), (VoteKind.PLURALITY, vote_plurality)):
        out = vote_fn(sv, 0.0, default_metric)
        assert out.value is numeric
        assert out == oracle_vote(kind, sv, metric="default")


def test_euclidean_on_vectors():
    a = VoteValue.from_floats([0.0, 3.0])
    b = VoteValue.from_floats([4.0, 0.0])
    assert euclidean_metric(a, b) == 5.0


def test_a_huge_replica_neither_overflows_nor_wins():
    """A replica at 1e200 is far from the honest ones, but squaring the
    distance must not overflow into an exception."""
    sv = slots(42.0, 42.0, 1e200, 42.0, 42.0)
    assert first_float(vote_majority(sv, 0.0, euclidean_metric)) == 42.0
    assert first_float(vote_plurality(sv, 0.0, euclidean_metric)) == 42.0
    assert first_float(vote_median(sv, euclidean_metric)) == 42.0
    # values of different dimensions are infinitely far apart
    assert euclidean_metric(sv[0], VoteValue.from_floats([42.0, 42.0])) == math.inf


def test_resolve_metric_names():
    fn, name = resolve_metric("euclidean")
    assert name == "euclidean" and fn is euclidean_metric
    fn, name = resolve_metric(None)
    assert name == "default" and fn is default_metric
    with pytest.raises(KeyError):
        resolve_metric("no-such-metric")


def test_register_metric_roundtrip():
    def taxicab(a, b):
        return sum(abs(x - y) for x, y in zip(a.floats(), b.floats()))

    register_metric("taxicab-test", taxicab)
    fn, name = resolve_metric("taxicab-test")
    assert fn is taxicab and name == "taxicab-test"


# -- work counts: each unordered pair measured once ------------------------------


class CountingMetric:
    """A metric, euclidean_metric by default, that records the slot indices
    of every pair it is passed; `index` maps each payload object back to
    its slot."""

    def __init__(self, sv, metric=euclidean_metric):
        self.index = {id(s): i for i, s in enumerate(sv) if s is not None}
        self.pairs = []
        self.metric = metric

    def __call__(self, a, b):
        self.pairs.append((self.index[id(a)], self.index[id(b)]))
        return self.metric(a, b)

    def assert_each_pair_once(self, pairs):
        assert all(i != j for i, j in pairs)  # d(a, a) = 0 is never measured
        unordered = [frozenset(p) for p in pairs]
        assert len(set(unordered)) == len(unordered)


def spread_slots(n_valid, seed, invalid_every=4):
    """n_valid distinct valid slots with an invalid one after every few."""
    rng = random.Random(seed)
    xs = []
    for k in range(n_valid):
        if k and k % invalid_every == 0:
            xs.append(None)
        xs.append(rng.uniform(-100.0, 100.0))
    return slots(*xs)


@pytest.mark.parametrize("n", [3, 4, 7, 15, 31])
def test_median_measures_each_valid_pair_once(n):
    sv = spread_slots(n, seed=n)
    metric = CountingMetric(sv)
    assert vote_median(sv, metric).ok
    assert len(metric.pairs) == n * (n - 1) // 2
    metric.assert_each_pair_once(metric.pairs)


@pytest.mark.parametrize("n", [1, 2])
def test_median_of_two_or_fewer_measures_nothing(n):
    sv = spread_slots(n, seed=n)
    metric = CountingMetric(sv)
    assert vote_median(sv, metric).ok
    assert metric.pairs == []


@pytest.mark.parametrize("n", [1, 2, 5, 15, 31])
def test_weighted_average_measures_each_valid_pair_once(n):
    sv = spread_slots(n, seed=n)
    metric = CountingMetric(sv)
    assert vote_weighted_average(sv, 0.5, metric).ok
    assert len(metric.pairs) == n * (n - 1) // 2
    metric.assert_each_pair_once(metric.pairs)


@pytest.mark.parametrize("k", [1, 3, 7, 15, 31])
def test_unanimous_majority_work_count(k):
    sv = slots(*([42.0] * k))
    metric = CountingMetric(sv)
    out = vote_majority(sv, 0.0, metric)
    assert first_float(out) == 42.0 and out.value is sv[0]
    # the leader scan compares each later slot with the leader; a class of
    # equal values is its own representative, so nothing more is measured
    assert metric.pairs == [(i, 0) for i in range(1, k)]


ODD_ONE_OUT = [
    # an epsilon-neighbour of the other members
    (slots(42.0, 42.0, 42.5, 42.0, 42.0), 1.0, euclidean_metric),
    # the same bytes without the numeric flag: at distance 1, within epsilon 1
    ((*slots(42.0, 42.0), VoteValue(slots(42.0)[0].data)), 1.0, default_metric),
]


@pytest.mark.parametrize("sv,epsilon,base", ODD_ONE_OUT)
def test_a_class_with_one_unequal_member_measures_every_pair(sv, epsilon, base):
    """One member that differs from the leader, though within epsilon of
    it, makes the representative measure every pair of the class once."""
    k = len(sv)
    for vote_fn in (vote_majority, vote_plurality):
        metric = CountingMetric(sv, base)
        assert vote_fn(sv, epsilon, metric).value is sv[0]
        assert len(metric.pairs) == (k - 1) + k * (k - 1) // 2
        assert metric.pairs[: k - 1] == [(i, 0) for i in range(1, k)]
        metric.assert_each_pair_once(metric.pairs[k - 1 :])


NON_FINITE = [
    (NAN, NAN, NAN),
    (INF, INF, INF),
    (-INF, -INF, -INF, NAN),
    (NAN, INF, NAN, INF, NAN),
    (INF, -INF, INF, NAN, INF),
]


@pytest.mark.parametrize("xs", NON_FINITE)
@pytest.mark.parametrize("metric", ["default", "euclidean"])
@pytest.mark.parametrize("epsilon", [0.0, 1.0, INF])
def test_majority_and_plurality_over_non_finite_values_match_the_oracle(xs, metric, epsilon):
    """Every value NaN or inf.  Under value equality equal ones form a class
    whose leader wins; under euclidean every distance is NaN or inf, so two
    share a class only at an infinite epsilon.  Majority and plurality
    agree with the oracle."""
    sv = slots(*xs)
    fn, _ = resolve_metric(metric)
    want = oracle_vote(VoteKind.MAJORITY, sv, epsilon, metric=metric)
    assert vote_majority(sv, epsilon, fn) == want
    want = oracle_vote(VoteKind.PLURALITY, sv, epsilon, metric=metric)
    assert vote_plurality(sv, epsilon, fn) == want


MIXED_DIMENSIONS = (
    None,
    VoteValue.from_bytes(b"\x00"),
    *map(VoteValue.from_floats, ([0.0], [1.0], [0.0, 0.0], [1.0, 2.0])),
)


@pytest.mark.parametrize("n", range(1, 5))
def test_mixed_dimensions_vote_as_the_oracle_does(n):
    """Under euclidean, values of different dimensions are +inf apart, and
    so is a value with no numeric view from any other, as in the oracle,
    so every algorithm votes over them without raising."""
    for sv in itertools.product(MIXED_DIMENSIONS, repeat=n):
        for kind in VoteKind:
            for epsilon in (0.0, 1.5):
                want = oracle_vote(kind, sv, epsilon, metric="euclidean")
                assert vote(AlgorithmId(kind, epsilon), sv, euclidean_metric) == want, sv


NON_FINITE_COMPONENTS = (
    None,
    *map(VoteValue.from_floats, ([0.0, 1.0], [2.0, 3.0], [NAN, 1.0], [1.0, INF], [-INF, -INF])),
)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("metric", ["default", "euclidean"])
def test_weighted_average_leaves_non_finite_values_out_as_the_oracle_does(n, metric):
    """A valid slot with a NaN or infinite component weighs 0 and is not
    measured; with no slot left the vote is BAD_STATE.  The weighted
    average agrees with the oracle on every vector over the pool."""
    fn, _ = resolve_metric(metric)
    for sv in itertools.product(NON_FINITE_COMPONENTS, repeat=n):
        for scaling in (0.0, 1.0):
            want = oracle_vote(VoteKind.WEIGHTED_AVERAGE, sv, metric=metric, scaling=scaling)
            assert vote_weighted_average(sv, scaling, fn) == want, sv
            finite = [v for v in sv if v is not None and all(map(math.isfinite, v.floats()))]
            assert want.ok == bool(finite), sv


@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=4),
       st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=4))
def test_builtin_metrics_meet_the_axioms(xs, ys):
    """Voting relies on d(a, a) == 0 and d(a, b) == d(b, a), bit for bit."""
    ys = (ys * len(xs))[: len(xs)]
    a, b = VoteValue.from_floats(xs), VoteValue.from_floats(ys)
    for metric in (default_metric, euclidean_metric):
        try:
            ab = metric(a, b)
        except OverflowError:
            with pytest.raises(OverflowError):
                metric(b, a)
            continue
        assert struct.pack("<d", ab) == struct.pack("<d", metric(b, a))
        if all(math.isfinite(x) for x in xs):
            assert metric(a, a) == 0.0


@given(st.binary(min_size=1, max_size=16), st.binary(min_size=1, max_size=16))
def test_euclidean_puts_a_value_with_no_numeric_view_at_zero_or_inf(x, y):
    """An opaque value is 0 from an equal value and +inf from any other,
    numeric or opaque, in both orders."""
    a, b = VoteValue.from_bytes(x), VoteValue.from_bytes(y)
    for other in (b, VoteValue.from_floats([1.0]), VoteValue(x * 8, numeric=True)):
        want = 0.0 if a == other else math.inf
        assert euclidean_metric(a, other) == euclidean_metric(other, a) == want
    assert euclidean_metric(a, a) == euclidean_metric(a, VoteValue.from_bytes(x)) == 0.0


# -- exactness beyond the oracle's size limit ----------------------------------------


def reference_median(xs):
    """Slot index the median rule picks over scalars (None: invalid),
    written from its definition: discard the farthest-apart pair (ties:
    smallest index pair) until at most two remain; of two, the lower index."""
    left = [i for i, x in enumerate(xs) if x is not None]
    while len(left) > 2:
        best, pair = -1.0, None
        for a in range(len(left)):
            for b in range(a + 1, len(left)):
                d = math.sqrt((xs[left[a]] - xs[left[b]]) ** 2)
                if d > best:
                    best, pair = d, (left[a], left[b])
        left = [i for i in left if i not in pair]
    return left[0]


def reference_majority(sv, epsilon):
    """Slot index the majority rule picks, or None: first-fit classes by
    distance to the leader, a class of more than N/2 slots wins, and its
    representative minimizes the full row sum of the k x k distance matrix
    (ties: lowest slot index)."""
    classes = []
    for i, s in enumerate(sv):
        if s is None:
            continue
        for cls in classes:
            if euclidean_metric(s, sv[cls[0]]) <= epsilon:
                cls.append(i)
                break
        else:
            classes.append([i])
    for cls in classes:
        if 2 * len(cls) > len(sv):
            rows = [
                sum(euclidean_metric(sv[i], sv[j]) for j in cls) for i in cls
            ]
            best = 0
            for k in range(1, len(cls)):
                if rows[k] < rows[best]:
                    best = k
            return cls[best]
    return None


def reference_weights(sv, scaling):
    """Raw weight of each valid slot from a full row scan of the distance
    matrix: 1 / (1 + s * sum of its distances to the other valid slots)."""
    valid = [i for i, s in enumerate(sv) if s is not None]
    raw = {}
    for i in valid:
        total = 0.0
        for j in valid:
            if j != i:
                total += euclidean_metric(sv[i], sv[j])
        raw[i] = 1.0 / (1.0 + scaling * total)
    return raw


def noisy_replicas(n, seed):
    """n scalar replica values: an honest cluster near 42 on a coarse grid
    (so equal values and distance ties occur), a minority of far outliers
    and a few invalid slots."""
    rng = random.Random(f"noisy_replicas:{n}:{seed}")
    xs = [42.0 + rng.choice([-0.2, -0.1, 0.0, 0.0, 0.1, 0.3]) for _ in range(n)]
    for i in rng.sample(range(n), rng.randrange(n // 2)):
        roll = rng.random()
        if roll < 0.2:
            xs[i] = None
        elif roll < 0.6:
            xs[i] = rng.choice([-1.0, 1.0]) * rng.uniform(1e3, 1e6)
        else:
            xs[i] = 42.0 + rng.choice([-1.0, 1.0]) * rng.choice([0.5, 0.7, 2.0])
    return xs


EXACT_CASES = [(n, seed) for n in (15, 31) for seed in range(50)]


@pytest.mark.parametrize("n,seed", EXACT_CASES + [(63, seed) for seed in range(10)])
def test_median_matches_reference_beyond_oracle(n, seed):
    xs = noisy_replicas(n, seed)
    out = vote_median(slots(*xs), euclidean_metric)
    assert out.value.data == struct.pack("<d", xs[reference_median(xs)])


@pytest.mark.parametrize("n,seed", EXACT_CASES)
def test_majority_matches_reference_beyond_oracle(n, seed):
    xs = noisy_replicas(n, seed)
    sv = slots(*xs)
    for epsilon in (0.0, 0.1, 0.25, 0.5, 1.0):
        out = vote_majority(sv, epsilon, euclidean_metric)
        want = reference_majority(sv, epsilon)
        if want is None:
            assert out.failure == ErrorCode.NO_MAJORITY
        else:
            assert out.value is sv[want]


@pytest.mark.parametrize("n,seed", EXACT_CASES)
def test_weighted_average_matches_reference_beyond_oracle(n, seed):
    sv = slots(*noisy_replicas(n, seed))
    for scaling in (0.0, 0.01, 1.0):
        raw = reference_weights(sv, scaling)
        z = sum(raw.values())
        want = 0.0
        for i, w in raw.items():  # valid slots in slot order, as the voter sums
            want += w / z * sv[i].floats()[0]
        out = vote_weighted_average(sv, scaling, euclidean_metric)
        assert out.value.floats() == (want,)
