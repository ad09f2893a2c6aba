import random

import pytest

from zeckdual import (
    DigitRule,
    DigitVector,
    NotInSuperCollectionError,
    SubcollectionError,
    SystemPair,
    compare_ascending,
    is_member,
    is_subcollection,
    same_collection,
)

from conftest import PAIR_RULES


def test_subcollection_examples():
    assert not is_subcollection(DigitRule((1, 2, 1)), DigitRule((1, 3)))
    assert is_subcollection(DigitRule((2, 3, 1)), DigitRule((3, 2)))
    assert is_subcollection(DigitRule((3, 1, 2)), DigitRule((3, 2)))
    assert is_subcollection(DigitRule((1, 0)), DigitRule((1, 1)))
    # depth is configurable but the default already certifies the period
    assert is_subcollection(DigitRule((1, 0)), DigitRule((1, 1)), depth=40)


def test_same_collection():
    assert same_collection(DigitRule((1, 0)), DigitRule((1, 0, 1, 0)))
    assert same_collection(DigitRule((2, 3)), DigitRule((2, 3, 2, 3, 2, 3)))
    assert not same_collection(DigitRule((1, 0)), DigitRule((1, 1)))
    assert not same_collection(DigitRule((1, 0)), DigitRule((1, 0, 0)))


def test_pair_validation():
    with pytest.raises(SubcollectionError):
        SystemPair((1, 2, 1), (1, 3))
    with pytest.raises(SubcollectionError):
        SystemPair((1, 0), (1, 0, 1, 0))  # same collection, not a proper pair
    pair = SystemPair((1, 0), (1, 1))
    assert pair.sub.entries == (1, 0)
    assert pair.sup.entries == (1, 1)


def test_ceil_member_examples(pairs):
    binary = pairs["binary"]
    mu = DigitVector.from_dense([1, 1, 1, 0, 1, 0, 1])
    assert binary.ceil_member(mu) == DigitVector({8: 1})

    # members are their own ceiling
    m = DigitVector({2: 1, 7: 1})
    assert binary.ceil_member(m) == m

    # the classic index-set example: value agrees with weight(6)+weight(7)
    mu2 = DigitVector({3: 1, 6: 1, 7: 1})
    bar2 = binary.ceil_member(mu2)
    assert bar2 == DigitVector({8: 1})
    assert binary.sub_num.decode(bar2) == 34
    assert 34 == binary.sub_num.weight(6) + binary.sub_num.weight(7)

    mu3 = DigitVector({2: 1, 3: 1, 6: 1})
    bar3 = binary.ceil_member(mu3)
    assert bar3 == DigitVector({4: 1, 6: 1})
    assert binary.sub_num.decode(bar3) == 18

    with pytest.raises(NotInSuperCollectionError):
        binary.ceil_member(DigitVector({3: 2}))


def _minimal_ceiling(members, mu):
    """First member >= mu in scan order, by bisection over the sorted oracle list."""
    lo, hi = 0, len(members)
    while lo < hi:
        mid = (lo + hi) // 2
        if compare_ascending(members[mid][0], mu) < 0:
            lo = mid + 1
        else:
            hi = mid
    return members[lo][0]


@pytest.mark.parametrize(
    "sub,sup,bound",
    [
        ((1, 0), (1, 1), 10**4),
        ((1, 1, 0), (2, 2, 2), 10**4),
        ((2, 0, 1), (10, 4), 10**4),
        ((2, 3, 1), (3, 2), 1500),
        ((3, 1, 2), (3, 2), 1500),
        ((2, 0, 0), (2, 3, 0), 1500),
    ],
)
def test_ceil_member_is_minimal(sub, sup, bound):
    """The scan-failure construction equals the search definition of the ceiling."""
    pair = SystemPair(sub, sup)
    members = list(pair.sub_num.members_below(bound + 1))
    for n in range(bound + 1):
        mu = pair.sup_num.encode(n)
        bar = pair.ceil_member(mu)
        assert is_member(pair.sub, bar)
        assert compare_ascending(bar, mu) >= 0
        assert bar == _minimal_ceiling(members, mu), n


def test_count_examples(pairs):
    binary = pairs["binary"]
    assert binary.count_expressible(100) == 34
    assert binary.count_expressible_brute(100) == 34
    for name in PAIR_RULES:
        assert pairs[name].count_expressible(1) == 1
        assert pairs[name].count_expressible_brute(1) == 1
    with pytest.raises(ValueError):
        binary.count_expressible(0)


def test_binary_regression_value(pairs):
    # frozen on first computation; 2**13 encodes to a single basis digit, so
    # the count collapses to one sub weight
    assert pairs["binary"].count_expressible(2**13) == 610
    assert pairs["binary"].sub_num.weight(14) == 610


def _assert_closed_form_equals_brute(pair, last_x):
    # brute(x) is the number of members among 0..x-1, so one running sum
    # checks every x in linear time
    running = 0
    for x in range(1, last_x + 1):
        running += is_member(pair.sub, pair.sup_num.encode(x - 1))
        assert pair.count_expressible(x) == running, x
    assert running == pair.count_expressible_brute(last_x)


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_closed_form_equals_brute(name, pairs):
    _assert_closed_form_equals_brute(pairs[name], 1499)


def test_closed_form_equals_brute_extra_pair():
    _assert_closed_form_equals_brute(SystemPair((2, 3, 1), (3, 2)), 599)


@pytest.mark.parametrize("sub,sup", [((2, 0, 0), (2, 3, 0)), ((2, 3, 0), (3, 4, 1))])
def test_closed_form_with_clipping_sup(sub, sup):
    """Pairs whose sup expansion needs cap clipping, not plain floor division."""
    pair = SystemPair(sub, sup)
    run = 0
    for x in range(1, 1500):
        run += int(is_member(pair.sub, pair.sup_num.encode(x - 1)))
        assert pair.count_expressible(x) == run, x


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_count_monotone_steps(name, pairs):
    pair = pairs[name]
    prev = pair.count_expressible(1)
    for x in range(2, 1200):
        cur = pair.count_expressible(x)
        step = cur - prev
        assert step in (0, 1)
        # the step at x counts whether x-1 itself is expressible
        assert step == int(is_member(pair.sub, pair.sup_num.encode(x - 1)))
        prev = cur


def test_binary_index_set_rule(pairs):
    """Independent closed rule for the binary pair on 10^4 random index sets.

    Write x as a sum of distinct powers with index set A.  If no two indices
    in A are adjacent the expansion is already a sub member and the count is
    the plain weight sum over A; otherwise the scan fails exactly at the
    lower element j of the topmost adjacent pair, and the count telescopes
    to the weight sum over the elements of A at or above j.
    """
    pair = pairs["binary"]
    F = pair.sub_num.weights(32)
    rng = random.Random(99)
    for _ in range(10**4):
        size = rng.randint(1, 10)
        A = sorted(rng.sample(range(1, 23), size))
        x = sum(2 ** (a - 1) for a in A)
        adjacent = [lo for lo, hi in zip(A, A[1:]) if hi == lo + 1]
        if adjacent:
            j = adjacent[-1]
            expected = sum(F[a - 1] for a in A if a >= j)
        else:
            expected = sum(F[a - 1] for a in A)
        assert pair.count_expressible(x) == expected, A
