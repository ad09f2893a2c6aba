import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings

from zeckdual import (
    DigitRule,
    DigitVector,
    InvalidCandidateError,
    StarCandidate,
    SystemPair,
    delta_star,
    enumerate_tilings,
    extremes,
    generating_identity_check,
    is_unit_member,
    measure_check,
    measure_tail_bound,
    tiling_counts,
    unit_blocks,
    validate_candidate,
)
from zeckdual.spectra import derived_constants

from conftest import ENVELOPE_RULES, PAIR_RULES, nested_pairs


def test_unit_blocks_examples():
    fib = DigitRule((1, 0))
    # reads upward: 1 matches, trailing zeros close at the next positive cap
    assert unit_blocks(fib, DigitVector({1: 1})) == [(1, 3)]
    # the 1 at index 3 matches the cap there, so the first block swallows it
    assert unit_blocks(fib, DigitVector({1: 1, 3: 1})) == [(1, 5)]
    assert unit_blocks(fib, DigitVector({2: 1})) == [(1, 1), (2, 4)]
    assert unit_blocks(fib, DigitVector({1: 1, 2: 1})) is None
    assert unit_blocks(fib, DigitVector()) == []

    r = DigitRule((2, 0, 1))
    assert unit_blocks(r, DigitVector({1: 2})) == [(1, 3)]
    assert is_unit_member(r, DigitVector({1: 2}))
    assert unit_blocks(r, DigitVector({1: 3})) is None


def test_candidate_validation():
    fib = DigitRule((1, 0))
    validate_candidate(fib, StarCandidate(DigitVector({1: 1}), None))
    validate_candidate(fib, StarCandidate(DigitVector(), 1))
    validate_candidate(fib, StarCandidate(DigitVector({1: 1}), 4))
    # trailing zero positions below the tail are fine
    validate_candidate(fib, StarCandidate(DigitVector({1: 1}), 5))
    with pytest.raises(InvalidCandidateError):
        validate_candidate(fib, StarCandidate(DigitVector(), None))  # zero, no tail
    with pytest.raises(InvalidCandidateError):
        validate_candidate(fib, StarCandidate(DigitVector({2: 1}), None))  # first digit 0
    with pytest.raises(InvalidCandidateError):
        validate_candidate(fib, StarCandidate(DigitVector({1: 1}), 2))  # block runs past tail
    with pytest.raises(InvalidCandidateError):
        validate_candidate(fib, StarCandidate(DigitVector({1: 1}), 3))
    with pytest.raises(InvalidCandidateError):
        validate_candidate(fib, StarCandidate(DigitVector({1: 1, 2: 1}), None))
    r = DigitRule((2, 0, 1))
    with pytest.raises(InvalidCandidateError):
        validate_candidate(r, StarCandidate(DigitVector({1: 2}), 2))  # block [1,3] overshoots


def test_candidate_serialization():
    assert StarCandidate(DigitVector(), 1).serialize() == "tail@1"
    assert StarCandidate(DigitVector({1: 1}), 4).serialize() == "1:1+tail@4"
    assert StarCandidate(DigitVector({1: 1}), None).serialize() == "1:1"


TILING_TABLES = {
    # frozen from exhaustive enumeration of block tilings
    (1, 0): [1, 1, 1, 2, 3, 5, 8, 13, 21],
    (1, 1): [1, 1, 2, 4, 8, 16, 32],
    (2, 3, 0): [1, 2, 7, 20, 63, 193],
    (2, 0, 1): [1, 2, 4, 9, 22, 52],
    (1, 1, 0): [1, 1, 2, 3, 6, 11],
}


@pytest.mark.parametrize("entries,expected", sorted(TILING_TABLES.items()))
def test_tiling_count_tables(entries, expected):
    assert tiling_counts(DigitRule(entries), len(expected) - 1) == expected


@pytest.mark.parametrize("entries", [(1, 0), (1, 1), (2, 3, 0), (2, 0, 1), (1, 1, 0), (10, 4)])
def test_tiling_counts_match_enumeration(entries):
    """The recurrence agrees with brute-force generation of every tiling."""
    rule = DigitRule(entries)
    counts = tiling_counts(rule, 7)
    for n in range(8):
        if counts[n] > 20000:
            break
        tilings = list(enumerate_tilings(rule, n))
        assert len(tilings) == counts[n], n
        # each yielded digit dict is distinct and genuinely tiles [1, n]
        seen = {tuple(sorted(t.items())) for t in tilings}
        assert len(seen) == len(tilings)
        for t in tilings:
            vec = DigitVector(t)
            blocks = unit_blocks(rule, vec)
            assert blocks is not None
            end = blocks[-1][1] if blocks else 0
            assert end <= n


def test_tiling_counts_start():
    for entries in [(1, 0), (2, 3, 0), (10, 4)]:
        rule = DigitRule(entries)
        C = tiling_counts(rule, 1)
        assert C[0] == 1
        assert C[1] == entries[0]


@pytest.mark.parametrize("entries", [(1, 0), (2, 3, 0), (2, 0, 1), (10, 4), (1, 1, 0), (2, 2, 2), (3, 2)])
def test_generating_identity(entries):
    rule = DigitRule(entries)
    assert generating_identity_check(rule, 50)
    assert generating_identity_check(rule, rule.period)
    with pytest.raises(ValueError):
        generating_identity_check(rule, rule.period - 1)


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_measure_approaches_one(name, pairs, constants):
    pair, consts = pairs[name], constants[name]
    partial = measure_check(pair, consts, 200)
    bound = measure_tail_bound(consts, 200)
    assert 0.9 < partial <= 1.0 + 1e-9
    assert abs(partial + bound - 1.0) < 1e-6
    assert measure_check(pair, consts, 0) == pytest.approx(1.0 - consts.rho, abs=1e-12)
    # at a short cutoff the gap is visible and the geometric bound must cover it
    early = measure_check(pair, consts, 12)
    early_bound = measure_tail_bound(consts, 12)
    assert early < 1.0
    assert early + early_bound >= 1.0 - 1e-12


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_tail_bound_dominates_counts(name, pairs, constants):
    # the geometric bound used for the measure tail really does cover C_b
    pair, consts = pairs[name], constants[name]
    C = tiling_counts(pair.sub, 60)
    for b in range(1, 61):
        assert C[b] < consts.phi**b


def test_delta_star_examples(pairs, constants):
    binary, cb = pairs["binary"], constants["binary"]
    assert delta_star(binary, StarCandidate(DigitVector({1: 1}), None), cb) == pytest.approx(1.0, abs=1e-12)
    assert delta_star(binary, StarCandidate(DigitVector(), 1), cb) == pytest.approx(
        1.5**cb.gamma, abs=1e-12
    )
    nonbase, cn = pairs["nonbase"], constants["nonbase"]
    assert delta_star(nonbase, StarCandidate(DigitVector({1: 1}), 2), cn) == pytest.approx(
        2 / (1 + cn.rho) ** cn.gamma, abs=1e-12
    )


def test_extremes_binary(pairs, constants):
    report = extremes(pairs["binary"], constants["binary"])
    c = constants["binary"]
    assert report.max_candidate.serialize() == "tail@1"
    assert report.min_candidate.serialize() == "1:1"
    assert report.delta_max == pytest.approx(1.5**c.gamma, abs=1e-12)
    assert report.delta_min == pytest.approx(1.0, abs=1e-12)
    names = {cand.serialize() for cand, _ in report.all_candidates}
    assert {"tail@1", "1:1+tail@4", "1:1"} <= names
    assert report.limsup == pytest.approx(((c.phi + 2) / 5) * 3**c.gamma, abs=1e-8)
    assert report.liminf == pytest.approx((3 * c.phi + 1) / 5, abs=1e-8)
    assert report.limsup == pytest.approx(1.55, abs=5e-3)
    assert report.liminf == pytest.approx(1.17, abs=5e-3)


def test_extremes_nonbase(pairs, constants):
    report = extremes(pairs["nonbase"], constants["nonbase"])
    c = constants["nonbase"]
    assert report.max_candidate.serialize() == "1:1+tail@2"
    assert report.delta_max == pytest.approx(1.8757, abs=5e-3)
    assert report.limsup == pytest.approx(2.2666, abs=5e-3)
    assert report.liminf == pytest.approx(1.2084, abs=5e-3)
    # the two finite candidates: single digits 1 and 2
    finite = {cand.serialize(): v for cand, v in report.all_candidates if cand.tail_index is None}
    assert set(finite) == {"1:1", "1:2"}
    assert finite["1:1"] == pytest.approx(1.0, abs=1e-12)
    assert finite["1:2"] == pytest.approx(2 ** (1 - c.gamma), abs=1e-12)


def test_extremes_third(pairs, constants):
    report = extremes(pairs["third"], constants["third"])
    c = constants["third"]
    assert report.max_candidate.serialize() == "tail@1"
    assert report.delta_max == pytest.approx(1.0 / c.rho**c.gamma, abs=1e-12)
    assert report.delta_min == pytest.approx(1.0, abs=1e-12)
    assert report.liminf == pytest.approx(c.alpha, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_candidate_count_per_tail_matches_tilings(name, pairs, constants):
    pair, consts = pairs[name], constants[name]
    C = tiling_counts(pair.sub, 12)
    top = math.ceil(max(2.0, consts.p_star))
    for ti in range(1, top + 1):
        assert len(list(enumerate_tilings(pair.sub, ti - 1))) == C[ti - 1]


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_generic_upper_bound(name, pairs, constants):
    pair, consts = pairs[name], constants[name]
    report = extremes(pair, consts)
    cap = (1.0 / consts.gamma) * (consts.omega / consts.omega_sup) ** consts.p
    for _, v in report.all_candidates:
        assert v < cap


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_delta_min_at_least_one(name, pairs, constants):
    report = extremes(pairs[name], constants[name])
    assert report.delta_min >= 1.0 - 1e-12
    assert report.min_candidate.serialize() == "1:1"
    assert report.delta_min == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_appending_high_digit_improves(name, pairs, constants):
    """Adding a 1 above the blocks of a finite candidate increases the ratio."""
    pair, consts = pairs[name], constants[name]
    rule = pair.sub
    maxd = rule.max_digit
    rng = random.Random(hash(name) & 0xFFFF)
    found = 0
    while found < 100:
        support = rng.randint(1, 5)
        digits = {k: rng.randint(0, maxd) for k in range(1, support + 1)}
        digits = {k: v for k, v in digits.items() if v}
        if digits.get(1, 0) < 1:
            continue
        vec = DigitVector(digits)
        blocks = unit_blocks(rule, vec)
        if blocks is None:
            continue
        found += 1
        base = delta_star(pair, StarCandidate(vec, None), consts)
        scan_end = blocks[-1][1]
        n = max(consts.p, scan_end + 1)
        grown_digits = dict(vec.items())
        grown_digits[n] = 1
        bigger = DigitVector(grown_digits)
        assert is_unit_member(rule, bigger), (name, dict(vec.items()), n)
        grown = delta_star(pair, StarCandidate(bigger, None), consts)
        assert grown > base


N_ORDER_CASES = [2, 3, 4, 5]


@pytest.mark.parametrize("N", N_ORDER_CASES)
def test_uniform_family_closed_forms(N):
    """For (1,..,1,0) inside the full base-N system the search has closed answers.

    The sup weights are exactly N**(n-1) and the sub weights double for the
    first N indices, which pins the lead constant to f(2)/((2-phi)f'(phi));
    the max lands on the pure tail, giving limsup = alpha/(P**gamma phi**N)
    with P = rho/(N**N).
    """
    from zeckdual.spectra import char_poly, poly_derivative, poly_eval

    sub = tuple([1] * (N - 1) + [0])
    sup = tuple([N - 1] * N)
    pair = SystemPair(sub, sup)
    consts = derived_constants(pair)
    report = extremes(pair, consts)

    assert consts.phi_sup == pytest.approx(float(N), abs=1e-12)
    assert pair.sub_num.weights(N) == [2**k for k in range(N)]

    f = char_poly(pair.sub)
    alpha_closed = poly_eval(f, 2.0) / ((2.0 - consts.phi) * poly_eval(poly_derivative(f), consts.phi))
    P = (N ** (N - 1) - 1) / ((N - 1) * (N**N - 1) * N ** (N - 1))
    assert P * N**N == pytest.approx(consts.rho, abs=1e-10)
    limsup_closed = alpha_closed / (P**consts.gamma * consts.phi**N)

    assert report.liminf == pytest.approx(alpha_closed, abs=1e-8)
    assert report.limsup == pytest.approx(limsup_closed, abs=1e-8)
    assert report.max_candidate.serialize() == "tail@1"

    if N == 2:
        phi = consts.phi
        assert limsup_closed == pytest.approx(((phi + 2) / 5) * 3**consts.gamma, abs=1e-9)
        assert alpha_closed == pytest.approx((3 * phi + 1) / 5, abs=1e-9)


def _box(maxd, n):
    """Every digit string on [1, n], legal or not, as a DigitVector."""
    return (DigitVector.from_dense(t) for t in itertools.product(range(maxd + 1), repeat=n))


# about one drawn pair in seven is nested with a box of at most 4096 strings
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pair=nested_pairs())
def test_walk_candidates_match_box_on_random_pairs(pair):
    """The candidates are exactly the legal strings of the full digit box."""
    consts = derived_constants(pair)
    rule = pair.sub
    top_tail = math.ceil(max(2.0, consts.p_star))
    span = consts.p_dagger - 1
    assume((rule.max_digit + 1) ** max(top_tail - 1, span) <= 4096)

    expected = set()
    for ti in range(1, top_tail + 1):
        for vec in _box(rule.max_digit, ti - 1):
            try:
                validate_candidate(rule, StarCandidate(vec, ti))
            except InvalidCandidateError:
                continue
            expected.add(StarCandidate(vec, ti).serialize())
    for vec in _box(rule.max_digit, span):
        if vec.digit(1) >= 1 and is_unit_member(rule, vec):
            expected.add(StarCandidate(vec, None).serialize())

    report = extremes(pair, consts)
    names = [c.serialize() for c, _ in report.all_candidates]
    assert len(names) == len(set(names))
    assert set(names) == expected
    for cand, score in report.all_candidates:
        validate_candidate(rule, cand)
        assert score == delta_star(pair, cand, consts)


def _check_reduction(pair, consts):
    """The extremes are the max and min over the full table, ties broken by
    ascending serialization, and the library call builds no table."""
    report = extremes(pair, consts)
    assert "all_candidates" not in vars(report)
    table = report.all_candidates
    assert report.all_candidates is table
    for best, delta, cand in (
        (max, report.delta_max, report.max_candidate),
        (min, report.delta_min, report.min_candidate),
    ):
        v = best(score for _, score in table)
        assert delta == v
        assert cand.serialize() == min(c.serialize() for c, score in table if score == v)
    scale = consts.alpha / consts.alpha_sup**consts.gamma
    assert report.limsup == scale * report.delta_max
    assert report.liminf == scale * report.delta_min


@pytest.mark.parametrize("name", sorted(ENVELOPE_RULES))
def test_extremes_reduce_the_table_on_envelope_pairs(name):
    pair = SystemPair(*ENVELOPE_RULES[name])
    _check_reduction(pair, derived_constants(pair))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pair=nested_pairs())
def test_extremes_reduce_the_table_on_random_pairs(pair):
    consts = derived_constants(pair)
    top_tail = math.ceil(max(2.0, consts.p_star))
    span = consts.p_dagger - 1
    assume(max(top_tail, span) <= 30)
    assume((pair.sub.max_digit + 1) ** span + sum(tiling_counts(pair.sub, top_tail - 1)) <= 20_000)
    _check_reduction(pair, consts)
