import pytest
from hypothesis import given, settings, strategies as st

from zeckdual import (
    DigitRule,
    DigitVector,
    Numeration,
    basis_predecessor,
    compare_ascending,
    is_member,
)

from conftest import TEST_RULES


WEIGHT_TABLES = {
    (2, 3, 0): [1, 3, 10, 30, 93, 286, 881, 2713],
    (1, 0): [1, 2, 3, 5, 8, 13, 21, 34, 55, 89],
    (1, 1): [1, 2, 4, 8, 16, 32, 64, 128],
    (10, 4): [1, 11, 115, 1205, 12625],
    (2, 0, 1): [1, 3, 7, 16, 38],
    (1, 1, 0): [1, 2, 4, 7, 13, 24, 44, 81, 149, 274],
}


@pytest.mark.parametrize("entries,expected", sorted(WEIGHT_TABLES.items()))
def test_weight_tables(entries, expected):
    assert Numeration(DigitRule(entries)).weights(len(expected)) == expected


@pytest.mark.parametrize("entries", TEST_RULES)
def test_weights_satisfy_full_recursion(entries):
    """The defining identity: each weight is one more than its predecessor's value.

    The class computes weights by the short linear recurrence beyond the
    period; this re-derives every term from the predecessor vector instead,
    which is the independent route.
    """
    rule = DigitRule(entries)
    num = Numeration(rule)
    for n in range(2, 30):
        pred = basis_predecessor(rule, n)
        assert num.weight(n) == 1 + num.decode(pred), n


@pytest.mark.parametrize("entries", TEST_RULES)
def test_weights_strictly_increasing(entries):
    w = Numeration(DigitRule(entries)).weights(40)
    assert all(a < b for a, b in zip(w, w[1:]))
    assert w[0] == 1


def test_decode_examples():
    binary = Numeration(DigitRule((1, 1)))
    assert binary.decode(DigitVector({3: 1, 6: 1, 7: 1})) == 100
    assert binary.decode(DigitVector()) == 0
    assert Numeration(DigitRule((2, 3, 0))).decode(DigitVector.from_dense([1, 0, 0, 1])) == 31


def test_encode_examples():
    binary = Numeration(DigitRule((1, 1)))
    assert binary.encode(165) == DigitVector({1: 1, 3: 1, 6: 1, 8: 1})
    assert binary.encode(0) == DigitVector()
    fib = Numeration(DigitRule((1, 0)))
    assert fib.encode(100) == DigitVector({3: 1, 5: 1, 10: 1})
    with pytest.raises(ValueError):
        fib.encode(-1)


def test_encode_clips_to_cap():
    """Floor division alone overshoots when a later cap dominates the first.

    Under rule 2,3,0 the weight list starts 1,3,10 and the member expansion
    of 9 is 2*3 + 3*1 — a quotient of 3 at index 2 would break the cap.
    """
    num = Numeration(DigitRule((2, 3, 0)))
    assert num.encode(9) == DigitVector.from_dense([3, 2])
    assert num.encode(8) == DigitVector.from_dense([2, 2])
    assert num.encode(29) == DigitVector.from_dense([0, 3, 2])
    assert [num.decode(num.encode(n)) for n in range(300)] == list(range(300))


@pytest.mark.parametrize("entries", TEST_RULES)
def test_top_index_counts_weights(entries):
    num = Numeration(DigitRule(entries))
    assert num.top_index(0) == 0
    w = num.weights(30)
    for k in range(1, 30):
        assert num.top_index(w[k - 1]) == k
        assert num.top_index(w[k] - 1) == k
    for n in range(1, 500):
        assert num.top_index(n) == num.encode(n).order


@pytest.mark.parametrize("entries", TEST_RULES)
def test_encode_decode_roundtrip_small(entries):
    num = Numeration(DigitRule(entries))
    for n in range(3000):
        vec = num.encode(n)
        assert is_member(num.rule, vec)
        assert num.decode(vec) == n


@given(st.sampled_from(TEST_RULES), st.integers(0, 10**12))
@settings(max_examples=200)
def test_encode_decode_roundtrip_large(entries, n):
    num = Numeration(DigitRule(entries))
    assert num.decode(num.encode(n)) == n


def test_members_below_small_cases():
    base2 = Numeration(DigitRule((1, 1)))
    out = list(base2.members_below(8))
    assert len(out) == 8
    assert [v for _, v in out] == list(range(8))

    fib = Numeration(DigitRule((1, 0)))
    out = list(fib.members_below(13))
    assert [v for _, v in out] == list(range(13))
    for vec, v in out:
        assert vec == fib.encode(v)
    assert list(fib.members_below(0)) == []


@pytest.mark.parametrize("entries", [(2, 3, 0), (2, 0, 1), (10, 4), (1, 1, 0)])
def test_members_below_bijection(entries):
    """Exhaustive enumeration realizes the bijection with 0..499, no gaps or repeats."""
    num = Numeration(DigitRule(entries))
    out = list(num.members_below(500))
    assert [v for _, v in out] == list(range(500))
    assert len({vec for vec, _ in out}) == 500
    for vec, v in out:
        assert num.encode(v) == vec


@pytest.mark.parametrize("entries", TEST_RULES)
def test_value_order_matches_scan_order(entries):
    num = Numeration(DigitRule(entries))
    members = list(num.members_below(400))
    for (va, a), (vb, b) in zip(members, members[1:]):
        assert compare_ascending(va, vb) == -1
        assert a < b


@pytest.mark.parametrize("entries", TEST_RULES)
def test_growth_matches_spectral_constant(entries):
    from zeckdual.spectra import char_poly, dominant_root, growth_constant

    rule = DigitRule(entries)
    num = Numeration(rule)
    root = dominant_root(char_poly(rule))
    alpha = growth_constant(rule, root, num)
    h40 = num.weight(40)
    assert abs(h40 / root**39 - alpha) / alpha < 1e-6
