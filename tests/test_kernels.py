import numpy as np
import pytest

from zeckdual import SystemPair, is_member
from zeckdual import _kernels

from conftest import PAIR_RULES


SCATTERED = [1, 2, 3, 7, 64, 99, 100, 101, 1000, 4095, 4096, 50000, 99999, 100000, 1, 17]


@pytest.fixture(scope="module", params=sorted(PAIR_RULES))
def pair(request):
    sub, sup = PAIR_RULES[request.param]
    return SystemPair(sub, sup)


def test_digit_matrix_reassembles(pair):
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.integers(0, 10**6, size=300), [0, 1, 10**6]])
    tables = pair._int64_tables(int(xs.max()))
    assert tables is not None
    sup_w, sup_caps, _, _ = tables
    digits = _kernels.digit_matrix(xs, sup_w, sup_caps)
    assert (digits >= 0).all()
    assert np.array_equal(digits @ sup_w, xs)
    # spot rows against the exact encoder
    for i in [0, 5, 150, 300]:
        dense = pair.sup_num.encode(int(xs[i])).to_dense()
        dense += [0] * (len(sup_w) - len(dense))
        assert digits[i].tolist() == dense


def test_kernels_match_exact(pair):
    xs = np.array(SCATTERED, dtype=np.int64)
    ns = np.arange(0, 3000, dtype=np.int64)
    sup_w, sup_caps, caps, sub_w = pair._int64_tables(100000)
    flags_np = _kernels.member_flags(ns, sup_w, sup_caps, caps)
    counts_np = _kernels.dual_counts(xs, sup_w, sup_caps, caps, sub_w)
    # the numpy path must match the exact object-level routines
    expect = [pair.count_expressible(int(x)) for x in xs]
    assert counts_np.tolist() == expect
    member = [is_member(pair.sub, pair.sup_num.encode(int(n))) for n in ns[:400]]
    assert flags_np[:400].tolist() == member


def test_scan_top_is_irrelevant(pair):
    """Padding the weight table with extra top indices changes nothing."""
    ns = np.arange(0, 2000, dtype=np.int64)
    xs = np.array(SCATTERED, dtype=np.int64)
    sup_w, sup_caps, caps, sub_w = pair._int64_tables(100000)
    m = len(sup_w)
    sup_w_big = np.array(pair.sup_num.weights(m + 3), dtype=np.int64)
    sub_w_big = np.array(pair.sub_num.weights(m + 4), dtype=np.int64)
    assert np.array_equal(
        _kernels.member_flags(ns, sup_w, sup_caps, caps),
        _kernels.member_flags(ns, sup_w_big, sup_caps, caps),
    )
    assert np.array_equal(
        _kernels.dual_counts(xs, sup_w, sup_caps, caps, sub_w),
        _kernels.dual_counts(xs, sup_w_big, sup_caps, caps, sub_w_big),
    )


def test_counts_at_matches_exact(pair):
    out = pair.counts_at(SCATTERED)
    assert out.dtype == np.int64
    assert out.tolist() == [pair.count_expressible(x) for x in SCATTERED]


def test_counts_at_cumsum_identity(pair):
    # z(x) counts members below x, so it must equal the running mask total
    hi = 2500
    mask = pair.expressible_mask(0, hi)
    counts = pair.counts_at(range(1, hi + 1))
    assert np.array_equal(counts, np.cumsum(mask))


def test_expressible_mask_matches_exact(pair):
    lo, hi = 137, 642
    mask = pair.expressible_mask(lo, hi)
    assert mask.dtype == bool
    assert mask.tolist() == [
        is_member(pair.sub, pair.sup_num.encode(n)) for n in range(lo, hi)
    ]


def test_empty_and_bad_inputs(pair):
    assert len(pair.counts_at([])) == 0
    assert len(pair.expressible_mask(5, 5)) == 0
    with pytest.raises(ValueError):
        pair.counts_at([3, 0])
    with pytest.raises(ValueError):
        pair.expressible_mask(-1, 4)
    with pytest.raises(ValueError):
        pair.expressible_mask(9, 2)


def test_bigint_fallback(pair):
    """Values past the int64-safe line go through the exact path."""
    assert pair._int64_tables(1 << 62) is None
    xs = [10, 12345, (1 << 70) + 3]
    out = pair.counts_at(xs)
    assert out.dtype == object
    assert out[0] == pair.count_expressible(10)
    assert out[1] == pair.count_expressible(12345)
    assert out[2] == pair.count_expressible((1 << 70) + 3)
    # the huge count agrees with rounding up by hand
    mu = pair.sup_num.encode((1 << 70) + 3)
    assert out[2] == pair.sub_num.decode(pair.ceil_member(mu))
    mask = pair.expressible_mask((1 << 70), (1 << 70) + 40)
    pure = [
        is_member(pair.sub, pair.sup_num.encode(n))
        for n in range(1 << 70, (1 << 70) + 40)
    ]
    assert mask.tolist() == pure


def test_clipping_sup_rule():
    """Extraction must clip quotients to the sup caps, not floor-divide blindly."""
    clip = SystemPair((2, 0, 0), (2, 3, 0))
    xs = list(range(1, 1200)) + [5000, 99999]
    counts = clip.counts_at(xs)
    assert counts.tolist() == [clip.count_expressible(x) for x in xs]
    mask = clip.expressible_mask(0, 1200)
    assert mask.tolist() == [
        is_member(clip.sub, clip.sup_num.encode(n)) for n in range(1200)
    ]
    sup_w, sup_caps, _, _ = clip._int64_tables(99999)
    row = _kernels.digit_matrix(np.array([9], dtype=np.int64), sup_w, sup_caps)[0]
    assert row[:3].tolist() == [3, 2, 0]


def test_kernels_enabled_reports_dispatch():
    assert _kernels.kernels_enabled() is False
