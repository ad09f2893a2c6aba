import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zeckdual
from zeckdual import SystemPair, is_member
from zeckdual import _kernels

from conftest import PAIR_RULES, nested_pairs


SCATTERED = [1, 2, 3, 7, 64, 99, 100, 101, 1000, 4095, 4096, 50000, 99999, 100000, 1, 17]


@pytest.fixture(scope="module", params=sorted(PAIR_RULES))
def pair(request):
    sub, sup = PAIR_RULES[request.param]
    return SystemPair(sub, sup)


def test_digit_matrix_reassembles(pair):
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.integers(0, 10**6, size=300), [0, 1, 10**6]])
    tables = pair._tables(int(xs.max()))
    assert tables[0].dtype == np.int64
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
    sup_w, sup_caps, caps, sub_w = pair._tables(100000)
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
    sup_w, sup_caps, caps, sub_w = pair._tables(100000)
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


@pytest.fixture
def branches(monkeypatch):
    """Record, for every rank lookup, whether its keys were fewer than the table's entries (the sorted branch)."""
    seen = []
    ranks = _kernels._ranks

    def recorded(table, keys):
        seen.append(np.size(keys) < len(table))
        return ranks(table, keys)

    monkeypatch.setattr(_kernels, "_ranks", recorded)
    return seen


def _assert_order_free(pair, keys, sample):
    """A shuffled list, its reverse and its sorted form give the same count per x; ``sample`` is checked exactly."""
    out = pair.counts_at(keys).tolist()
    assert pair.counts_at(keys[::-1]).tolist() == out[::-1]
    by_x = dict(zip(sorted(keys), pair.counts_at(sorted(keys)).tolist()))
    assert out == [by_x[x] for x in keys]
    assert [by_x[x] for x in sample] == [pair.count_expressible(x) for x in sample]


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_lookup_order_does_not_change_counts_below_the_top(name, branches):
    """Below the tables' top every row is one lookup in ``T_0``, whatever the order or number of keys."""
    pair = SystemPair(*PAIR_RULES[name])
    pair.counts_at([5000])
    level = pair._ranks.level
    T = pair._ranks.T[0]
    top = pair.sup_num.weight(level + 1)  # every x below it is one lookup
    edges = [x for x in (1, 2, top - 2, top - 1) if x >= 1]
    pool = np.concatenate([T[1:], T[1:] - 1, T[1:] + 1, edges])
    pool = pool[(pool >= 1) & (pool < top)]
    rng = np.random.default_rng(len(T))
    for size in (5, 40, len(T) + 17):  # fewer keys than entries, then more
        keys = rng.choice(pool, size=size).tolist() + edges
        assert len(pair._tables(max(keys))[0]) <= pair._ranks.level
        sample = sorted(set(keys))[:: max(1, len(set(keys)) // 40)] + edges
        _assert_order_free(pair, keys, sample)
    assert pair._ranks.level == level
    assert set(branches) == {True, False}


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_lookup_order_does_not_change_counts_above_the_top(name, branches):
    """Above the tables' top each offset's rows are one lookup in ``T_o`` after the sweep."""
    pair = SystemPair(*PAIR_RULES[name])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_TABLE_ENTRIES", 400)
        rng = np.random.default_rng(17)
        num = pair.sup_num
        members = [num.decode(pair.ceil_member(num.encode(int(x)))) for x in rng.integers(10**5, 10**7, 30)]
        pool = np.concatenate([members, np.add(members, 1), np.subtract(members, 1), rng.integers(1, 10**7, 30)])
        for size in (6, 40, 2000):  # fewer rows per offset than its entries, then more
            keys = rng.choice(pool, size=size).tolist()
            _assert_order_free(pair, keys, sorted(set(keys))[:: max(1, len(set(keys)) // 40)])
            assert pair._ranks.level < len(pair._tables(max(keys))[0])
    assert set(branches) == {True, False}


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_counts_at_keeps_the_shape_of_a_2d_array(name, branches):
    pair = SystemPair(*PAIR_RULES[name])
    pair.counts_at([10**6])  # tables well past the keys, so the small array takes the sorted branch
    small = np.array([[5, 9], [3, 4]], dtype=np.int64)
    large = np.arange(1, 3 * len(pair._ranks.T[0]) + 1, dtype=np.int64).reshape(3, -1)[:, ::-1]
    for xs in (small, large):
        out = pair.counts_at(xs)
        assert out.shape == xs.shape
        assert out.ravel().tolist() == pair.counts_at(xs.ravel().tolist()).tolist()
    assert pair.counts_at(small).tolist() == [[pair.count_expressible(int(x)) for x in row] for row in small]
    if name == "binary":
        assert pair.counts_at(small).tolist() == [[4, 6], [3, 3]]
    assert set(branches) == {True, False}


@pytest.mark.parametrize("name", sorted(PAIR_RULES))
def test_counts_at_keeps_the_shape_above_the_tables_top(name):
    """2-D arrays and nested lists above the rank tables' top, on int64 and on Python ints past 2^62."""
    pair = SystemPair(*PAIR_RULES[name])
    for xs in (
        np.array([[5, 9], [3, 2**40]], dtype=np.int64),
        np.array([[5, 2**70], [2**62 + 3, 2**63 + 1], [1, 17]], dtype=object),
    ):
        out = pair.counts_at(xs)
        assert out.shape == xs.shape
        assert out.tolist() == [[pair.count_expressible(int(x)) for x in row] for row in xs]
        assert pair.counts_at(xs.tolist()).tolist() == out.tolist()  # a nested list, past int64 too


RANGES = [
    range(1, 300),
    range(5, 4000, 7),
    range(2999, 0, -13),
    range(40, 40),
    range(2**62 - 20, 2**62 + 20, 3),
    range(2**63 - 9, 2**63 + 9, 2),  # arange would wrap these past int64
    range(2**63 + 1, 2**63 + 40, 5),
    range(2**63 + 20, 2**62, -(2**58)),  # descends from past int64 into it
]


@pytest.mark.parametrize("xs", RANGES, ids=str)
def test_counts_at_takes_a_range_like_its_list(pair, xs):
    got, want = pair.counts_at(xs), pair.counts_at(list(xs))
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    if xs:
        assert got[-1] == pair.count_expressible(xs[-1])


def test_counts_at_refuses_a_range_from_zero(pair):
    with pytest.raises(ValueError):
        pair.counts_at(range(0, 10))
    with pytest.raises(ValueError):
        pair.counts_at(range(10, -1, -1))


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
    """Values past the int64-safe line run the same walk on Python ints."""
    assert pair._tables(1 << 62)[0].dtype == object
    assert pair._tables((1 << 62) - 1)[0].dtype == np.int64
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


def test_counts_at_uint64_is_exact():
    """uint64 values past int64 are counted exactly, not wrapped to negatives."""
    binary = SystemPair(*PAIR_RULES["binary"])
    out = binary.counts_at(np.array([2**63 + 5], dtype=np.uint64))
    assert out.tolist() == [17167680177569] == [binary.count_expressible(2**63 + 5)]


def test_float_arrays_are_refused(pair):
    with pytest.raises(TypeError):
        pair.counts_at(np.array([2.7]))
    with pytest.raises(TypeError):
        pair.expressible_mask(np.array(2.0), 5)
    with pytest.raises(TypeError):
        pair.expressible_mask(2, np.float64(5.0))


def test_scalar_floats_are_refused(pair):
    for call in (pair.count_expressible, pair.count_expressible_brute, pair.sup_num.encode):
        with pytest.raises(TypeError):
            call(2.7)


def test_numpy_integer_scalars_are_accepted():
    binary = SystemPair(*PAIR_RULES["binary"])
    assert binary.count_expressible(np.int64(100)) == 34
    assert binary.count_expressible_brute(np.int64(100)) == 34
    assert binary.counts_at(np.array([100], dtype=np.uint8)).tolist() == [34]


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
    sup_w, sup_caps, _, _ = clip._tables(99999)
    row = _kernels.digit_matrix(np.array([9], dtype=np.int64), sup_w, sup_caps)[0]
    assert row[:3].tolist() == [3, 2, 0]


def test_kernels_enabled_reports_dispatch():
    assert _kernels.kernels_enabled() is False


SPLIT_PAIRS = sorted(PAIR_RULES.values()) + [((2, 0, 0), (2, 3, 0)), ((1, 1, 0), (1, 1))]


def _top_level(sup_w, caps, m=None):
    """The level a throwaway table reaches when asked for ``m`` (default: past every bound)."""
    return _kernels.RankTables(sup_w, caps).grow(len(sup_w) if m is None else m).level


@pytest.mark.parametrize("sub,sup", SPLIT_PAIRS)
def test_walk_every_split(sub, sup):
    """Every level, from the full sweep (0) to a pure rank lookup (m), gives the scalar answers."""
    pair = SystemPair(sub, sup)
    xs = np.array(list(range(1, 700)) + SCATTERED + [31337, 65536, 77777], dtype=np.int64)
    sup_w, sup_caps, caps, sub_w = pair._tables(int(xs.max()))
    counts = [pair.count_expressible(int(x)) for x in xs]
    member = [is_member(pair.sub, pair.sup_num.encode(int(x))) for x in xs]
    tables = pair._rank_tables(0)
    assert _top_level(tables.sup_w, caps) >= len(sup_w)
    for s in range(len(sup_w) + 1):
        assert tables.grow(s).level == s
        z, flags = _kernels._walk(xs, sup_w, sup_caps, caps, sub_w, tables)
        assert z.tolist() == counts, s
        assert flags.tolist() == member, s
        no_counts, flags = _kernels._walk(xs, sup_w, sup_caps, caps, None, tables)
        assert no_counts is None
        assert flags.tolist() == member, s


HUGE = [2**62 - 1, 2**62, 2**63 - 1, 2**63, 2**64 + 1, 10**40, 10**300]


@pytest.mark.parametrize("sub,sup", SPLIT_PAIRS)
def test_object_walk_every_split(sub, sup):
    """Past int64 the walk runs on Python ints and still gives the scalar answers at every level."""
    pair = SystemPair(sub, sup)
    # the sup value of a sub member is expressible, so its rows reach the rank lookup
    deep = pair.sup_num.decode(pair.sub_num.encode(10**40))
    mixed = [1, 2, 3, 100, 4096, 2**62 + 7, pair.sup_num.weight(150) - 1, deep, deep + 1, 10**30 + 1, 5]
    for xs in (HUGE, mixed):
        sup_w, sup_caps, caps, sub_w = pair._tables(max(xs))
        assert sup_w.dtype == sub_w.dtype == object
        assert (_kernels.digit_matrix(xs, sup_w, sup_caps) @ sup_w).tolist() == xs
        counts = [pair.count_expressible(x) for x in xs]
        member = [is_member(pair.sub, pair.sup_num.encode(x)) for x in xs]
        tables = _kernels.RankTables(sup_w, caps)
        for s in range(_top_level(sup_w, caps) + 1):
            z, flags = _kernels._walk(xs, sup_w, sup_caps, caps, sub_w, tables.grow(s))
            assert z.tolist() == counts, s
            assert flags.tolist() == member, s
        assert pair.counts_at(xs).tolist() == counts


@pytest.mark.parametrize("sub,sup", SPLIT_PAIRS + [((1, 0), (9, 9))])
def test_rank_tables_stay_in_budget(sub, sup):
    """A pair's tables grow to the top index asked for, within the entry budget and below 2^62."""
    pair = SystemPair(sub, sup)
    assert pair._ranks is None
    asked = 0
    for max_x in [10**3, 10**7, 10**5, 2**61, 10**40]:
        m = len(pair._tables(max_x)[0])
        asked = max(asked, m)
        tables = pair._rank_tables(m)
        assert tables is pair._ranks
        assert tables.level == _top_level(tables.sup_w, pair.sub.entries, asked)
        assert sum(map(len, tables.T)) <= _kernels._TABLE_ENTRIES
        assert tables.sup_w[tables.level] < 2**62
        assert all(np.all(t[:-1] < t[1:]) for t in tables.T)
        assert max(int(t[-1]) for t in tables.T) < 2**62
    assert tables.level < asked  # 10**40 asks past every bound
    # the level is the largest one that fits: one more would break a bound
    T, caps, N = tables.T, pair.sub.entries, len(pair.sub.entries)
    if len(tables.sup_w) > tables.level + 1:  # else no kept sup weight lies above the next level
        w = int(tables.sup_w[tables.level])
        entries = sum(c * len(T[0]) + len(T[(o + 1) % N]) for o, c in enumerate(caps))
        top = max(int(T[(o + 1) % N][-1]) + c * w for o, c in enumerate(caps))
        assert entries > _kernels._TABLE_ENTRIES or top >= 2**62


@settings(max_examples=60, deadline=None)
@given(pair=nested_pairs(), xs=st.lists(st.integers(1, 4000), min_size=1, max_size=40), data=st.data())
def test_walk_matches_scalar_on_random_pairs(pair, xs, data):
    xs = np.array(xs, dtype=np.int64)
    sup_w, sup_caps, caps, sub_w = pair._tables(int(xs.max()))
    tables = pair._rank_tables(0)
    s = data.draw(st.integers(0, _top_level(tables.sup_w, caps, len(sup_w))), label="s")
    z, flags = _kernels._walk(xs, sup_w, sup_caps, caps, sub_w, tables.grow(s))
    assert z.tolist() == [pair.count_expressible(int(x)) for x in xs]
    assert flags.tolist() == [is_member(pair.sub, pair.sup_num.encode(int(x))) for x in xs]
    assert pair.counts_at(xs).tolist() == z.tolist()


@settings(max_examples=40, deadline=None)
@given(
    pair=nested_pairs(),
    xs=st.lists(st.integers(1 << 62, 1 << 130), min_size=1, max_size=8),
    ys=st.lists(st.integers(1 << 62, 1 << 100), min_size=1, max_size=4),
    data=st.data(),
)
def test_object_walk_matches_scalar_on_random_pairs(pair, xs, ys, data):
    # sup values of sub members are expressible, so the flags see both answers
    xs = xs + [pair.sup_num.decode(pair.sub_num.encode(y)) for y in ys]
    sup_w, sup_caps, caps, sub_w = pair._tables(max(xs))
    tables = pair._rank_tables(0)
    s = data.draw(st.integers(0, _top_level(tables.sup_w, caps)), label="s")
    z, flags = _kernels._walk(xs, sup_w, sup_caps, caps, sub_w, tables.grow(s))
    assert z.tolist() == [pair.count_expressible(x) for x in xs]
    assert flags.tolist() == [is_member(pair.sub, pair.sup_num.encode(x)) for x in xs]
    assert flags[-len(ys):].all()
    assert pair.counts_at(xs).tolist() == z.tolist()


@settings(max_examples=30, deadline=None)
@given(
    pair=nested_pairs(),
    budget=st.sampled_from([3, 10, 60, 400, None]),  # 3: level 0 holds one entry per offset
    calls=st.lists(
        st.tuples(st.booleans(), st.integers(1, 12), st.integers(0, 10**12), st.integers(1, 120)),
        min_size=1, max_size=6,
    ),
)
def test_tables_grow_and_are_reused_across_calls(pair, budget, calls):
    """Calls in any order of magnitude grow one pair's tables and reuse them; every answer stays exact.

    A low entry budget stops the tables below the calls' top index, so the
    sweep above the level runs as well as the pure lookup and the slice.
    """
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(_kernels, "_TABLE_ENTRIES", budget)
        for is_mask, digits, seed, width in calls:
            lo = seed % 10**digits
            if is_mask:
                # some ranges straddle the cached level's top weight
                top = pair._ranks.level if pair._ranks is not None else 0
                if seed % 3 == 0 and top:
                    lo = max(0, pair.sup_num.weight(top + 1) - width // 2)
                got = pair.expressible_mask(lo, lo + width).tolist()
                assert got == [is_member(pair.sub, pair.sup_num.encode(n)) for n in range(lo, lo + width)]
            else:
                xs = [lo + 1 + (seed * k) % (width * 7 + 1) for k in range(width % 40 + 1)]
                assert pair.counts_at(xs).tolist() == [pair.count_expressible(x) for x in xs]
            tables = pair._ranks
            assert sum(map(len, tables.T)) <= _kernels._TABLE_ENTRIES


def test_import_and_pairs_build_no_tables():
    """Importing the package and building pairs imports no numpy and builds no rank tables."""
    code = (
        "import sys\n"
        "import zeckdual, zeckdual.cli\n"
        f"pairs = [zeckdual.SystemPair(sub, sup) for sub, sup in {sorted(PAIR_RULES.values())!r}]\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "assert all(p._ranks is None for p in pairs), 'tables built'\n"
    )
    src = str(Path(zeckdual.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
