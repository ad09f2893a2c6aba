"""Nested pairs of digit systems and the exact expressibility count.

A pair (sub, sup) is usable when every member vector of the sub system is
also a member of the sup system and the two systems are not the same
collection in disguise.  For such a pair, the number of integers in
``[0, x)`` whose sup-expansion happens to be a sub member has a closed
form: round the sup-expansion of x up to the nearest sub member and read
that vector in the sub weights.  ``count_expressible`` implements exactly
that; ``count_expressible_brute`` is the literal scan it must agree with.
"""

from __future__ import annotations

import math
import operator

from .digits import (
    DigitRule,
    DigitVector,
    basis_predecessor,
    decompose,
    is_member,
    NotMemberError,
)
from .numeration import Numeration


class SubcollectionError(ValueError):
    """The two rules do not form a usable nested pair."""


class NotInSuperCollectionError(ValueError):
    """Vector handed to ceil_member is not a sup-system member."""


def same_collection(a: DigitRule, b: DigitRule) -> bool:
    """True when the two rules generate identical collections.

    That happens exactly when the rule lists agree after both are repeated
    out to the least common multiple of their periods.
    """
    n = math.lcm(a.period, b.period)
    return a.entries * (n // a.period) == b.entries * (n // b.period)


def is_subcollection(sub: DigitRule, sup: DigitRule, depth: int | None = None) -> bool:
    """Check that every sub member vector is a sup member.

    It is enough to test the basis predecessors of the sub system; beyond
    ``2 * N * M + 2`` the digit patterns repeat, so that is the default
    depth.
    """
    if depth is None:
        depth = 2 * sub.period * sup.period + 2
    return all(
        is_member(sup, basis_predecessor(sub, n)) for n in range(2, depth + 1)
    )


class SystemPair:
    """A validated nested pair with both weight sequences attached."""

    def __init__(self, sub, sup):
        sub = sub if isinstance(sub, DigitRule) else DigitRule(tuple(sub))
        sup = sup if isinstance(sup, DigitRule) else DigitRule(tuple(sup))
        if same_collection(sub, sup):
            raise SubcollectionError(
                f"rules {sub} and {sup} generate the same collection; the pair must be proper"
            )
        if not is_subcollection(sub, sup):
            raise SubcollectionError(f"rule {sub} is not nested inside {sup}")
        self.sub = sub
        self.sup = sup
        self.sub_num = Numeration(sub)
        self.sup_num = Numeration(sup)
        self._ranks = None  # rank tables, built by the first batch call

    def ceil_member(self, vec: DigitVector) -> DigitVector:
        """Smallest sub member >= vec in scan order (vec itself if it is one).

        When the sub scan fails at a block with top t0, the answer is a 1 at
        index t0+1 plus the digits of the blocks already completed above;
        everything below is dropped.
        """
        if not is_member(self.sup, vec):
            raise NotInSuperCollectionError(f"{vec!r} is not a member of the sup system")
        try:
            decompose(self.sub, vec)
            return vec
        except NotMemberError as e:
            t0 = e.block_top
            d = {k: v for k, v in vec.items() if k > t0}
            d[t0 + 1] = d.get(t0 + 1, 0) + 1
            return DigitVector(d)

    def count_expressible(self, x: int) -> int:
        """How many n in [0, x) have a sup-expansion that is a sub member."""
        if x < 1:
            raise ValueError(f"count needs x >= 1, got {x}")
        mu = self.sup_num.encode(x)
        return self.sub_num.decode(self.ceil_member(mu))

    def count_expressible_brute(self, x: int) -> int:
        """Same count by scanning every n in [0, x)."""
        if x < 1:
            raise ValueError(f"count needs x >= 1, got {x}")
        return sum(
            1 for n in range(x) if is_member(self.sub, self.sup_num.encode(n))
        )

    # -- batch helpers: one kernel call at every magnitude ------------------

    def _tables(self, max_x: int):
        """(sup_weights, sup_caps, sub_caps, sub_weights) arrays for values up to max_x.

        sub weights go one index beyond the sup table because the rounding
        step can carry into a fresh top position.  The weights are int64
        while max_x and both tables stay clear of int64 overflow, and
        object (Python ints) past that line; the caps are always int64.
        """
        import numpy as np

        m = self.sup_num.top_index(max_x)
        ws = self.sup_num.weights(m)
        wsub = self.sub_num.weights(m + 1)
        dt = np.int64 if max_x < 1 << 62 and wsub[-1] < 1 << 63 else object  # ws[-1] <= max_x
        return (
            np.array(ws, dtype=dt),
            np.array(self.sup.entries, dtype=np.int64),
            np.array(self.sub.entries, dtype=np.int64),
            np.array(wsub, dtype=dt),
        )

    def _rank_tables(self, m: int):
        """The pair's rank tables, grown toward level ``m`` within their bounds; the first call creates them."""
        from . import _kernels

        if self._ranks is None:
            top = self.sup_num.top_index(_kernels._INT64_SAFE - 1)
            self._ranks = _kernels.RankTables(self.sup_num.weights(top), self.sub.entries)
        return self._ranks.grow(m)

    def counts_at(self, xs):
        """``count_expressible`` for every x in xs (ints >= 1, or an integer ndarray).

        int64 below 2**62, Python ints above.  A ``range`` is taken as
        ``np.arange`` when its elements fit int64.  The result has the
        shape of xs.  The first call on a pair
        builds its rank tables up to the call's top index (at most 8 MB);
        later calls reuse them and grow them only for larger x.  For a
        single x, ``count_expressible`` avoids that build."""
        import numpy as np

        from . import _kernels

        if iter(xs) is xs:  # a one-shot iterator has no length; read it once
            xs = list(xs)
        if isinstance(xs, np.ndarray):
            if xs.dtype.kind not in "iuO":
                raise TypeError(f"counts_at needs integers, got dtype {xs.dtype}")
            xs = xs if np.can_cast(xs.dtype, np.int64) else xs.tolist()  # uint64 would wrap
        try:
            if isinstance(xs, range):
                if xs and not -(1 << 63) <= xs[-1] < 1 << 63:
                    raise OverflowError  # arange would wrap where asarray raises
                arr = np.arange(xs.start, xs.stop, xs.step, dtype=np.int64)
            else:
                arr = np.asarray(xs, dtype=np.int64)
        except OverflowError:
            obj = np.array(xs, dtype=object)  # a nested list keeps its shape
            arr = np.array([operator.index(x) for x in obj.ravel()], dtype=object).reshape(obj.shape)
        shape, arr = arr.shape, arr.ravel()  # the kernel walks a 1-D array
        if not len(arr):
            return np.zeros(shape, dtype=np.int64)
        if arr.min() < 1:
            raise ValueError("count needs x >= 1")
        sup_w, sup_caps, caps, sub_w = self._tables(int(arr.max()))
        tables = self._rank_tables(len(sup_w))
        return _kernels.dual_counts(arr, sup_w, sup_caps, caps, sub_w, tables).reshape(shape)

    def expressible_mask(self, lo: int, hi: int):
        """Boolean array over n in [lo, hi): sup-expansion is a sub member.

        Below the top of the pair's rank tables the mask is a slice of
        them; above, it is the walk."""
        import numpy as np

        from . import _kernels

        lo, hi = operator.index(lo), operator.index(hi)
        if lo < 0 or hi < lo:
            raise ValueError(f"bad range [{lo}, {hi})")
        if hi == lo:
            return np.zeros(0, dtype=bool)
        sup_w, sup_caps, caps, _ = self._tables(max(hi - 1, 1))
        tables = self._rank_tables(len(sup_w))
        if len(sup_w) <= tables.level:
            return tables.mask(lo, hi)
        ns = np.arange(lo, hi, dtype=sup_w.dtype)
        return _kernels.member_flags(ns, sup_w, sup_caps, caps, tables)
