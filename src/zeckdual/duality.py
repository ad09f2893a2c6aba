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

    def __init__(self, sub, sup, depth: int | None = None):
        sub = sub if isinstance(sub, DigitRule) else DigitRule(tuple(sub))
        sup = sup if isinstance(sup, DigitRule) else DigitRule(tuple(sup))
        if same_collection(sub, sup):
            raise SubcollectionError(
                f"rules {sub} and {sup} generate the same collection; the pair must be proper"
            )
        if not is_subcollection(sub, sup, depth):
            raise SubcollectionError(f"rule {sub} is not nested inside {sup}")
        self.sub = sub
        self.sup = sup
        self.sub_num = Numeration(sub)
        self.sup_num = Numeration(sup)

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

    # -- batch helpers (int64 fast path with exact fallback) ----------------

    def _int64_tables(self, max_x: int):
        """(sup_weights, sup_caps, sub_caps, sub_weights) int64 arrays, or None.

        sub weights go one index beyond the sup table because the rounding
        step can carry into a fresh top position.  None means the values do
        not fit int64 and the caller must take the exact path.
        """
        import numpy as np

        if max_x >= 1 << 62:
            return None
        m = self.sup_num.top_index(max_x)
        ws = self.sup_num.weights(m)
        wsub = self.sub_num.weights(m + 1)
        if wsub[-1] >= 1 << 63 or ws[-1] >= 1 << 63:
            return None
        return (
            np.array(ws, dtype=np.int64),
            np.array(self.sup.entries, dtype=np.int64),
            np.array(self.sub.entries, dtype=np.int64),
            np.array(wsub, dtype=np.int64),
        )

    def counts_at(self, xs):
        """``count_expressible`` for every x in xs (array-like of ints >= 1)."""
        import numpy as np

        from . import _kernels

        xs = list(xs)
        if not xs:
            return np.zeros(0, dtype=np.int64)
        if min(xs) < 1:
            raise ValueError("count needs x >= 1")
        tables = self._int64_tables(max(xs))
        if tables is None:
            return np.array([self.count_expressible(x) for x in xs], dtype=object)
        sup_w, sup_caps, caps, sub_w = tables
        return _kernels.dual_counts(np.asarray(xs, dtype=np.int64), sup_w, sup_caps, caps, sub_w)

    def expressible_mask(self, lo: int, hi: int):
        """Boolean array over n in [lo, hi): sup-expansion is a sub member."""
        import numpy as np

        from . import _kernels

        if lo < 0 or hi < lo:
            raise ValueError(f"bad range [{lo}, {hi})")
        if hi == lo:
            return np.zeros(0, dtype=bool)
        tables = self._int64_tables(max(hi - 1, 1))
        if tables is None:
            return np.array(
                [is_member(self.sub, self.sup_num.encode(n)) for n in range(lo, hi)]
            )
        sup_w, sup_caps, caps, _ = tables
        ns = np.arange(lo, hi, dtype=np.int64)
        return _kernels.member_flags(ns, sup_w, sup_caps, caps)
