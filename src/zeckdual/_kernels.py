"""Batch kernels for range scans.

Every row is one input value; the loops run over weight indices with all
rows advanced together.  Inputs, weights and counts take the dtype of the
weights passed in, int64 or object (Python ints, exact at any size, for
callers past int64); positions, offsets, caps, digits and the rank tables
stay int64.

There is one walk.  ``_capped_columns`` peels the capped digits off the
top: the floor quotient at each weight, clipped to the extraction-pattern
cap.  ``digit_matrix`` stores those columns.  ``_walk`` matches them
against the scan caps: a digit under its cap closes the current block
(pattern restarts), a digit equal to its cap keeps the block open, and a
digit over its cap decides non-membership.  At that point the dual count
is the sub weight one above the open block's top plus the value of the
digits already passed.

The sweep stops at the level ``L`` of a ``RankTables``.  Below it every
surviving row is finished by one ``searchsorted``.  Sup-expansion
preserves order, so the members that share the row's prefix and lie below
it are the sub-legal strings on indices ``1..L`` whose sup value is below
the row's leftover ``r``.  The set of legal strings depends only on the
scan offset ``o`` at which they enter, and the tables list their sorted
sup values ``T_o``.  The count is then the sub value of the prefix plus
the rank of ``r`` in ``T_o``, and membership means ``r`` is in ``T_o``.
When every x lies below the sup weight of index ``L + 1`` the sweep is
empty: the count is ``searchsorted(T_0, x)``, and the members in
``[lo, hi)`` are the slice of ``T_0`` between ``lo`` and ``hi``.

Both lookups search the rows in key order (``_ranks``): the keys are
sorted, searched, and their ranks put back in the rows' order.
Random keys over a large table miss the cache on almost every search;
sorted ones walk the table forward.  Where the keys are at least as many
as the table's entries the table stays in cache anyway, and the keys are
searched as they come.

A ``SystemPair`` keeps one ``RankTables`` and grows it on demand, one
level at a time, toward m for a call whose top index is m.  Growth stops
below a level whose tables would hold more than ``_TABLE_ENTRIES`` entries
over all offsets together or an entry of 2^62 or more, or above which no
sup weight below 2^62 is left.  So a pair holds at most
``8 * _TABLE_ENTRIES`` bytes of tables (8 MB; a growth step briefly holds
the level below as well), and a call's other arrays are O(rows).
Every level gives the same answer: at 0 every table is ``[0]`` and the
walk is the full column sweep.
"""

from __future__ import annotations

import numpy as np

_TABLE_ENTRIES = 1 << 20  # rank-table entries one pair keeps, all offsets together
_INT64_SAFE = 1 << 62  # sup weights and table entries stay below this


def kernels_enabled() -> bool:
    """Always False (no compiled backend); kept because ``bench/run.py`` records it as a machine fact."""
    return False


class RankTables:
    """Sorted sup values ``T[o]`` of the strings on indices ``1..level`` that are legal entering at offset o.

    ``sup_w`` lists sup weights from index 1 on; only those below 2^62 are
    kept.  ``caps`` are the scan (sub) caps.  The tables start at level 0
    and only ``grow`` builds them, within the bounds in the module docstring.
    """

    def __init__(self, sup_w, caps):
        self.sup_w = np.array([int(w) for w in sup_w if w < _INT64_SAFE], dtype=np.int64)
        self.caps = [int(c) for c in caps]
        self.level = 0
        self.T = [np.zeros(1, dtype=np.int64)] * len(self.caps)

    def grow(self, m: int) -> RankTables:
        """Raise the level toward ``m``, one index at a time, until a bound stops it; never lowers it.

        The top digit d at the new index splits each table: below its cap d
        closes the block (any fresh string follows), at its cap the block
        stays open one offset further.  Each part lies below the next, so
        writing them in order into one array keeps it sorted: ``T_o`` grows
        to ``c_o |T_0| + |T_(o+1)|`` entries, the largest ``c_o w`` above
        that of ``T_(o+1)``.
        """
        caps = self.caps
        while self.level < m and self.level + 1 < len(self.sup_w):
            w = int(self.sup_w[self.level])
            fresh, n = self.T[0], len(self.T[0])
            tails = self.T[1:] + self.T[:1]  # T_(o+1) for each offset o
            sizes = [c * n + len(tail) for c, tail in zip(caps, tails)]
            top = max(int(tail[-1]) + c * w for c, tail in zip(caps, tails))
            if sum(sizes) > _TABLE_ENTRIES or top >= _INT64_SAFE:
                break
            grown = []
            for c, tail, size in zip(caps, tails, sizes):
                if not c:  # no fresh part, and the open part is unshifted
                    grown.append(tail)
                    continue
                t = np.empty(size, dtype=np.int64)
                for d in range(c):
                    np.add(fresh, d * w, out=t[d * n:(d + 1) * n])
                np.add(tail, c * w, out=t[c * n:])
                grown.append(t)
            self.T = grown
            self.level += 1
        return self

    def mask(self, lo: int, hi: int):
        """Membership of every n in ``[lo, hi)``, for ``hi - 1`` below the sup weight of index ``level + 1``."""
        T = self.T[0]
        out = np.zeros(hi - lo, dtype=bool)
        out[T[np.searchsorted(T, lo):np.searchsorted(T, hi)] - lo] = True
        return out


def _capped_columns(rem, weights, caps, stop):
    """Yield ``(k, digits)`` for columns ``k = m-1 .. stop``, peeling them off ``rem`` in place.

    Column k holds index k+1.  The floor quotient is clipped to the cyclic
    cap at the current pattern offset (a plain quotient can overshoot what
    the block pattern allows).  After the last column ``rem`` holds what
    the indices ``1..stop`` still have to express.
    """
    N = len(caps)
    step = np.roll(np.arange(N), -1)  # offset o -> (o + 1) % N
    off = np.zeros(len(rem), dtype=np.int64)
    for k in range(len(weights) - 1, stop - 1, -1):
        cap = caps[off]
        d = np.minimum(rem // weights[k], cap)
        rem -= d * weights[k]
        off = step[off] * (d == cap)
        yield k, d


def digit_matrix(xs, weights, caps):
    """Member digits of each x over ``weights``/``caps``; column k is index k+1."""
    weights = np.asarray(weights)
    rem = np.array(xs, dtype=weights.dtype)
    caps = np.asarray(caps, dtype=np.int64)
    out = np.empty((len(rem), len(weights)), dtype=np.int64)
    for k, d in _capped_columns(rem, weights, caps, 0):
        out[:, k] = d
    return out


def _ranks(table, keys):
    """``searchsorted(table, keys)`` for 1-D keys; keys fewer than the entries are searched in sorted order."""
    if len(keys) >= len(table):
        return np.searchsorted(table, keys)
    order = np.argsort(keys)
    rank = np.empty_like(order)
    rank[order] = np.searchsorted(table, keys[order])
    return rank


def _walk(xs, sup_w, sup_caps, caps, sub_w, tables):
    """Top sweep over indices ``m..level+1``, then one rank lookup per row in ``tables``.

    Returns ``(counts, flags)``: the expressible count below each x and
    whether x itself is expressible.  ``counts`` is None when ``sub_w`` is
    None.  The tables must be over the same sup weights and ``caps``; any
    level gives the same answer.  Each lookup (``_ranks``) searches its
    rows in key order when they are fewer than the table's entries.
    """
    sup_w = np.asarray(sup_w)
    count = sub_w is not None
    s = tables.level
    if len(sup_w) <= s:  # every x is below the tables' top: one lookup in T_0
        T = tables.T[0]
        r = np.asarray(xs, dtype=np.int64)
        rank = _ranks(T, r)
        return (rank if count else None), T[np.minimum(rank, len(T) - 1)] == r
    sup_caps = np.asarray(sup_caps, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.int64)
    r = np.array(xs, dtype=sup_w.dtype)
    n = len(r)
    N = len(caps)
    if count:
        sub_w = np.asarray(sub_w, dtype=sup_w.dtype)
    alive = np.ones(n, dtype=bool)
    pos = np.zeros(n, dtype=np.int64)  # offset inside the open sub block
    z = np.zeros(n, dtype=sup_w.dtype)
    done = np.zeros(n, dtype=sup_w.dtype)  # value of closed blocks, sub weights
    cur = np.zeros(n, dtype=sup_w.dtype)  # value of the open block so far
    for k, d in _capped_columns(r, sup_w, sup_caps, s):
        cap = caps[pos % N]
        over = alive & (d > cap)
        if over.any():
            alive &= ~over
            if count:
                # sub_w[i] is the weight of index i+1; the block top is k+1+pos
                z[over] = sub_w[k + 1 + pos[over]] + done[over]
        # rows that failed are never read again, so update every row
        keeps = d == cap
        if count:
            cur += d * sub_w[k]
            closes = d < cap
            done += cur * closes
            cur *= keeps
        pos = (pos + 1) * keeps
    if r.dtype == object:
        # every table entry is below 2^62, so a larger leftover ranks past them all
        r = np.minimum(r, _INT64_SAFE).astype(np.int64)
    flags = np.zeros(n, dtype=bool)
    off = pos % N
    for o, table in enumerate(tables.T):
        rows = np.flatnonzero(alive & (off == o))
        if not len(rows):
            continue
        rank = _ranks(table, r[rows])
        flags[rows] = table[np.minimum(rank, len(table) - 1)] == r[rows]
        if count:
            z[rows] = done[rows] + cur[rows] + rank
    return (z if count else None), flags


def _own_tables(sup_w, caps):
    """Tables for a call that brings none, grown as far as ``sup_w`` reaches."""
    return RankTables(sup_w, caps).grow(len(sup_w))


def member_flags(ns, sup_w, sup_caps, caps, tables=None):
    """Membership of the sup-expansion of each n in the ``caps`` pattern."""
    return _walk(ns, sup_w, sup_caps, caps, None, tables or _own_tables(sup_w, caps))[1]


def dual_counts(xs, sup_w, sup_caps, caps, sub_w, tables=None):
    """Exact expressible count below each x; ``sub_w`` must extend one past ``sup_w``."""
    return _walk(xs, sup_w, sup_caps, caps, sub_w, tables or _own_tables(sup_w, caps))[0]
