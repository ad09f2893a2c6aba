"""Batch kernels for range scans.

Every row is one input value; the loops run over weight indices with all
rows advanced together.  Values (inputs, weights, counts, rank tables) take
the dtype of the weights passed in, int64 or object (Python ints, exact at any
size, for callers past int64); positions, offsets, caps and digits stay int64.

There is one walk.  ``_capped_columns`` peels the capped digits off the
top: the floor quotient at each weight, clipped to the extraction-pattern
cap.  ``digit_matrix`` stores those columns.  ``_walk`` matches them
against the scan caps: a digit under its cap closes the current block
(pattern restarts), a digit equal to its cap keeps the block open, and a
digit over its cap decides non-membership.  At that point the dual count
is the sub weight one above the open block's top plus the value of the
digits already passed.

The sweep stops at a split index ``s``.  Below it every surviving row is
finished by one ``searchsorted``.  Sup-expansion preserves order, so the
members that share the row's prefix and lie below it are the sub-legal
strings on indices ``1..s`` whose sup value is below the row's leftover
``r``.  The set of legal strings depends only on the scan offset ``o`` at
which they enter, and ``_rank_tables`` lists their sorted sup values
``T_o``.  The count is then the sub value of the prefix plus the rank of
``r`` in ``T_o``, and membership means ``r`` is in ``T_o``.

``_split_index`` picks the largest ``s`` whose tables hold at most
``_TABLE_ROWS`` entries per input row in total, so a call's peak memory
is O(rows), not O(rows x indices).  At ``s = 0`` every table is ``[0]``
and the walk is the full column sweep; at ``s = m`` it is a pure rank
lookup.
"""

from __future__ import annotations

import numpy as np

_TABLE_ROWS = 16  # rank-table entries allowed per input row


def kernels_enabled() -> bool:
    """Always False (no compiled backend); kept because ``bench/run.py`` records it as a machine fact."""
    return False


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


def _split_index(m, caps, rows):
    """Largest ``s <= m`` whose rank tables hold at most ``_TABLE_ROWS * rows`` entries (0 if none).

    The sizes follow from the caps alone: ``|T_o|`` at s is ``c_o`` times
    ``|T_0|`` at s-1 plus ``|T_(o+1)|`` at s-1, each table at s = 0 being ``[0]``.
    """
    caps = [int(c) for c in caps]
    N = len(caps)
    budget = _TABLE_ROWS * rows
    sizes = [1] * N
    s = 0
    while s < m:
        nxt = [c * sizes[0] + sizes[(o + 1) % N] for o, c in enumerate(caps)]
        if sum(nxt) > budget:
            break
        sizes = nxt
        s += 1
    return s


def _rank_tables(sup_w, caps, s):
    """Sorted sup values ``T_o`` of the strings on indices ``1..s`` that are legal entering at offset o.

    Built bottom up by splitting on the top digit d at index k: below its
    cap d closes the block (any fresh string follows), at its cap the block
    stays open one offset further.  Each part lies below the next, so
    concatenation keeps the table sorted.
    """
    caps = [int(c) for c in caps]
    N = len(caps)
    tables = [np.zeros(1, dtype=sup_w.dtype)] * N
    for k in range(s):
        w = sup_w[k]
        fresh = tables[0]
        tables = [
            np.concatenate(((np.arange(c, dtype=sup_w.dtype)[:, None] * w + fresh).ravel(),
                            tables[(o + 1) % N] + c * w))
            for o, c in enumerate(caps)
        ]
    return tables


def _walk(xs, sup_w, sup_caps, caps, sub_w, s):
    """Top sweep over indices ``m..s+1``, then one rank lookup per row at ``s``.

    Returns ``(counts, flags)``: the expressible count below each x and
    whether x itself is expressible.  ``counts`` is None when ``sub_w`` is
    None.  Any ``0 <= s <= len(sup_w)`` gives the same answer.
    """
    sup_w = np.asarray(sup_w)
    sup_caps = np.asarray(sup_caps, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.int64)
    r = np.array(xs, dtype=sup_w.dtype)
    n = len(r)
    N = len(caps)
    count = sub_w is not None
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
    flags = np.zeros(n, dtype=bool)
    off = pos % N
    for o, table in enumerate(_rank_tables(sup_w, caps, s)):
        rows = np.flatnonzero(alive & (off == o))
        if not len(rows):
            continue
        rank = np.searchsorted(table, r[rows])
        flags[rows] = table[np.minimum(rank, len(table) - 1)] == r[rows]
        if count:
            z[rows] = done[rows] + cur[rows] + rank
    return (z if count else None), flags


def member_flags(ns, sup_w, sup_caps, caps):
    """Membership of the sup-expansion of each n in the ``caps`` pattern."""
    return _walk(ns, sup_w, sup_caps, caps, None, _split_index(len(sup_w), caps, len(ns)))[1]


def dual_counts(xs, sup_w, sup_caps, caps, sub_w):
    """Exact expressible count below each x; ``sub_w`` must extend one past ``sup_w``."""
    return _walk(xs, sup_w, sup_caps, caps, sub_w, _split_index(len(sup_w), caps, len(xs)))[0]
