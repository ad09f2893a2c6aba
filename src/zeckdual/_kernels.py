"""Batch int64 kernels for range scans.

Each kernel is a numpy column sweep: every row is one input value, and the
loop runs over weight indices with all rows advanced together.  Exact
big-int arithmetic lives in ``numeration``/``duality``; these kernels only
handle values that fit comfortably in int64 (callers check).

Digit extraction, membership and the dual count all share one structure:
walk the weights from the top, peel off the capped digit (the floor
quotient clipped to the extraction-pattern cap), and match it against the
scan caps.  A digit under its cap closes the current block (pattern
restarts), a digit equal to its cap keeps the block open, a digit over its
cap decides non-membership, at which point the dual count is the sub
weight one above the open block's top plus the value of the digits already
passed.
"""

from __future__ import annotations

import numpy as np


def kernels_enabled() -> bool:
    """Always False (no compiled backend); kept because ``bench/run.py`` records it as a machine fact."""
    return False


def digit_matrix(xs, weights, caps):
    """Member digits of each x over ``weights``/``caps``; column k is index k+1.

    The floor quotient is clipped to the cyclic cap at the current pattern
    offset (a plain quotient can overshoot what the block pattern allows).
    """
    xs = np.asarray(xs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.int64)
    m = len(weights)
    N = len(caps)
    out = np.empty((len(xs), m), dtype=np.int64)
    rem = xs.copy()
    pos = np.zeros(len(xs), dtype=np.int64)
    for k in range(m - 1, -1, -1):
        cap = caps[pos % N]
        d = np.minimum(rem // weights[k], cap)
        out[:, k] = d
        rem -= d * weights[k]
        cont = d == cap
        pos[cont] += 1
        pos[~cont] = 0
    return out


def member_flags(ns, sup_w, sup_caps, caps):
    """Membership of the sup-expansion of each n in the ``caps`` pattern."""
    digits = digit_matrix(ns, sup_w, sup_caps)
    nrows, m = digits.shape
    N = len(caps)
    failed = np.zeros(nrows, dtype=bool)
    pos = np.zeros(nrows, dtype=np.int64)
    for j in range(m, 0, -1):
        d = digits[:, j - 1]
        cap = caps[pos % N]
        live = ~failed
        failed |= live & (d > cap)
        closes = live & (d < cap)
        keeps = live & (d == cap)
        pos[closes] = 0
        pos[keeps] += 1
    return ~failed


def dual_counts(xs, sup_w, sup_caps, caps, sub_w):
    """Exact expressible count below each x; ``sub_w`` must extend one past ``sup_w``."""
    digits = digit_matrix(xs, sup_w, sup_caps)
    nrows, m = digits.shape
    N = len(caps)
    failed = np.zeros(nrows, dtype=bool)
    pos = np.zeros(nrows, dtype=np.int64)
    done = np.zeros(nrows, dtype=np.int64)  # value of closed blocks, sub weights
    cur = np.zeros(nrows, dtype=np.int64)  # value of the open block so far
    z = np.zeros(nrows, dtype=np.int64)
    for j in range(m, 0, -1):
        d = digits[:, j - 1]
        cap = caps[pos % N]
        live = ~failed
        over = live & (d > cap)
        if over.any():
            t0 = j + pos[over]  # top of the block the scan was inside
            z[over] = sub_w[t0] + done[over]  # sub_w[i] is the weight of index i+1
            failed[over] = True
        ok = live & ~over
        cur[ok] += d[ok] * sub_w[j - 1]
        closes = ok & (d < cap)
        done[closes] += cur[closes]
        cur[closes] = 0
        pos[closes] = 0
        pos[ok & (d == cap)] += 1
    alive = ~failed
    z[alive] = done[alive] + cur[alive]
    return z
