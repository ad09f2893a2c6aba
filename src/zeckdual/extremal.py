"""Extremal search for the normalized count ratio.

On the real side of the correspondence, digit strings read bottom-up tile
an initial segment of the indices with blocks following the same cyclic
caps.  The ratio functional evaluated on such strings attains its extremes
on a finite candidate list, read off one bottom-up walk of those strings:
strings whose blocks have all closed, followed by an all-caps tail (bounded
tail position), and finite strings of one short length.  Scaling the extreme
values by alpha / alpha_sup**gamma turns them into the lim sup / lim inf of
count(x) / x**gamma.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .digits import DigitRule, DigitVector
from .duality import SystemPair
from .spectra import SpectralConstants, derived_constants


# extremes() refuses pairs whose candidate bound exceeds this; (2,0) in (2,1),
# among the largest that finish in seconds, has a bound of 116,430
MAX_CANDIDATES = 10**6


class InvalidCandidateError(ValueError):
    pass


def unit_blocks(rule: DigitRule, vec: DigitVector):
    """Bottom-up block reading of a finite digit string, or None.

    Starting at index 1, digits must match the cyclic caps upward until a
    digit strictly below its cap closes the block; the next block starts
    just above with the pattern reset.  Blocks may run past the support
    (trailing zeros close at the first positive cap).  Returns the list of
    (lo, hi) supports, or None when some digit exceeds its cap.
    """
    top = vec.order
    blocks = []
    i = 1
    while i <= top:
        lo = i
        j = i
        off = 0
        while True:
            cap = rule.cap(off)
            d = vec.digit(j)
            if d > cap:
                return None
            if d < cap:
                blocks.append((lo, j))
                i = j + 1
                break
            off += 1
            j += 1
    return blocks


def is_unit_member(rule: DigitRule, vec: DigitVector) -> bool:
    return unit_blocks(rule, vec) is not None


@dataclass(frozen=True)
class StarCandidate:
    """A candidate extremal digit string.

    ``prefix`` holds the finite digits; ``tail_index`` (when set) appends
    the infinite all-caps tail starting there, in which case the prefix
    must tile [1, tail_index - 1] exactly.  ``tail_index`` of 1 with an
    empty prefix is the pure tail string.
    """

    prefix: DigitVector
    tail_index: int | None = None

    def serialize(self) -> str:
        parts = ",".join(f"{k}:{v}" for k, v in self.prefix.items())
        if self.tail_index is not None:
            tail = f"tail@{self.tail_index}"
            return f"{parts}+{tail}" if parts else tail
        return parts


def validate_candidate(rule: DigitRule, cand: StarCandidate) -> None:
    pre = cand.prefix
    if cand.tail_index is None:
        if not pre:
            raise InvalidCandidateError("finite candidate must be nonzero")
        if pre.digit(1) < 1:
            raise InvalidCandidateError("candidate digit at index 1 must be >= 1")
        if unit_blocks(rule, pre) is None:
            raise InvalidCandidateError(f"{cand.serialize()!r} is not a valid block string")
        return
    ti = cand.tail_index
    if ti < 1:
        raise InvalidCandidateError(f"tail index must be >= 1, got {ti}")
    if ti == 1:
        if pre:
            raise InvalidCandidateError("tail at index 1 requires an empty prefix")
        return
    if pre.digit(1) < 1:
        raise InvalidCandidateError("candidate digit at index 1 must be >= 1")
    # trailing zero digits below the tail close as single-index blocks, so the
    # prefix blocks tile [1, ti-1] exactly when the last explicit one does not
    # run past it
    blocks = unit_blocks(rule, pre)
    if blocks is None or blocks[-1][1] > ti - 1:
        raise InvalidCandidateError(
            f"prefix of {cand.serialize()!r} must tile [1, {ti - 1}] exactly"
        )


def delta_star(pair: SystemPair, cand: StarCandidate, consts: SpectralConstants) -> float:
    """Ratio functional on one candidate string.

    Numerator reads the digits in the sub base; the all-caps tail from
    index b+1 contributes exactly omega**b there.  The denominator base
    reads them in the sup base, where the same tail contributes
    rho * omega_sup**b; the result is numerator / base**gamma.
    """
    validate_candidate(pair.sub, cand)
    return _ratio(cand, consts)


def _ratio(cand: StarCandidate, consts: SpectralConstants) -> float:
    num = 0.0
    den = 0.0
    for k, v in cand.prefix.items():
        num += v * consts.omega**k
        den += v * consts.omega_sup**k
    if cand.tail_index is not None:
        b = cand.tail_index - 1
        num += consts.omega**b
        den += consts.rho * consts.omega_sup**b
    return num / den**consts.gamma


def _tiling_count_seq(rule: DigitRule):
    """Yield the tiling counts of [1, n] for n = 0, 1, 2, ... without end."""
    ent = rule.entries
    N = len(ent)
    recent = deque([1], maxlen=N)  # recent[-k] is the count for n - k
    yield 1
    n = 0
    while True:
        n += 1
        if n <= N:
            c = sum(ent[j - 1] * recent[-j] for j in range(1, n + 1))
        else:
            c = (1 + ent[N - 1]) * recent[-N]
            for k in range(1, N):
                c += ent[k - 1] * recent[-k]
        recent.append(c)
        yield c


def tiling_counts(rule: DigitRule, n_max: int) -> list[int]:
    """Exact number of block tilings of [1, n] for n = 0..n_max.

    Split on the top block: for n up to the period that gives the full
    convolution with the caps; beyond it the counts satisfy the same
    order-N recurrence as the weights.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return list(islice(_tiling_count_seq(rule), n_max + 1))


def _block_strings(rule: DigitRule, depth: int, W, V, first: int = 0):
    """Yield ``(digits, pos, num, den)`` for each string on [1, n], n = 0..depth,
    whose bottom-up block reading never goes over a cap and whose first digit
    is at least ``first`` (0 or 1); ``digits[i]`` sits at i + 1.

    ``pos`` is the place of the next index in the open block, 0 once every
    block has closed.  It is not reduced mod N: under (1,0) the block of
    ``1:1`` is still open at [1, 2].  ``num`` and ``den`` are the sums of
    ``d * W[k]`` and ``d * V[k]`` over the digits d at k, added in ascending k.
    """
    ent = rule.entries
    N = len(ent)
    stack = [((), 0, 0.0, 0.0)]
    while stack:
        digits, pos, num, den = stack.pop()
        yield digits, pos, num, den
        k = len(digits) + 1
        if k <= depth:
            cap = ent[pos % N]
            w, v = W[k], V[k]
            # a rule's first entry is >= 1, so the capped first digit is never below ``first``
            lo = first if k == 1 else 0
            stack.extend((digits + (d,), 0, num + d * w, den + d * v) for d in range(lo, cap))
            stack.append((digits + (cap,), pos + 1, num + cap * w, den + cap * v))


def enumerate_tilings(rule: DigitRule, n: int):
    """Yield every digit dict whose bottom-up blocks tile [1, n] exactly."""
    unscored = [0] * (n + 1)
    for digits, pos, _, _ in _block_strings(rule, n, unscored, unscored):
        if len(digits) == n and pos == 0:
            yield {i: d for i, d in enumerate(digits, 1) if d}


def generating_identity_check(rule: DigitRule, degree: int) -> bool:
    """Exact convolution test: tiling counts against the caps polynomial.

    The generating function of the counts times
    1 - e_1 x - ... - e_{N-1} x^{N-1} - (1+e_N) x^N
    must equal 1 - x^N; checked coefficient by coefficient over the
    integers up to ``degree``.
    """
    ent = rule.entries
    N = len(ent)
    if degree < N:
        raise ValueError(f"degree must be >= {N}, got {degree}")
    C = tiling_counts(rule, degree)
    f = [0] * (N + 1)
    f[0] = 1
    for k in range(1, N):
        f[k] = -ent[k - 1]
    f[N] = -(1 + ent[N - 1])
    for t in range(degree + 1):
        conv = sum(C[t - j] * f[j] for j in range(min(t, N) + 1))
        expected = 1 if t == 0 else (-1 if t == N else 0)
        if conv != expected:
            return False
    return True


def measure_check(pair: SystemPair, consts: SpectralConstants, terms: int) -> float:
    """Partial sum of the tiling measure; approaches 1 from below.

    Each tiling of [1, b] carries weight omega_sup**b * (1 - rho); summing
    over all finite tilings gives total measure 1.
    """
    C = tiling_counts(pair.sub, terms)
    s = 0.0
    for b, c in enumerate(C):
        s += c * consts.omega_sup**b
    return s * (1.0 - consts.rho)


def measure_tail_bound(consts: SpectralConstants, terms: int) -> float:
    """Geometric bound on the mass beyond ``terms`` (counts grow under phi**b)."""
    r = consts.phi * consts.omega_sup
    return (1.0 - consts.rho) * r ** (terms + 1) / (1.0 - r)


def _limits(consts: SpectralConstants) -> tuple[int, int]:
    """The highest tail position and the length of the finite candidates."""
    return math.ceil(max(2.0, consts.p_star)), consts.p_dagger - 1


def _scored_strings(rule: DigitRule, consts: SpectralConstants):
    """Yield ``(digits, tail_index, score)`` for each candidate, in walk order.

    The walk carries the sub and sup readings of each string, so a score is
    one division: the same sums in the same order as ``_ratio``, bit for
    bit.  Strings that start with a 0 are no candidates and are not walked.
    """
    top_tail, span = _limits(consts)
    depth = max(top_tail - 1, span)
    W = [consts.omega**k for k in range(depth + 1)]
    V = [consts.omega_sup**k for k in range(depth + 1)]
    # what the all-caps tail from index b + 1 adds to the sup reading
    T = [consts.rho * v for v in V[:top_tail]]
    gamma = consts.gamma
    for digits, pos, num, den in _block_strings(rule, depth, W, V, first=1):
        n = len(digits)
        if pos == 0 and n < top_tail:
            yield digits, n + 1, (num + W[n]) / (den + T[n]) ** gamma
        if n == span:
            yield digits, None, num / den**gamma


def _first_serialized(tied) -> StarCandidate:
    """The tied ``(digits, tail_index)`` string with the smallest serialization."""
    cands = (StarCandidate(DigitVector.from_dense(digits), ti) for digits, ti in tied)
    return min(cands, key=StarCandidate.serialize)


@dataclass(frozen=True)
class ExtremalReport:
    """The extremes of the ratio functional and the envelope they scale to.

    The maximum comes from the walk over every candidate; the minimum is
    read off ``1:1`` (see ``extremes``), so ``liminf`` is
    alpha / alpha_sup**gamma times its score.
    """

    max_candidate: StarCandidate
    min_candidate: StarCandidate
    delta_max: float
    delta_min: float
    limsup: float
    liminf: float
    # what the candidate table is walked from on first read
    pair: SystemPair = field(repr=False, compare=False)
    consts: SpectralConstants = field(repr=False, compare=False)

    @cached_property
    def all_candidates(self) -> tuple:
        """Every ``(candidate, score)`` in walk order, built on first read."""
        return tuple(
            (StarCandidate(DigitVector.from_dense(digits), ti), v)
            for digits, ti, v in _scored_strings(self.pair.sub, self.consts)
        )


def extremes(pair: SystemPair, consts: SpectralConstants | None = None) -> ExtremalReport:
    """Evaluate the ratio functional on the full finite candidate list.

    Tail candidates: tail position up to ceil(max(2, p_star)), prefix any
    walk string on [1, tail - 1] whose blocks have all closed, first digit >= 1
    (the pure tail included).  Finite candidates: walk strings of length
    p_dagger - 1 with first digit >= 1.  The extremes over this list
    scale to the lim sup / lim inf of the counting ratio.  Only the maximum
    and its tied strings are kept; ``all_candidates`` walks again on first
    read.

    The minimum needs no search.  For 0 < gamma < 1 the map t -> t**gamma is
    subadditive and omega_sup**gamma == omega, so every candidate has
    D**gamma <= N, with equality only for a single 1 at index 1.  So the
    minimum is ``1:1``, scored with ``_ratio`` as the walk would score it.
    """
    if consts is None:
        consts = derived_constants(pair)
    rule = pair.sub
    top_tail, span = _limits(consts)
    maxd = rule.max_digit
    # Bound the candidates the walk yields (each string of length span, each
    # tiling below a tail position) and stop once past the limit: near-equal
    # growth rates push p so high that the full count would have thousands
    # of digits.  A box of 2**20 strings is already past it.
    generated = (maxd + 1) ** min(span, MAX_CANDIDATES.bit_length())
    for count in islice(_tiling_count_seq(rule), top_tail):
        generated += count
        if generated > MAX_CANDIDATES:
            break
    if generated > MAX_CANDIDATES:
        raise ValueError(
            f"extremes would generate more than {MAX_CANDIDATES} candidate strings for "
            f"{pair.sub} in {pair.sup} (tail positions up to {top_tail}, "
            f"finite strings of length {span})"
        )

    vmax, tied = -math.inf, []
    for digits, ti, v in _scored_strings(rule, consts):
        if v >= vmax:
            if v > vmax:
                vmax, tied = v, []
            tied.append((digits, ti))
    unit = StarCandidate(DigitVector({1: 1}))
    vmin = _ratio(unit, consts)
    scale = consts.alpha / consts.alpha_sup**consts.gamma
    return ExtremalReport(
        # ties resolved by ascending serialization so reports are stable
        max_candidate=_first_serialized(tied),
        min_candidate=unit,
        delta_max=vmax,
        delta_min=vmin,
        limsup=scale * vmax,
        liminf=scale * vmin,
        pair=pair,
        consts=consts,
    )
