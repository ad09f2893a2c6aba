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
from dataclasses import dataclass
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


def _block_strings(rule: DigitRule, depth: int):
    """Yield ``(digits, pos)`` for each string on [1, n], n = 0..depth, whose
    bottom-up block reading never goes over a cap; ``digits[i]`` sits at i + 1.

    ``pos`` is the place of the next index in the open block, 0 once every
    block has closed.  It is not reduced mod N: under (1,0) the block of
    ``1:1`` is still open at [1, 2].
    """
    ent = rule.entries
    N = len(ent)
    stack = [((), 0)]
    while stack:
        digits, pos = stack.pop()
        yield digits, pos
        if len(digits) < depth:
            cap = ent[pos % N]
            stack.extend((digits + (d,), 0) for d in range(cap))
            stack.append((digits + (cap,), pos + 1))


def enumerate_tilings(rule: DigitRule, n: int):
    """Yield every digit dict whose bottom-up blocks tile [1, n] exactly."""
    for digits, pos in _block_strings(rule, n):
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


@dataclass(frozen=True)
class ExtremalReport:
    max_candidate: StarCandidate
    min_candidate: StarCandidate
    delta_max: float
    delta_min: float
    limsup: float
    liminf: float
    all_candidates: tuple


def extremes(pair: SystemPair, consts: SpectralConstants | None = None) -> ExtremalReport:
    """Evaluate the ratio functional on the full finite candidate list.

    Tail candidates: tail position up to ceil(max(2, p_star)), prefix any
    walk string on [1, tail - 1] whose blocks have all closed, first digit >= 1
    (the pure tail included).  Finite candidates: walk strings of length
    p_dagger - 1 with first digit >= 1.  The extremes over this list
    scale to the lim sup / lim inf of the counting ratio.
    """
    if consts is None:
        consts = derived_constants(pair)
    rule = pair.sub
    cands: list[StarCandidate] = []

    top_tail = math.ceil(max(2.0, consts.p_star))
    span = consts.p_dagger - 1
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
    for digits, pos in _block_strings(rule, max(top_tail - 1, span)):
        if digits and digits[0] == 0:
            continue
        n = len(digits)
        if pos == 0 and n < top_tail:
            cands.append(StarCandidate(DigitVector.from_dense(digits), n + 1))
        if n == span:
            cands.append(StarCandidate(DigitVector.from_dense(digits), None))

    # the walk yields only legal strings, so they are scored without validation
    scored = tuple((c, _ratio(c, consts)) for c in cands)
    vmax = max(v for _, v in scored)
    vmin = min(v for _, v in scored)
    # ties resolved by ascending serialization so reports are stable
    cmax = min((c for c, v in scored if v == vmax), key=lambda c: c.serialize())
    cmin = min((c for c, v in scored if v == vmin), key=lambda c: c.serialize())
    scale = consts.alpha / consts.alpha_sup**consts.gamma
    return ExtremalReport(
        max_candidate=cmax,
        min_candidate=cmin,
        delta_max=vmax,
        delta_min=vmin,
        limsup=scale * vmax,
        liminf=scale * vmin,
        all_candidates=scored,
    )
