"""Weights, member encoding and enumeration for a cyclic digit rule.

The weight sequence starts at 1 and is defined so that every nonnegative
integer has exactly one member expansion, and member vectors are in
value-preserving bijection with the nonnegative integers.  All arithmetic
here is exact (Python ints); the int64 fast paths live in ``_kernels``.
"""

from __future__ import annotations

from bisect import bisect_right

from .digits import DigitRule, DigitVector, basis_predecessor, decompose, is_member, NotMemberError


class InternalInconsistencyError(RuntimeError):
    """Encoding failed to land on a member vector.

    This cannot happen for a valid rule; seeing it means the weight
    recurrence and the block scan disagree, i.e. a bug.
    """


class Numeration:
    """Weight sequence and codec for one digit rule."""

    def __init__(self, rule: DigitRule):
        if not isinstance(rule, DigitRule):
            rule = DigitRule(tuple(rule))
        self.rule = rule
        self._w = [1]  # weight(1) == 1

    def _extend_to(self, n: int) -> None:
        ent = self.rule.entries
        N = len(ent)
        w = self._w
        while len(w) < n:
            m = len(w) + 1
            if m <= N:
                # short range: one more than the value of the predecessor vector
                pred = basis_predecessor(self.rule, m)
                w.append(1 + sum(v * w[k - 1] for k, v in pred.items()))
            else:
                # cyclic caps have settled into a fixed linear recurrence
                acc = (1 + ent[N - 1]) * w[m - 1 - N]
                for k in range(1, N):
                    acc += ent[k - 1] * w[m - 1 - k]
                w.append(acc)

    def weight(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"weight index must be >= 1, got {n}")
        self._extend_to(n)
        return self._w[n - 1]

    def weights(self, count: int) -> list[int]:
        """First ``count`` weights as a list."""
        self._extend_to(count)
        return self._w[:count]

    def top_index(self, n: int) -> int:
        """Number of weights <= n: the top index of n's expansion, 0 for n == 0."""
        w = self._w
        while w[-1] <= n:
            self._extend_to(len(w) + 1)
        return bisect_right(w, n)

    def decode(self, vec: DigitVector) -> int:
        """Value of a digit vector: sum of digit * weight."""
        return sum(v * self.weight(k) for k, v in vec.items())

    def encode(self, n: int) -> DigitVector:
        """Member expansion of ``n >= 0``: top-down, each digit clipped to its cap.

        Plain floor division is not enough: the quotient at an index can
        exceed the cap the block pattern allows there, while the digits
        below (whose caps come later in the cycle) can absorb the excess.
        Under rule 2,3,0 the expansion of 9 is digits (3, 2), not (0, 3).
        Clipping to the cap and tracking the pattern offset yields the
        member vector; the closing check is pure paranoia.
        """
        if n < 0:
            raise ValueError(f"cannot encode negative value {n}")
        if n == 0:
            return DigitVector()
        t = self.top_index(n)
        d = {}
        rem = n
        off = 0
        for k in range(t, 0, -1):
            cap = self.rule.cap(off)
            q = rem // self._w[k - 1]
            if q > cap:
                q = cap
            if q:
                d[k] = q
            rem -= q * self._w[k - 1]
            off = off + 1 if q == cap else 0
        vec = DigitVector(d)
        if rem != 0 or not is_member(self.rule, vec):
            raise InternalInconsistencyError(
                f"capped expansion of {n} under rule {self.rule} is not a member"
            )
        return vec

    def members_below(self, max_value: int):
        """Yield ``(vector, value)`` for every member with value < max_value, ascending.

        Digits are bounded by the largest rule cap, so the search space is a
        finite box; value pruning keeps the walk close to the actual member
        count.
        """
        if max_value <= 0:
            return
        top = self.top_index(max_value - 1)
        maxd = self.rule.max_digit
        out = []

        def walk(idx, acc, digits):
            if idx == 0:
                vec = DigitVector(digits)
                if is_member(self.rule, vec):
                    out.append((vec, acc))
                return
            w = self._w[idx - 1]
            v = acc
            for d in range(maxd + 1):
                if v >= max_value:
                    break
                if d:
                    digits[idx] = d
                walk(idx - 1, v, digits)
                v += w
            digits.pop(idx, None)

        walk(top, 0, {})
        out.sort(key=lambda t: t[1])
        yield from out
