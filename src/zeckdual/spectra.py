"""Growth constants of a digit rule and derived constants of a nested pair.

Each rule has a characteristic polynomial with a single root above 1; the
weights grow like ``alpha * phi**(n-1)``.  For a nested pair the derived
quantities are the exponent ``gamma`` comparing the two growth rates, the
repeating-caps value ``rho`` in the sup base, and the cutoff indices
``p`` / ``p_star`` / ``p_dagger`` that confine the extremal search to a
finite candidate list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .digits import DigitRule
from .duality import SystemPair
from .numeration import Numeration


class NoSignChangeError(ArithmeticError):
    """Root bracket failed to straddle a sign change (cannot happen for valid rules)."""


def char_poly(rule: DigitRule) -> list[int]:
    """Ascending coefficients of x^N - e_1 x^(N-1) - ... - e_(N-1) x - (1 + e_N)."""
    ent = rule.entries
    N = len(ent)
    coeffs = [0] * (N + 1)
    coeffs[N] = 1
    coeffs[0] = -(1 + ent[N - 1])
    for k in range(1, N):
        coeffs[N - k] = -ent[k - 1]
    return coeffs


def poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def dominant_root(coeffs, tol: float = 1e-12) -> float:
    """The unique root above 1 of a rule's characteristic polynomial.

    Bisection on the bracket [1, sum(|lower coeffs|) + 2] down to ``tol``
    or to adjacent doubles, then a few Newton steps to polish.
    """
    lo = 1.0
    hi = 2.0 + float(sum(abs(c) for c in coeffs[:-1]))
    flo = poly_eval(coeffs, lo)
    fhi = poly_eval(coeffs, hi)
    if not (flo < 0 < fhi):
        raise NoSignChangeError(f"no sign change on [{lo}, {hi}] for {coeffs}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        # above 8192 adjacent doubles are further apart than tol
        if mid == lo or mid == hi:
            break
        if poly_eval(coeffs, mid) < 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    deriv = poly_derivative(coeffs)
    for _ in range(4):
        fx = poly_eval(coeffs, x)
        dx = poly_eval(deriv, x)
        if dx == 0:
            break
        x -= fx / dx
    return x


def _log_root_error(coeffs, root: float) -> float:
    """Error bound on ``log(root)`` for a root polished by ``dominant_root``.

    The size of one more Newton step, relative to the root, bounds the
    root's own error; a few ulps of the log cover rounding in ``log``.
    """
    step = poly_eval(coeffs, root) / poly_eval(poly_derivative(coeffs), root)
    return abs(step) / root + 4 * math.ulp(math.log(root))


def growth_constant(rule: DigitRule, root: float, num: Numeration | None = None) -> float:
    """Limit of weight(n) / root**(n-1).

    Divide the characteristic polynomial by (x - root) synthetically; the
    limit is the quotient-weighted sum of the first N weights over the
    polynomial's derivative at the root.  This stays well-defined even when
    the root coincides with an integer base, where shortcut formulas with a
    (base - root) denominator would blow up.
    """
    if num is None:
        num = Numeration(rule)
    coeffs = char_poly(rule)
    N = rule.period
    # synthetic division: q[N-1] = c[N], q[k-1] = c[k] + root * q[k]
    q = [0.0] * N
    q[N - 1] = float(coeffs[N])
    for k in range(N - 1, 0, -1):
        q[k - 1] = float(coeffs[k]) + root * q[k]
    dphi = poly_eval(poly_derivative(coeffs), root)
    w = num.weights(N)
    return sum(w[k - 1] * q[k - 1] for k in range(1, N + 1)) / dphi


@dataclass(frozen=True)
class SpectralConstants:
    """Scalar constants of a nested pair.

    ``phi``/``phi_sup`` are the dominant roots of the sub/sup rules,
    ``omega``/``omega_sup`` their reciprocals, ``gamma`` the growth exponent
    log(phi)/log(phi_sup), ``alpha``/``alpha_sup`` the leading weight
    coefficients, ``rho`` the value of the sub caps as repeating digits in
    the sup base, ``p`` the smallest index where a single low digit in the
    sub base outweighs the repeating-caps tail (least p >= 1 with
    gamma * omega_sup**(p-1) < omega**p), ``p_star`` the derived real bound
    on tail positions of maximal candidates, and ``p_dagger`` = max(2, p)
    the support bound for minimal ones.
    """

    phi: float
    phi_sup: float
    omega: float
    omega_sup: float
    gamma: float
    alpha: float
    alpha_sup: float
    rho: float
    p: int
    p_star: float
    p_dagger: int

    def as_dict(self) -> dict:
        return {
            "phi": self.phi,
            "phi_sup": self.phi_sup,
            "omega": self.omega,
            "omega_sup": self.omega_sup,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "alpha_sup": self.alpha_sup,
            "rho": self.rho,
            "p": self.p,
            "p_star": self.p_star,
            "p_dagger": self.p_dagger,
        }


# the log gap of the growth rates must exceed this many root error bounds
_GAP_MARGIN = 16


def derived_constants(pair: SystemPair) -> SpectralConstants:
    sub_poly = char_poly(pair.sub)
    sup_poly = char_poly(pair.sup)
    phi = dominant_root(sub_poly)
    phi_sup = dominant_root(sup_poly)
    omega = 1.0 / phi
    omega_sup = 1.0 / phi_sup
    gamma = math.log(phi) / math.log(phi_sup)
    alpha = growth_constant(pair.sub, phi, pair.sub_num)
    alpha_sup = growth_constant(pair.sup, phi_sup, pair.sup_num)
    ent = pair.sub.entries
    N = len(ent)
    rho = sum(e * omega_sup**k for k, e in enumerate(ent, start=1)) / (1.0 - omega_sup**N)
    gap = math.log(phi_sup) - math.log(phi)
    err = _log_root_error(sub_poly, phi) + _log_root_error(sup_poly, phi_sup)
    if not gap > _GAP_MARGIN * err:
        # p below is about 1/gap, so a gap at rounding level makes it noise
        raise ValueError(
            f"growth rates of {pair.sub} and {pair.sup} are not separated in double precision "
            f"(log gap {gap:.3g}, error bound {err:.3g})"
        )
    # least p >= 1 with gamma * omega_sup**(p-1) < omega**p, taken in log space:
    # both powers underflow to 0.0 long before p reaches its value on
    # near-equal growth rates, where a direct search would never stop
    p = max(1, math.floor((math.log(gamma) + math.log(phi_sup)) / gap) + 1)
    p_star = p + 1 + (N * math.log(phi) + math.log(1.0 - rho + omega_sup**N)) / gap
    return SpectralConstants(
        phi=phi,
        phi_sup=phi_sup,
        omega=omega,
        omega_sup=omega_sup,
        gamma=gamma,
        alpha=alpha,
        alpha_sup=alpha_sup,
        rho=rho,
        p=p,
        p_star=p_star,
        p_dagger=max(2, p),
    )
