import math

import pytest

from zeckdual import DigitRule, Numeration, SystemPair
from zeckdual.spectra import (
    NoSignChangeError,
    char_poly,
    derived_constants,
    dominant_root,
    growth_constant,
    poly_derivative,
    poly_eval,
)

from conftest import TEST_RULES


def test_char_poly_coefficients():
    # ascending coefficients, unit leading term
    assert char_poly(DigitRule((1, 0))) == [-1, -1, 1]
    assert char_poly(DigitRule((1, 1))) == [-2, -1, 1]
    assert char_poly(DigitRule((2, 3, 0))) == [-1, -3, -2, 1]
    assert char_poly(DigitRule((10, 4))) == [-5, -10, 1]
    assert char_poly(DigitRule((2, 0, 1))) == [-2, 0, -2, 1]


def test_dominant_root_values():
    golden = dominant_root(char_poly(DigitRule((1, 0))))
    assert abs(golden - (1 + math.sqrt(5)) / 2) < 1e-12
    assert abs(dominant_root(char_poly(DigitRule((1, 1)))) - 2.0) < 1e-12
    assert abs(dominant_root(char_poly(DigitRule((2, 2, 2)))) - 3.0) < 1e-12
    assert abs(dominant_root(char_poly(DigitRule((10, 4)))) - (5 + math.sqrt(30))) < 1e-11


@pytest.mark.parametrize("entries", TEST_RULES)
def test_dominant_root_residual(entries):
    coeffs = char_poly(DigitRule(entries))
    root = dominant_root(coeffs)
    assert root > 1
    assert abs(poly_eval(coeffs, root)) < 1e-10


def test_no_sign_change_guard():
    with pytest.raises(NoSignChangeError):
        dominant_root([1, 0, 1])  # x^2 + 1 has no real root above 1


def test_growth_constant_closed_forms():
    fib = DigitRule((1, 0))
    phi = dominant_root(char_poly(fib))
    assert abs(growth_constant(fib, phi) - (3 * phi + 1) / 5) < 1e-12

    r = DigitRule((2, 0, 1))
    p = dominant_root(char_poly(r))
    assert abs(growth_constant(r, p) - (4 + 3 * p + 17 * p * p) / 86) < 1e-12

    sup = DigitRule((10, 4))
    ps = dominant_root(char_poly(sup))
    assert abs(growth_constant(sup, ps) - ps / 10) < 1e-12

    # exact power bases have constant exactly 1
    assert abs(growth_constant(DigitRule((1, 1)), 2.0) - 1.0) < 1e-12
    assert abs(growth_constant(DigitRule((2, 2, 2)), 3.0) - 1.0) < 1e-12


@pytest.mark.parametrize("entries", TEST_RULES)
def test_binet_convergence(entries):
    rule = DigitRule(entries)
    num = Numeration(rule)
    root = dominant_root(char_poly(rule))
    alpha = growth_constant(rule, root, num)
    assert abs(num.weight(60) / root**59 - alpha) < 1e-6


@pytest.mark.parametrize("entries", TEST_RULES)
def test_normalization_identity(entries):
    """The caps as repeating digits in the rule's own base always sum to 1."""
    rule = DigitRule(entries)
    w = 1.0 / dominant_root(char_poly(rule))
    N = rule.period
    norm = sum(e * w**k for k, e in enumerate(rule.entries, start=1)) / (1.0 - w**N)
    assert abs(norm - 1.0) < 1e-10


def test_derived_constants_binary(pairs, constants):
    c = constants["binary"]
    assert abs(c.phi - (1 + math.sqrt(5)) / 2) < 1e-12
    assert c.phi_sup == pytest.approx(2.0, abs=1e-12)
    assert c.gamma == pytest.approx(math.log(c.phi) / math.log(2), abs=1e-12)
    assert c.rho == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert c.p == 2
    assert c.p_dagger == 2
    assert c.p_star == pytest.approx(4.998, abs=5e-3)
    assert c.alpha == pytest.approx((3 * c.phi + 1) / 5, abs=1e-10)
    assert c.alpha_sup == pytest.approx(1.0, abs=1e-10)


def test_derived_constants_nonbase(constants):
    c = constants["nonbase"]
    ps = c.phi_sup
    assert ps == pytest.approx(5 + math.sqrt(30), abs=1e-10)
    assert c.rho == pytest.approx((2 * ps**2 + 1) / (ps**3 - 1), abs=1e-10)
    assert c.p == 1
    assert c.p_dagger == 2
    assert c.p_star == pytest.approx(3.59, abs=5e-3)
    assert c.alpha_sup == pytest.approx(ps / 10, abs=1e-10)


def test_derived_constants_third(constants):
    c = constants["third"]
    assert c.phi_sup == pytest.approx(3.0, abs=1e-12)
    assert c.rho == pytest.approx(6.0 / 13.0, abs=1e-10)
    # gamma * omega_sup**(p-1) >= omega**p fails first at p = 2 here
    assert c.p == 2
    assert c.p_dagger == 2


@pytest.mark.parametrize("name", ["binary", "third", "nonbase"])
def test_gain_index_is_minimal(name, constants):
    c = constants[name]
    assert c.gamma * c.omega_sup ** (c.p - 1) < c.omega**c.p
    for q in range(1, c.p):
        assert not c.gamma * c.omega_sup ** (q - 1) < c.omega**q


# p as found by searching p = 1, 2, ... for the first index where the
# inequality holds; the log-space closed form must reproduce it
SEARCHED_P = [
    ((1, 0), (1, 1), 2),
    ((1, 1, 0), (2, 2, 2), 2),
    ((2, 0, 1), (10, 4), 1),
    ((1, 1, 0), (1, 1), 7),
    ((2, 2), (3, 3), 5),
    ((2, 0), (2, 1), 8),
    ((2, 3, 1), (3, 2), 7),
    ((1, 1, 1, 0), (1, 1), 18),
    ((3, 3, 2), (3, 3), 113),
]


@pytest.mark.parametrize("sub,sup,p", SEARCHED_P)
def test_gain_index_matches_search(sub, sup, p):
    assert derived_constants(SystemPair(sub, sup)).p == p


def test_gain_index_past_underflow():
    """Both sides of the inequality underflow to 0.0 long before p = 25574."""
    c = derived_constants(SystemPair((9, 9, 9, 8), (9, 9)))
    assert c.p == 25574

    def holds(q):
        return math.log(c.gamma) + (q - 1) * math.log(c.omega_sup) < q * math.log(c.omega)

    assert holds(c.p)
    assert not holds(c.p - 1)
    assert c.p_dagger == c.p


def test_gain_index_refuses_unresolved_growth_rates():
    # a valid pair whose two dominant roots round to the same double
    pair = SystemPair((9,) * 17 + (8,), (9, 9))
    with pytest.raises(ValueError, match="not separated in double precision"):
        derived_constants(pair)


@pytest.mark.parametrize("name", ["binary", "third", "nonbase"])
def test_exponent_identity(name, constants):
    # omega_sup**gamma equals omega by construction; both sides computed independently
    c = constants[name]
    assert c.omega_sup**c.gamma == pytest.approx(c.omega, abs=1e-12)
    assert 0 < c.gamma < 1
    assert 1 < c.phi < c.phi_sup
