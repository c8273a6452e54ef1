import math
from fractions import Fraction

import numpy as np
import pytest

from shenell import (DomainError, RationalPoly, certify_pole,
                     classify_quartic_roots, cubic_discriminant, cubic_factor,
                     exact_invariants, factorization_check, invariants_exact,
                     invariants_of_modulus, quartic_f, wp)
from helpers import quartic_roots

K_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


# ---------------------------------------------------------------- RationalPoly

def test_rational_poly_basics():
    p = RationalPoly([1, 2, 3])  # 1 + 2x + 3x^2
    assert p.degree == 2
    assert p(Fraction(1, 2)) == Fraction(11, 4)
    assert p(2.0) == 17.0
    q = RationalPoly([0, 1])
    assert (p * q).coefficients == (0, 1, 2, 3)
    assert RationalPoly([1, 0, 0]) == RationalPoly([1])
    assert p.scaled(2).coefficients == (2, 4, 6)
    assert p.with_argument_scaled(Fraction(1, 2))(2) == p(1)


def test_rational_poly_exact_from_floats():
    # floats convert to their exact binary values, so no rounding occurs
    p = RationalPoly([0.1])
    assert p.coefficients[0] == Fraction(0.1)


# ------------------------------------------------------------------- quartic f

def test_quartic_leading_coefficient_is_12():
    for k2 in (Fraction(1, 4), Fraction(2, 3), Fraction(999, 1000)):
        f = quartic_f(invariants_exact(k2))
        assert f.degree == 4
        assert f.coefficients[4] == 12


def test_quartic_expansion_matches_definition():
    # oracle for the hand expansion: evaluate the unexpanded form
    rng = np.random.default_rng(2)
    for k2 in (Fraction(1, 4), Fraction(5, 7)):
        inv = invariants_exact(k2)
        f = quartic_f(inv)
        g2, g3 = Fraction(inv.g2), Fraction(inv.g3)
        for _ in range(6):
            z = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 40)))
            direct = 12 * z * (4 * z ** 3 - g2 * z - g3) - (6 * z * z - g2 / 2) ** 2
            assert f(z) == direct


def test_quartic_root_at_minus_one_third_exactly():
    for k2 in (Fraction(1, 4), Fraction(1, 2), Fraction(17, 101)):
        f = quartic_f(invariants_exact(k2))
        assert f(Fraction(-1, 3)) == 0


def test_quartic_vanishes_at_numeric_pole_value(context_for):
    ctx = context_for(0.5)
    f = quartic_f(ctx.inv)
    b = wp(ctx, (2.0 / 3.0) * 1j * ctx.lat.K_prime)
    assert abs(f(b)) < 1e-9


# --------------------------------------------------------------- factorization

def test_factorization_quarter():
    assert factorization_check(Fraction(1, 4))
    cubic = cubic_factor(Fraction(1, 4))
    # 16 k^2 - 15 = -11 and (9 - 8 k^2)^2 = 49
    assert cubic.coefficients == (Fraction(-49, 27), Fraction(-11, 3), -1, 1)


def test_factorization_half():
    assert factorization_check(Fraction(1, 2))


def test_factorization_random_rationals():
    rng = np.random.default_rng(101)
    count = 0
    while count < 20:
        q = int(rng.integers(2, 1001))
        p = int(rng.integers(1, q))
        k2 = Fraction(p, q)
        if not 0 < k2 < 1:
            continue
        assert factorization_check(k2)
        count += 1


def test_factorization_domain_error():
    for bad in (Fraction(3, 2), 0, 1, 1.0, -0.25, Fraction(-1, 4), 2):
        with pytest.raises(DomainError, match="squared modulus"):
            factorization_check(bad)
        with pytest.raises(DomainError, match="squared modulus"):
            invariants_exact(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "abc", None], ids=repr)
@pytest.mark.parametrize("check", [factorization_check, exact_invariants, invariants_exact,
                                   cubic_factor], ids=lambda check: check.__name__)
def test_unconvertible_squared_modulus_is_a_domain_error(check, bad):
    # a k^2 that Fraction cannot take is refused before any range check;
    # cubic_factor, which accepts any rational, refuses it too
    with pytest.raises(DomainError, match="not a finite rational"):
        check(bad)


# binary squared moduli: k log-spaced over [1e-6, 0.5] and 1 - k over [1e-9, 0.5]
EXACT_MODULI = ([float(k) for k in np.geomspace(1e-6, 0.5, 300)]
                + [1.0 - float(q) for q in np.geomspace(1e-9, 0.5, 250)])


def _factorization_by_expansion(k2):
    # the identity expanded in RationalPoly arithmetic from the public pieces
    lhs = quartic_f(invariants_exact(k2)).with_argument_scaled(Fraction(1, 3))
    lhs = lhs.scaled(Fraction(27, 4))
    rescaled = RationalPoly([-(9 - 8 * k2) ** 2 / 27,
                             -Fraction(8, 27) * (8 * k2 * k2 - 36 * k2 + 27),
                             -Fraction(2, 3) * (9 - 8 * k2), 0, 1])
    return lhs == rescaled and lhs == RationalPoly([1, 1]) * cubic_factor(k2)


def test_factorization_matches_rational_expansion():
    rng = np.random.default_rng(14)
    small = [Fraction(int(rng.integers(1, q)), q) for q in map(int, rng.integers(2, 5000, 200))]
    squares = [Fraction(k) ** 2 for k in EXACT_MODULI] + small
    for k2 in squares:
        assert factorization_check(k2) is _factorization_by_expansion(k2) is True, k2
    # a float k^2 is taken at its exact binary value
    for k in EXACT_MODULI[::25]:
        assert factorization_check(k * k) is _factorization_by_expansion(Fraction(k * k))


# ---------------------------------------------------------------- discriminant

def test_discriminant_at_half_is_minus_sixteen_thirds():
    pair = cubic_discriminant(0.5)
    assert pair.formula == -16.0 / 3.0
    assert pair.from_coefficients == -16.0 / 3.0


@pytest.mark.parametrize("k", K_GRID)
def test_discriminant_routes_agree_and_negative(k):
    formula, coeff = cubic_discriminant(k)
    assert formula < 0.0
    assert abs(formula - coeff) <= 1e-12 * abs(formula)


def test_discriminant_matches_rational_reference():
    # both routes in Fraction arithmetic, rounded once: the pair must match bit for bit
    for k in EXACT_MODULI:
        k2 = Fraction(k) ** 2
        b, c = (16 * k2 - 15) / 3, -((9 - 8 * k2) ** 2) / 27
        coeff = -18 * b * c + 4 * c + b * b - 4 * b ** 3 - 27 * c * c  # a = -1
        formula = -Fraction(4096, 27) * k2 ** 2 * (1 - k2) ** 2
        assert cubic_discriminant(k) == (float(formula), float(coeff)), k


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_discriminant_domain_error(bad):
    with pytest.raises(DomainError, match="modulus"):
        cubic_discriminant(bad)


def test_discriminant_at_08():
    formula, coeff = cubic_discriminant(0.8)
    assert abs(formula - coeff) <= 1e-12 * abs(formula)


# ----------------------------------------------------------- root classification

@pytest.mark.parametrize("k", [0.1, 0.5, 0.99])
def test_classify_quartic_roots(k):
    cls = classify_quartic_roots(k)
    assert cls.minus_one_third == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert cls.real_positive > 0.0
    lam, lam_bar = cls.complex_pair
    assert lam.conjugate() == lam_bar
    assert abs(lam.imag) > 1e-8
    # all four really are roots of f
    f = quartic_f(invariants_of_modulus(k))
    for root in cls.roots:
        assert abs(f(root)) < 1e-10


@pytest.mark.parametrize("k", [float(k) for k in np.geomspace(1e-6, 0.05, 40)])
def test_classify_quartic_roots_at_small_modulus(k):
    # the conjugate pair closes in on -1/3 like k^2, so any difference of
    # nearly equal floats in the classification loses the pattern
    cls = classify_quartic_roots(k)
    assert cls.minus_one_third == -1.0 / 3.0
    assert cls.real_positive > 0.0
    lam, lam_bar = cls.complex_pair
    assert lam_bar == lam.conjugate() and lam.imag > 0.0
    exact = quartic_roots(k)
    for root in cls.roots:
        nearest = min(exact, key=lambda x: abs(x - root))
        assert abs(nearest - root) <= 1e-12 * abs(nearest)
    nearest = min(exact, key=lambda x: abs(x - lam))
    assert abs(lam.imag - nearest.imag) <= 1e-12 * abs(nearest.imag)


def test_classified_roots_solve_deflated_cubic():
    # after w = 3z the non-planted roots solve the cubic factor
    k = 0.5
    cls = classify_quartic_roots(k)
    cubic = cubic_factor(Fraction(1, 4))
    for root in (cls.real_positive,) + cls.complex_pair:
        assert abs(cubic(3.0 * root)) < 1e-12


# ------------------------------------------------------------------------ pole

def test_certify_pole_at_half(context_for):
    assert certify_pole(context_for(0.5)) < 1e-10


@pytest.mark.parametrize("k", K_GRID)
def test_certify_pole_grid(k, context_for):
    assert certify_pole(context_for(k)) < 1e-10


def test_pole_congruence(context_for):
    # wp((4/3) iK') = wp((2/3) iK') modulo the period 2iK'
    ctx = context_for(0.5)
    a = (2.0 / 3.0) * 1j * ctx.lat.K_prime
    assert abs(wp(ctx, 2 * a) - wp(ctx, a)) < 1e-10

