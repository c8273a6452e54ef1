"""Certification of the pole of d at (2/3) i K'.

d has a pole exactly where wp = -1/3. Combining the duplication formula
with 2a = (4/3) i K' = -a (mod 2iK') shows b = wp((2/3) i K') is a zero
of the quartic

    f(z) = 12 z (4 z^3 - g2 z - g3) - (6 z^2 - g2/2)^2,

whose rescaling (27/4) f(w/3) factors as (w + 1) times a cubic with one
positive real root and a conjugate pair. Since wp is strictly negative
on (0, iK'), the only root available to b is -1/3.

Polynomial identities here are checked exactly, on integer coefficients
cleared of 27 d^2 for k^2 = n / d; ``RationalPoly`` and its builders stay
as the public rational forms. The transcendental value wp((2/3) i K') is
certified in floating point.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exceptions import ClassificationError
from .weierstrass import (Invariants, Modulus, ShenContext, _check_modulus, _exact_k2,
                          _invariant_ratios, exact_invariants, q_with_prime)


class RationalPoly:
    """Dense polynomial with exact rational coefficients, constant term first.

    Coefficients are normalized to Fraction; float inputs convert exactly
    (every float is a binary rational), so arithmetic never rounds.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [Fraction(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction x, float/complex otherwise."""
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coefficients):
                acc = acc * x + c
            return acc
        acc = 0.0j if isinstance(x, complex) else 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + float(c)
        return acc

    def __mul__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPoly(out)

    def __eq__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return f"RationalPoly({list(self.coefficients)!r})"

    def scaled(self, factor) -> "RationalPoly":
        """The polynomial factor * p."""
        factor = Fraction(factor)
        return RationalPoly([factor * c for c in self.coefficients])

    def with_argument_scaled(self, a) -> "RationalPoly":
        """The polynomial p(a * x)."""
        a = Fraction(a)
        return RationalPoly([c * a ** i for i, c in enumerate(self.coefficients)])


def invariants_exact(k2) -> Invariants:
    """Invariants carrying exact Fraction fields, for proof-grade checks."""
    return Invariants(*exact_invariants(k2))


def quartic_f(inv: Invariants) -> RationalPoly:
    """The quartic 12 z (4 z^3 - g2 z - g3) - (6 z^2 - g2/2)^2, expanded.

    Expansion: 12 z^4 - 6 g2 z^2 - 12 g3 z - g2^2/4, with the leading
    coefficient 48 - 36 = 12 for every modulus. Exact when ``inv`` holds
    rational invariants; float invariants convert to their exact binary
    values first.
    """
    g2 = Fraction(inv.g2)
    g3 = Fraction(inv.g3)
    return RationalPoly([-g2 * g2 / 4, -12 * g3, -6 * g2, 0, 12])


def _cubic_numerators(n, d):
    # 27 d^2 times cubic_factor at k^2 = n / d, constant term first
    return (-(9 * d - 8 * n) ** 2, 9 * d * (16 * n - 15 * d), -27 * d * d, 27 * d * d)


def cubic_factor(k2) -> RationalPoly:
    """The cubic w^3 - w^2 + (16 k^2 - 15)/3 w - (9 - 8 k^2)^2 / 27."""
    n, d = _exact_k2(k2).as_integer_ratio()
    return RationalPoly([Fraction(c, 27 * d * d) for c in _cubic_numerators(n, d)])


def factorization_check(k2) -> bool:
    """Exact check that (27/4) f(w/3) = (w + 1) * cubic_factor(k2).

    With k^2 = n / d exactly, both sides times 27 d^2 have integer
    coefficients: the left side from the numerators of g2 and g3 by exact
    divisions (a remainder fails the check), compared in all five places
    with the expected w^4 - (2/3)(9 - 8k^2) w^2 - (8/27)(8k^4 - 36k^2 + 27) w
    - (1/27)(9 - 8k^2)^2 and with the right side. DomainError unless 0 < k2 < 1.
    """
    n, d = _exact_k2(k2).as_integer_ratio()
    (g2, g2_den), (g3, g3_den), _ = _invariant_ratios(n, d)
    scale = 27 * d * d
    terms = (divmod(27 * scale * g2 * g2, 16 * g2_den * g2_den),
             divmod(27 * scale * g3, g3_den), divmod(9 * scale * g2, 2 * g2_den))
    if any(remainder for _, remainder in terms):
        return False
    lhs = tuple(-quotient for quotient, _ in terms) + (0, scale)
    a = 9 * d - 8 * n
    rescaled = (-a * a, -8 * (8 * n * n - 36 * n * d + 27 * d * d), -18 * d * a, 0, 27 * d * d)
    cubic = _cubic_numerators(n, d)
    rhs = tuple(low + high for low, high in zip(cubic + (0,), (0,) + cubic))
    return lhs == rescaled and lhs == rhs


class DiscriminantPair(NamedTuple):
    formula: float
    from_coefficients: float


def cubic_discriminant(k: Modulus) -> DiscriminantPair:
    """Discriminant of the cubic factor, by two independent routes.

    ``formula`` is -(4096/27) k^4 (1 - k^2)^2; ``from_coefficients`` is
    the textbook discriminant 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2 of
    the monic cubic. Both routes are one integer numerator over one integer
    denominator in k^2 = n / d, the binary value of ``k`` (the coefficient
    route loses ~5 digits to cancellation in floats near k = 0.1), and
    round once. Negative for every k in (0, 1): one real zero.
    """
    _check_modulus(k)
    n, d = (part * part for part in k.as_integer_ratio())  # k^2 = n / d
    c, b, _, scale = _cubic_numerators(n, d)
    coeff_route = (-18 * b * c * scale + 4 * c * scale * scale + b * b * scale
                   - 4 * b ** 3 - 27 * c * c * scale)
    formula = -4096 * n * n * (d - n) ** 2 / (27 * d ** 4)
    return DiscriminantPair(formula, coeff_route / scale ** 3)


@dataclass(frozen=True)
class RootClassification:
    """The four roots of the quartic f: -1/3, a positive real, a conjugate pair."""

    minus_one_third: float
    real_positive: float
    complex_pair: tuple

    @property
    def roots(self):
        return (self.minus_one_third, self.real_positive) + self.complex_pair


def classify_quartic_roots(k: Modulus) -> RootClassification:
    """Roots of f for modulus ``k``: exactly {-1/3, r+ > 0, lam, conj(lam)}.

    The root -1/3 is deflated exactly through the factorization; the
    cubic factor (in w = 3z) is solved by Cardano's method in closed form.
    With m = 1 - k^2 = (1 - k)(1 + k), its depressed form v^3 + p v + q
    (w = v + 1/3) has p = -(16/3) m, q = -(64/27) m (2 - k^2) and
    (q/2)^2 + (p/3)^3 = (4096/2916) k^4 m^2 = -disc / 108, so the cube-root
    arguments -q/2 +- sqrt(...) are (64/27) m and (64/27) m^2, and with
    t = m^(1/3) the real root is r = 1/3 + (4/3) t (1 + t). The conjugate
    pair has Re lam = (1 - r)/2 and Im lam = sqrt(-disc) / (2 cubic'(r)),
    since cubic'(r) = |r - lam|^2 = (16/3) t^2 (1 + t + t^2). No step
    subtracts nearly equal numbers, so the pattern holds down to k -> 0,
    where the pair closes in on -1 like k^2. Raises ClassificationError
    if the computed pattern ever deviates.
    """
    _check_modulus(k)
    m = (1.0 - k) * (1.0 + k)
    t = m ** (1.0 / 3.0)
    w_real = 1.0 / 3.0 + (4.0 / 3.0) * t * (1.0 + t)
    cubic_prime = (16.0 / 3.0) * t * t * (1.0 + t + t * t)
    imag = (64.0 / math.sqrt(27.0)) * k * k * m / (2.0 * cubic_prime)
    if not (w_real > 0.0 and imag > 0.0):
        raise ClassificationError(
            f"cubic factor at k={k!r} lost its single-real-root pattern")
    w_pair = complex(0.5 * (1.0 - w_real), imag)
    return RootClassification(
        minus_one_third=-1.0 / 3.0,
        real_positive=w_real / 3.0,
        complex_pair=(w_pair / 3.0, w_pair.conjugate() / 3.0),
    )


_REALNESS_TOL = 1e-9


def certify_pole(ctx: ShenContext) -> float:
    """|wp((2/3) i K') + 1/3|; certification passes when below 1e-10.

    The value is |Q((2/3) i K')|, Q from ``q_with_prime``, never a sum
    with 1/3. Also verifies the structural facts the location argument
    rests on: wp((2/3) i K') is real and negative (wp < 0 along (0, iK'),
    so Q < 1/3), and the even mirror -(2/3) i K' carries the same value,
    so d has its second pole there. Violations raise ClassificationError.
    """
    a = (2.0 / 3.0) * 1.0j * ctx.lat.K_prime
    value, _ = q_with_prime(ctx, a)
    if abs(value.imag) > _REALNESS_TOL or not value.real < 1.0 / 3.0:
        raise ClassificationError(
            f"wp((2/3) i K') = {value - 1.0 / 3.0!r} is not real negative at k={ctx.k!r}")
    mirror, _ = q_with_prime(ctx, -a)
    if abs(mirror - value) > _REALNESS_TOL:
        raise ClassificationError(
            f"evenness violated at the mirror pole for k={ctx.k!r}")
    return abs(value)
