"""Weierstrass wp from the modulus: invariants, rectangular lattice, evaluation.

For 0 < k < 1 the invariants

    g2 = (4/27) (9 - 8 k^2),   g3 = (8/729) (8 k^4 - 36 k^2 + 27)

are real with discriminant g2^3 - 27 g3^2 = (4096/19683) k^6 (1 - k^2) > 0,
so the cubic 4 t^3 - g2 t - g3 has three real roots e1 > e2 > e3 and the
period lattice is rectangular, generated by 2K and 2iK'.

The lattice is closed form: the root differences from the trigonometric
solution of the cubic, and K, K' from the arithmetic-geometric mean, with
no quadrature and no root polishing. The evaluator of wp itself uses no
theta functions and no AGM: arguments are reduced into the cell
[-K, K] x [-K', K'], halved until the Laurent series about 0 converges
fast, then pushed back out with the duplication formula.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exceptions import DegenerateError, DomainError, PoleError

#: The modulus k is an ordinary float constrained to the open interval (0, 1).
Modulus = float

#: Default radius around lattice points inside which wp refuses to evaluate.
POLE_EXCLUSION = 1e-8

# Laurent summation applies once |z| <= this fraction of the shortest
# nonzero lattice vector; the squared ratio 0.1225 kills the series in
# under thirty terms.
_SERIES_FRACTION = 0.35
_N_COEFFS = 48

# wp' smaller than this marks a half-period, where the duplication
# formula degenerates.
_HALF_PERIOD_TOL = 1e-8

# Points per pass of the batch kernel: its largest work array holds
# _N_COEFFS - 1 complex powers per point, about 3 MB at this size.
_BATCH_CHUNK = 4096


@dataclass(frozen=True)
class Invariants:
    """g2, g3 and the discriminant delta = g2^3 - 27 g3^2.

    Fields are floats in the standard constructor path; the exact mode in
    :mod:`shenell.poles` stores Fractions in the same slots.
    """

    g2: float
    g3: float
    delta: float


@dataclass(frozen=True)
class Lattice:
    """Half-periods K, K' (2K and 2iK' generate the lattice) and the cubic roots."""

    K: float
    K_prime: float
    e1: float
    e2: float
    e3: float


def _check_modulus(k: float) -> None:
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus out of range (0, 1): k={k!r}")


def exact_invariants(k2):
    """g2, g3, delta as exact rationals in the squared modulus ``k2``."""
    k2 = Fraction(k2)
    if not 0 < k2 < 1:
        raise DomainError(f"squared modulus out of range (0, 1): k^2={k2}")
    g2 = Fraction(4, 27) * (9 - 8 * k2)
    g3 = Fraction(8, 729) * (8 * k2 * k2 - 36 * k2 + 27)
    delta = Fraction(4096, 19683) * k2 ** 3 * (1 - k2)
    return g2, g3, delta


def invariants_of_modulus(k: Modulus) -> Invariants:
    """Invariants for modulus k, correctly rounded.

    The fields are computed in exact rational arithmetic from the binary
    value of ``k`` and rounded once at the end, so g2(1/2) == 28/27 and
    delta(1/2) == 48/19683 hold to the last bit.
    """
    _check_modulus(k)
    g2, g3, delta = exact_invariants(Fraction(k) ** 2)
    return Invariants(g2=float(g2), g3=float(g3), delta=float(delta))


def _agm(a, b):
    # quadratic convergence; once a and b are within rounding of each
    # other, one more step leaves them at most an ulp apart
    while abs(a - b) > 4e-16 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def lattice_of_invariants(inv: Invariants) -> Lattice:
    """Half-periods and cubic roots in closed form; requires delta > 0.

    K is the integral of dt / sqrt(4 t^3 - g2 t - g3) over [e1, inf),
    K' the integral of dt / sqrt(-(4 t^3 - g2 t - g3)) over (-inf, e3].
    The root differences come from the trigonometric solution of the
    cubic (DLMF 1.11(iii)) with the angle taken from the discriminant:

        x = atan2(sqrt(delta), 3 sqrt(3) g3) / 3,  y = pi/3 - x,
        e1 - e2 = sqrt(g2) sin y,  e1 - e3 = sqrt(g2) sin(pi/3 + x),
        e2 - e3 = sqrt(g2) sin x,

    where y is computed as atan2(sqrt(delta), -3 sqrt(3) g3) / 3, so no
    difference of nearly equal numbers occurs as k -> 0 or k -> 1. The
    half-periods are complete elliptic integrals of the first kind by the
    arithmetic-geometric mean (DLMF 19.8(i)):

        K = pi / (2 AGM(sqrt(e1 - e2), sqrt(e1 - e3))),
        K' = pi / (2 AGM(sqrt(e1 - e3), sqrt(e2 - e3))).
    """
    if not inv.delta > 0.0:
        raise DomainError(f"lattice requires positive discriminant, got {inv.delta!r}")
    root_delta = math.sqrt(inv.delta)
    g3_term = 3.0 * math.sqrt(3.0) * inv.g3
    x = math.atan2(root_delta, g3_term) / 3.0
    y = math.atan2(root_delta, -g3_term) / 3.0
    scale = math.sqrt(inv.g2)
    d12 = scale * math.sin(y)
    d13 = scale * math.sin(math.pi / 3.0 + x)
    d23 = scale * math.sin(x)
    return Lattice(K=math.pi / (2.0 * _agm(math.sqrt(d13), math.sqrt(d12))),
                   K_prime=math.pi / (2.0 * _agm(math.sqrt(d13), math.sqrt(d23))),
                   e1=(d12 + d13) / 3.0, e2=(d23 - d12) / 3.0, e3=-(d13 + d23) / 3.0)


@lru_cache(maxsize=64)
def _laurent_coefficients(g2, g3, count=_N_COEFFS):
    # wp(z) = 1/z^2 + sum_{n>=2} c_n z^(2n-2), c_2 = g2/20, c_3 = g3/28;
    # higher coefficients follow the quadratic recurrence forced by the
    # wp differential equation. Each product c_j c_(n-j) occurs twice in
    # the sum over j = 2 .. n-2; doubling a rounded product is exact, so
    # fsum sees the same terms as the full sum and rounds it the same way.
    c = [0.0, 0.0, g2 / 20.0, g3 / 28.0]
    for n in range(4, count + 1):
        terms = [2.0 * (c[j] * c[n - j]) for j in range(2, (n + 1) // 2)]
        if n % 2 == 0:
            terms.append(c[n // 2] * c[n // 2])
        c.append(3.0 * math.fsum(terms) / ((2 * n + 1) * (n - 3)))
    return tuple(c)


def _series_pair(z, coeffs):
    z2 = z * z
    tail = 0.0j
    dtail = 0.0j
    for n in range(len(coeffs) - 1, 1, -1):
        tail = tail * z2 + coeffs[n]
        dtail = dtail * z2 + (2 * n - 2) * coeffs[n]
    return 1.0 / z2 + z2 * tail, -2.0 / (z2 * z) + z * dtail


def reduce_to_cell(z, lat: Lattice) -> complex:
    """Translate z by lattice vectors into the cell [-K, K] x [-K', K'].

    Raises DomainError for a non-finite z, which has no place in the cell.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z={z!r} is not finite")
    two_k = 2.0 * lat.K
    two_kp = 2.0 * lat.K_prime
    return complex(z.real - two_k * round(z.real / two_k),
                   z.imag - two_kp * round(z.imag / two_kp))


def wp_with_prime(z, inv: Invariants, lat: Lattice,
                  pole_tol: float = POLE_EXCLUSION) -> tuple:
    """(wp(z), wp'(z)) for the given invariants and lattice.

    After cell reduction the argument is halved n times until the Laurent
    series applies, then the duplication formula

        wp(2w) = (wp''(w) / (2 wp'(w)))^2 - 2 wp(w)

    doubles back up, with wp' carried along through the chain rule. All
    intermediate points 2^j w (j < n) lie in the quarter cell, safely away
    from the zeros of wp', so each doubling step is well conditioned.

    Raises PoleError when z reduces into ``pole_tol`` of a lattice point.
    """
    zr = reduce_to_cell(z, lat)
    if abs(zr) < pole_tol:
        raise PoleError(f"z={z!r} is within {pole_tol} of a lattice point")
    radius = _SERIES_FRACTION * 2.0 * min(lat.K, lat.K_prime)
    halvings = 0
    w = zr
    while abs(w) > radius:
        w *= 0.5
        halvings += 1
    p, dp = _series_pair(w, _laurent_coefficients(inv.g2, inv.g3))
    for _ in range(halvings):
        curvature = 6.0 * p * p - 0.5 * inv.g2  # wp''
        p, dp = ((curvature / (2.0 * dp)) ** 2 - 2.0 * p,
                 -dp + curvature * (12.0 * p * dp * dp - curvature ** 2)
                 / (4.0 * dp ** 3))
    return p, dp


def _wp_batch(z, inv: Invariants, lat: Lattice):
    """(wp, wp', pole_mask) over an array of z, by the algorithm of ``wp_with_prime``.

    Each step of the scalar path runs on the whole array: cell reduction
    with ``np.round`` (half-even, like ``round``), a per-element halving
    count from the same ``abs(w) > radius`` test, the Laurent sums as one
    product with a matrix of powers of w^2, and the duplication steps,
    each applied to the elements that still have a halving to undo.
    Products are spelled out (``p * p``, not ``p ** 2``, which numpy
    evaluates through ``pow``). The Laurent sum runs in another order and
    numpy may fuse a product with a sum, so results differ from the
    scalar path by rounding: a few ulps where the duplication chain is
    well conditioned, and up to about 3e-13 / |wp'(w/2)|^2 relative (w is
    z reduced to the cell) in the band near iK' where wp' is small, an
    error the scalar path carries too.

    ``pole_mask`` marks exactly the points where the scalar path raises
    PoleError (within ``POLE_EXCLUSION`` of a lattice point); wp and wp'
    are nan there. The input is flattened and processed ``_BATCH_CHUNK``
    points at a time, so the work arrays keep the same size however large
    the grid.
    """
    z = np.asarray(z, dtype=complex).ravel()
    p = np.empty_like(z)
    dp = np.empty_like(z)
    pole = np.empty(z.shape, dtype=bool)
    for start in range(0, z.size, _BATCH_CHUNK):
        part = slice(start, start + _BATCH_CHUNK)
        p[part], dp[part], pole[part] = _wp_chunk(z[part], inv, lat)
    return p, dp, pole


def _wp_chunk(z, inv, lat):
    two_k = 2.0 * lat.K
    two_kp = 2.0 * lat.K_prime
    w = np.empty_like(z)
    w.real = z.real - two_k * np.round(z.real / two_k)
    w.imag = z.imag - two_kp * np.round(z.imag / two_kp)
    pole = np.abs(w) < POLE_EXCLUSION
    radius = _SERIES_FRACTION * 2.0 * min(lat.K, lat.K_prime)
    w[pole] = radius      # any point the series takes without halving
    halvings = np.zeros(z.shape, dtype=np.int64)
    todo = np.abs(w) > radius
    while todo.any():
        w[todo] *= 0.5
        halvings += todo
        todo &= np.abs(w) > radius
    w2 = w * w
    weights = _laurent_weights(inv.g2, inv.g3)
    powers = np.empty((z.size, len(weights)), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = w2[:, None]
    np.cumprod(powers, axis=1, out=powers)
    tail, dtail = (powers @ weights).T
    p = 1.0 / w2 + w2 * tail
    dp = -2.0 / (w2 * w) + w * dtail
    for step in range(int(halvings.max(initial=0))):
        sel = halvings > step
        ps, dps = p[sel], dp[sel]
        curvature = 6.0 * ps * ps - 0.5 * inv.g2
        ratio = curvature / (2.0 * dps)
        p[sel] = ratio * ratio - 2.0 * ps
        dp[sel] = -dps + (curvature * (12.0 * ps * dps * dps - curvature * curvature)
                          / (4.0 * (dps * (dps * dps))))
    p[pole] = np.nan
    dp[pole] = np.nan
    return p, dp, pole


@lru_cache(maxsize=64)
def _laurent_weights(g2, g3):
    # rows n = 2, 3, ...: the coefficient of w^(2n-4) in the tail of
    # _series_pair and in the tail of its derivative
    c = _laurent_coefficients(g2, g3)
    return np.array([[c[n], (2 * n - 2) * c[n]] for n in range(2, len(c))],
                    dtype=complex)


def wp(z, inv: Invariants, lat: Lattice, pole_tol: float = POLE_EXCLUSION) -> complex:
    """Weierstrass wp(z); doubly periodic with periods 2K and 2iK', even."""
    return wp_with_prime(z, inv, lat, pole_tol)[0]


def wp_prime(z, inv: Invariants, lat: Lattice,
             pole_tol: float = POLE_EXCLUSION) -> complex:
    """wp'(z) from the differentiated Laurent series and the duplication chain.

    Never computed as a square root of 4 wp^3 - g2 wp - g3, so there is
    no branch ambiguity to resolve.
    """
    return wp_with_prime(z, inv, lat, pole_tol)[1]


def duplication_check(a, inv: Invariants, lat: Lattice) -> float:
    """Absolute residual of wp(2a) + 2 wp(a) = (1/4) (wp''(a) / wp'(a))^2.

    Both sides are evaluated independently: the left through two direct
    wp calls, the right from wp(a), wp'(a) and wp'' = 6 wp^2 - g2/2.
    Raises DegenerateError when a is congruent to a half-period, where
    wp'(a) = 0 and the right side blows up.
    """
    pa, dpa = wp_with_prime(a, inv, lat)
    if abs(dpa) < _HALF_PERIOD_TOL:
        raise DegenerateError(
            f"wp'(a) ~ 0 at a={a!r}; a is congruent to a half-period")
    return _duplication_residual(inv, pa, dpa, wp(2.0 * complex(a), inv, lat))


def _duplication_residual(inv: Invariants, pa, dpa, p2a):
    # the identity in wp(a), wp'(a) and wp(2a), for scalars or arrays
    curvature = 6.0 * pa * pa - 0.5 * inv.g2
    return abs(p2a + 2.0 * pa - 0.25 * (curvature / dpa) ** 2)
