"""Weierstrass wp from the modulus: invariants, rectangular lattice, evaluation.

For 0 < k < 1 the invariants

    g2 = (4/27) (9 - 8 k^2),   g3 = (8/729) (8 k^4 - 36 k^2 + 27)

are real with discriminant g2^3 - 27 g3^2 = (4096/19683) k^6 (1 - k^2) > 0,
so the cubic 4 t^3 - g2 t - g3 has three real roots e1 > e2 > e3 and the
period lattice is rectangular, generated by 2K and 2iK'.

The lattice is closed form: the root differences from the trigonometric
solution of the cubic, and K, K' from the arithmetic-geometric mean. wp
is a quotient of Jacobi theta functions (DLMF 20.2, 23.6(i)) with a nome
of at most exp(-pi), so a fixed number of terms reaches full precision
and the same code evaluates Python scalars and numpy arrays. Every
function of z takes ``(ctx, z)``, a ``ShenContext`` and the point.
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import DegenerateError, DomainError, PoleError

#: The modulus k is an ordinary float constrained to the open interval (0, 1).
Modulus = float

#: Radius around lattice points inside which wp refuses to evaluate.
POLE_EXCLUSION = 1e-8

# the operands of the array kernel that no context changes, typed as _KernelConstants.typed
# explains: the 1 and 2 of x = 2q (1 - 2 sin^2 v), and the pole radius
_ONE, _TWO = np.array(1.0, dtype=np.complex128), np.array(2.0, dtype=np.complex128)
_POLE_EXCLUSION = np.array(POLE_EXCLUSION, dtype=np.float64)

# |wp'| below this multiple of |wp''| marks a half-period, where the duplication
# formula degenerates; relative, since wp' is of order k^2 in the flat band near iK'
_HALF_PERIOD_TOL = 1e-8


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


def _exact_k2(k2) -> Fraction:
    """``k2`` as an exact Fraction; DomainError if it is not a finite rational."""
    try:
        return Fraction(k2)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"squared modulus is not a finite rational: k^2={k2!r}") from None


def _invariant_ratios(n, d):
    """(numerator, denominator) of g2, g3 and delta at k^2 = n / d; DomainError unless 0 < n < d."""
    if not 0 < n < d:
        raise DomainError(f"squared modulus out of range (0, 1): k^2={Fraction(n, d)}")
    return ((4 * (9 * d - 8 * n), 27 * d),
            (8 * (8 * n * n - 36 * n * d + 27 * d * d), 729 * d * d),
            (4096 * n ** 3 * (d - n), 19683 * d ** 4))


def exact_invariants(k2):
    """g2, g3, delta as exact rationals in the squared modulus ``k2``."""
    return tuple(Fraction(p, q) for p, q in _invariant_ratios(*_exact_k2(k2).as_integer_ratio()))


def invariants_of_modulus(k: Modulus) -> Invariants:
    """Invariants for modulus k, correctly rounded.

    With k = n / d exactly (the binary value of ``k``), each field is one
    integer numerator over one integer denominator, and Python's int / int
    division rounds correctly, so g2(1/2) == 28/27 and
    delta(1/2) == 48/19683 hold to the last bit.
    """
    _check_modulus(k)
    n, d = k.as_integer_ratio()
    return Invariants(*[p / q for p, q in _invariant_ratios(n * n, d * d)])


def _agm(a, b):
    # quadratic convergence; once a and b are within rounding of each
    # other, one more step leaves them at most an ulp apart
    while abs(a - b) > 4e-16 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def _root_differences(inv: Invariants) -> tuple:
    # (e1 - e2, e1 - e3, e2 - e3), as in lattice_of_invariants
    if not inv.delta > 0.0:
        raise DomainError(f"lattice requires positive discriminant, got {inv.delta!r}")
    root_delta = math.sqrt(inv.delta)
    g3_term = 3.0 * math.sqrt(3.0) * inv.g3
    x = math.atan2(root_delta, g3_term) / 3.0
    y = math.atan2(root_delta, -g3_term) / 3.0
    scale = math.sqrt(inv.g2)
    return scale * math.sin(y), scale * math.sin(math.pi / 3.0 + x), scale * math.sin(x)


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
    d12, d13, d23 = _root_differences(inv)
    return Lattice(K=math.pi / (2.0 * _agm(math.sqrt(d13), math.sqrt(d12))),
                   K_prime=math.pi / (2.0 * _agm(math.sqrt(d13), math.sqrt(d23))),
                   e1=(d12 + d13) / 3.0, e2=(d23 - d12) / 3.0, e3=-(d13 + d23) / 3.0)


@dataclass(frozen=True)
class ShenContext:
    """A modulus with its invariants, lattice and Q roots, and the wp kernel's constants.

    ``q_roots`` is derived from the other fields. The roots
    Q1 > Q2 > Q3 of Q = wp + 1/3 (Q'^2 = 4 Q^3 - 4 Q^2 + (32/27) k^2 Q -
    (64/729) k^4) are e_j + 1/3, but Q2 and Q3 are of order k^2, so they
    come from k: Q2 + Q3 = sqrt((e2 - e3)^2 + (64/729) k^4 / Q1),
    Q2 = (Q2 + Q3 + e2 - e3) / 2 and Q3 = (16/729) k^4 / (Q1 Q2). The
    ``_KernelConstants`` are attributes, not fields, outside ``==``, ``hash`` and ``repr``.
    """

    k: Modulus
    inv: Invariants
    lat: Lattice
    q_roots: tuple = field(init=False)

    def __post_init__(self):
        q1 = self.lat.e1 + 1.0 / 3.0
        d23 = _root_differences(self.inv)[2]
        k4 = (self.k * self.k) ** 2
        q2 = 0.5 * (math.sqrt(d23 * d23 + (64.0 / 729.0) * k4 / q1) + d23)
        object.__setattr__(self, "q_roots", (q1, q2, (16.0 / 729.0) * k4 / (q1 * q2)))
        object.__setattr__(self, "_constants", _KernelConstants(self))

    @cached_property
    def _array_constants(self) -> "_KernelConstants":
        # built on the first array call, so a context that only sees numbers never pays
        return self._constants.typed()

    @classmethod
    @lru_cache(maxsize=32, typed=True)
    def from_modulus(cls, k: Modulus) -> "ShenContext":
        """The context of ``k``, kept per value and type for the 32 most recent; errors are not."""
        inv = invariants_of_modulus(k)
        return cls(k=k, inv=inv, lat=lattice_of_invariants(inv))


class _KernelConstants:
    """What the theta-quotient kernel and the cell reduction read for one context.

    A context holds two: ``_constants`` of Python numbers, for the cmath
    path, and ``_array_constants``, the same values as 0-d arrays. ``root``
    is (e, Q_e): the kernel gives wp - e and adds back e for wp, Q_e for Q.
    With v = pi z / (2K), q = exp(-pi K'/K),

        wp - e3 = (pi / 2K)^2 (theta2(0) theta3(0) theta4(v) / theta1(v))^2,
        wp' = -2 (pi / 2K)^3 (theta2 theta3 theta4(0))^2
              theta2(v) theta3(v) theta4(v) / theta1(v)^3

    (DLMF 23.6.5); the factors q^(1/4) of theta1 and theta2 cancel. When
    K' < K the lattice turned by i is used, wp(z; L) = -wp(iz; iL), with
    K and K' swapped and e1 for e3, so q <= exp(-pi) either way.
    """

    __slots__ = ("scale", "two_q", "theta3", "theta1", "c2", "c3", "root",
                 "two_k", "two_k_prime", "reach")

    def __init__(self, ctx: ShenContext):
        lat = ctx.lat
        rotated = lat.K_prime < lat.K
        half, other = (lat.K_prime, lat.K) if rotated else (lat.K, lat.K_prime)
        q = math.exp(-math.pi * other / half)
        s = math.pi / (2.0 * half)
        self.theta3, self.theta1 = _theta_coefficients(q)
        at3, at4, _, at2 = _theta_sums(2.0 * q, self.theta3, self.theta1)
        # wp(z; L) = -wp(iz; iL), wp'(z; L) = -i wp'(iz; iL)
        turn, sign, cube = (1j, -1.0, -1j) if rotated else (1.0, 1.0, 1.0)
        self.scale, self.two_q = s * turn, 2.0 * q
        self.c2 = sign * (s * at2 * at3) ** 2  # the theta constants at 0 of wp - e and wp'
        self.c3 = cube * -2.0 * s ** 3 * (at2 * at3 * at4) ** 2
        self.root = (lat.e1, ctx.q_roots[0]) if rotated else (lat.e3, ctx.q_roots[2])
        self.two_k, self.two_k_prime = 2.0 * lat.K, 2.0 * lat.K_prime
        self.reach = 2.0 ** 26 * (2.0 * half)  # reduce_to_cell's bound on |z|

    def typed(self) -> "_KernelConstants":
        """The same constants as 0-d arrays: complex128, float64 for 2K and 2K'.

        numpy converts a Python number operand of a ufunc on every call
        (NEP 50), ~0.2 us more than a 0-d array of the other operand's dtype
        costs on a short array. The array holds the same double and the same
        loop runs, so every value is bitwise what the Python number gives.
        ``reach`` stays a number: it meets a numpy scalar, not an array.
        """
        def array(value, dtype=np.complex128):
            return np.array(value, dtype)

        arrays = object.__new__(_KernelConstants)
        arrays.scale, arrays.two_q, arrays.c2, arrays.c3 = map(
            array, (self.scale, self.two_q, self.c2, self.c3))
        arrays.theta3, arrays.theta1, arrays.root = (
            tuple(map(array, values)) for values in (self.theta3, self.theta1, self.root))
        arrays.two_k, arrays.two_k_prime = (array(self.two_k, np.float64),
                                            array(self.two_k_prime, np.float64))
        arrays.reach = self.reach
        return arrays


def _theta_coefficients(q):
    """Coefficients in x = 2 q cos 2v of theta3(v) and of theta1(v) / (2 q^(1/4) sin v).

    The series (DLMF 20.2) cut after q^12 and q^9 are
    theta3 = (1 - 2q^4 + 2q^16) + (1 - 3q^8) x + (q^2 - 4q^14) x^2 + q^6 x^3 + q^12 x^4
    and theta1 / (2 q^(1/4) sin v) = (1 - q^2 - q^6 + q^12) - (q - q^5 - 2q^11) x
    + (q^4 - q^10) x^2 - q^9 x^3; theta4 and theta2 / (2 q^(1/4) cos v) take -x.
    A reduced argument has |x| <= 1 + q^2: the first term dropped is below 4e-21.
    """
    q2, q3 = q * q, q * q * q
    q4, q6 = q2 * q2, q3 * q3
    return ((1.0 - 2.0 * q4 + 2.0 * q4 ** 4, 1.0 - 3.0 * q4 * q4, q2 - 4.0 * q4 * q4 * q6, q6,
             q6 * q6),
            (1.0 - q2 - q6 + q6 * q6, -q * (1.0 - q4 - 2.0 * q4 * q6), q4 * (1.0 - q6), -q6 * q3))


def _theta_sums(x, theta3, theta1):
    # theta3, theta4, theta1 / (2 q^(1/4) sin v), theta2 / (2 q^(1/4) cos v) at x = 2 q cos 2v
    x2 = x * x
    even, odd = theta3[0] + x2 * (theta3[2] + x2 * theta3[4]), x * (theta3[1] + x2 * theta3[3])
    even1, odd1 = theta1[0] + x2 * theta1[2], x * (theta1[1] + x2 * theta1[3])
    return even + odd, even - odd, even1 + odd1, even1 - odd1


def _theta_quotients(w, c, sin, cos, one=1.0, two=2.0):
    # (wp - e, wp') at reduced w, with c the context's _KernelConstants: for a
    # number the Python numbers and cmath's sin, cos; for an array the 0-d
    # arrays, numpy's sin, cos and _ONE, _TWO
    v = c.scale * w
    sine, cosine = sin(v), cos(v)
    # x = 2 q cos 2v stays below 1 + q^2 where cos 2v itself may overflow
    theta3, theta4, sine_part, cosine_part = _theta_sums(
        c.two_q * (one - two * (sine * sine)), c.theta3, c.theta1)
    denom = sine * sine_part
    ratio = theta4 / denom
    return (c.c2 * ratio * ratio,
            c.c3 * cosine * cosine_part * theta3 * ratio / (denom * denom))


def _kernel(ctx: ShenContext, z, q_form):
    """(wp(z), wp'(z)), or (Q(z), wp'(z)) with ``q_form``.

    The theta quotients give wp - e for the kernel root (e, Q_e), and e is
    added back, or Q_e for Q. z is reduced to the cell first (DomainError
    as in ``reduce_to_cell``). A number within POLE_EXCLUSION of a lattice
    point raises PoleError; in an ndarray such points, and only they, are
    nan. A 0-d ndarray runs as the one-entry array, reshaped back.
    """
    if not isinstance(z, np.ndarray):
        w = reduce_to_cell(ctx, z)
        if abs(w) < POLE_EXCLUSION:
            raise PoleError(f"z={z!r} is within {POLE_EXCLUSION} of a lattice point")
        c = ctx._constants
        part, dp = _theta_quotients(w, c, cmath.sin, cmath.cos)
        return c.root[q_form] + part, dp
    if not z.ndim:  # numpy gives scalars, not arrays, for 0-d operands
        return tuple(value.reshape(()) for value in _kernel(ctx, z.reshape(1), q_form))
    w = reduce_to_cell(ctx, z)
    c = ctx._array_constants
    pole = np.abs(w) < _POLE_EXCLUSION
    if not pole.any():  # the common case: no masked copies, no warning state
        part, dp = _theta_quotients(w, c, np.sin, np.cos, _ONE, _TWO)
        return c.root[q_form] + part, dp
    with np.errstate(all="ignore"):
        part, dp = _theta_quotients(w, c, np.sin, np.cos, _ONE, _TWO)
    return c.root[q_form] + np.where(pole, np.nan, part), np.where(pole, np.nan, dp)


def reduce_to_cell(ctx: ShenContext, z):
    """Translate z, a number or an ndarray, by lattice vectors into the cell [-K, K] x [-K', K'].

    z - 2K round(z / 2K) loses a bit of the result per doubling of the
    period count, so DomainError unless |z| is below 2^26 times the
    shorter period 2 min(K, K'), which keeps 26 of the 53 bits; a
    non-finite z fails the same comparison. An ndarray is refused whole,
    before anything is reduced, if any entry fails.
    """
    if not isinstance(z, np.ndarray):
        c = ctx._constants
        z = complex(z)
        try:
            size = abs(z)
        except OverflowError:  # |z| beyond the largest float; numpy gives inf
            size = math.inf
        if not size < c.reach:
            raise DomainError(f"z={z!r} is not finite or is 2^26 periods or more from the origin")
        return complex(z.real - c.two_k * round(z.real / c.two_k),
                       z.imag - c.two_k_prime * round(z.imag / c.two_k_prime))
    c = ctx._array_constants
    z = np.asarray(z, dtype=complex)
    if not abs(z).max(initial=0.0) < c.reach:
        raise DomainError("z holds an entry that is not finite or is 2^26 periods or more "
                          "from the origin")
    w = np.empty(z.shape, dtype=complex)
    # round half to even, like round() for numbers
    w.real = z.real - c.two_k * np.rint(z.real / c.two_k)
    w.imag = z.imag - c.two_k_prime * np.rint(z.imag / c.two_k_prime)
    return w


def wp_with_prime(ctx: ShenContext, z) -> tuple:
    """(wp(z), wp'(z)) from theta quotients.

    z is a number or an ndarray that ``reduce_to_cell`` accepts, else DomainError. A number
    within POLE_EXCLUSION of a lattice point raises PoleError; an array has nan.
    """
    return _kernel(ctx, z, False)


def q_with_prime(ctx: ShenContext, z) -> tuple:
    """(Q(z), wp'(z)) with Q = wp + 1/3, accurate relative to max(|Q|, k^2).

    Q is Q3 plus the theta quotient for wp - e3 (Q1 plus wp - e1 when the
    kernel is rotated). z and the pole rules are as in ``wp_with_prime``.
    """
    return _kernel(ctx, z, True)


def wp(ctx: ShenContext, z) -> complex:
    """Weierstrass wp(z); doubly periodic with periods 2K and 2iK', even."""
    return wp_with_prime(ctx, z)[0]


def wp_prime(ctx: ShenContext, z) -> complex:
    """wp'(z) as its own theta quotient, never a square root of 4 wp^3 - g2 wp - g3."""
    return wp_with_prime(ctx, z)[1]


def duplication_check(ctx: ShenContext, a) -> float:
    """Absolute residual of wp(2a) + 2 wp(a) = (1/4) (wp''(a) / wp'(a))^2.

    Both sides are evaluated independently: the left through two direct
    wp calls, the right from wp(a), wp'(a) and wp'' = 6 wp^2 - g2/2. A
    number a raises DegenerateError at a half-period, where
    |wp'(a)| < 1e-8 |wp''(a)|, and PoleError at a lattice point; an
    ndarray a holds nan at both, and a 0-d one runs as the one-entry array.
    """
    array = isinstance(a, np.ndarray)
    if array and not a.ndim:
        return duplication_check(ctx, a.reshape(1)).reshape(())
    pa, dpa = wp_with_prime(ctx, a)
    half = abs(dpa) < _HALF_PERIOD_TOL * abs(_wp_second(ctx.inv, pa))
    if not array:
        if half:
            raise DegenerateError(f"wp'(a) ~ 0 at a={a!r}; a is congruent to a half-period")
        return _duplication_residual(ctx.inv, pa, dpa, wp(ctx, 2.0 * complex(a)))
    with np.errstate(all="ignore"):  # wp' may vanish or be nan; those entries are nan
        return np.where(half, np.nan, _duplication_residual(ctx.inv, pa, dpa, wp(ctx, 2.0 * a)))


def _wp_second(inv: Invariants, p):
    # wp'' = 6 wp^2 - g2/2 at a point where wp = p
    return 6.0 * p * p - 0.5 * inv.g2


def _duplication_residual(inv: Invariants, pa, dpa, p2a):
    # the identity in wp(a), wp'(a) and wp(2a), for scalars or arrays
    return abs(p2a + 2.0 * pa - 0.25 * (_wp_second(inv, pa) / dpa) ** 2)
