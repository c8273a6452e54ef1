"""The real phase map u(phi) and the functions s, c, d on the principal branch.

u is the integral of F(1/3, 2/3; 1/2; k^2 t^2) / sqrt(1 - t^2) over
t in [0, sin(phi)]; substituting t = sin(theta) removes the endpoint
singularity and leaves the smooth integrand F(1/3, 2/3; 1/2;
k^2 sin^2 theta) on [0, phi], which is also du/dphi. That integrand is
evaluated in closed form (DLMF 15.4), F(1/3, 2/3; 1/2; sin^2 z) =
cos(z/3) / cos(z), not by the power series, which needs hundreds of
terms as k sin(theta) -> 1. The map inverts on [-pi/2, pi/2], and

    s(u) = sin(phi(u)),  c(u) = cos(phi(u)),  d(u) = phi'(u).

The inverse needs no second engine: the real branch is the complex field
of :mod:`shenell.field` restricted to the real axis, so the principal
branch ends at u_max = K, the real half-period, and phi(u) is read off
wp(u). The integral u(phi) stays as the one wp-free path, the witness
the certification suites check the wp route against.

Each function of phi or u takes a number or an ndarray in one body, as
the field functions of z do; an array with an entry the number path
would refuse is refused whole, with the same error type.
"""

import math
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, RangeError
from .quadrature import _integrate_all
from .weierstrass import POLE_EXCLUSION, Modulus, ShenContext, _check_modulus, q_with_prime

_HALF_PI = math.pi / 2.0

# step of the central differences of ``derivative_residuals``
_STEP = 1e-5

# (sin, cos, asin, sqrt) for a number and for an ndarray
_MATH = (math.sin, math.cos, math.asin, math.sqrt)
_NUMPY = (np.sin, np.cos, np.arcsin, np.sqrt)


def phase_speed(k: Modulus, phi):
    """du/dphi at ``phi``, i.e. F(1/3, 2/3; 1/2; k^2 sin^2 phi). Always >= 1.

    With y = k |sin phi| and z = asin(y), F = cos(z/3) / cos(z) is taken as

        cos(pi/6 - (2/3) asin(sqrt((1 - y) / 2))) / sqrt((1 - y)(1 + y)),

    since asin(y) = pi/2 - 2 asin(sqrt((1 - y) / 2)). Both angle and
    denominator come from 1 - y = (1 - k) + k cos^2 phi / (1 + |sin phi|),
    which never subtracts nearly equal numbers, so the value keeps full
    relative accuracy as k -> 1 and phi -> pi/2, and is exactly 1 at
    phi = 0. Even and pi-periodic in ``phi``, a number or an ndarray.
    Other phi are reduced to [-pi/2, pi/2]: a number with
    ``math.remainder``, an array as phi - pi round(phi / pi), which is
    exact on that branch. Raises DomainError unless 0 < k < 1, where
    k |sin phi| >= 1, and for a phi that is not finite; an array with such
    an entry is refused whole. A 0-d array runs as the one-entry array.
    """
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus out of range (0, 1): k={k!r}")
    array = isinstance(phi, np.ndarray)
    if array:
        if not phi.ndim:  # numpy gives scalars, not arrays, for 0-d operands
            return phase_speed(k, phi.reshape(1)).reshape(())
        if not np.isfinite(phi).all():
            raise DomainError("phi holds an entry that is not finite")
        phi = np.abs(phi - math.pi * np.rint(phi / math.pi))  # half to even, as np.round
        sin, cos, asin, sqrt = _NUMPY
    else:
        try:
            phi = abs(math.remainder(phi, math.pi))
        except ValueError:  # phi is infinite
            raise DomainError(f"phi must be finite, got {phi!r}") from None
        sin, cos, asin, sqrt = _MATH
    s = sin(phi)
    c = cos(phi)
    one_minus_y = (1.0 - k) + k * (c * c / (1.0 + s))
    inside = one_minus_y > 0.0  # also rejects nan
    if not (inside.all() if array else inside):
        raise DomainError(f"k |sin phi| >= 1 at k={k!r}, phi={phi!r}")
    return (cos(math.pi / 6.0 - (2.0 / 3.0) * asin(sqrt(0.5 * one_minus_y)))
            / sqrt(one_minus_y * (2.0 - one_minus_y)))


def u_of_phi(k: Modulus, phi):
    """The phase integral u(phi) on the principal branch |phi| <= pi/2.

    Odd and strictly increasing in ``phi``; u(0) = 0. The integrand is
    even in theta, so the integral runs over [0, |phi|] and the sign is
    restored afterwards, making oddness exact in floating point. A number
    is the one-entry ndarray, returned as a float. An ndarray takes all
    its integrals in one engine call, each level of panels in one array
    call of ``phase_speed``; it is refused whole (DomainError) if an entry
    is nan or off the branch, and raises ConvergenceError if one stalls.
    A 0-d array runs as the one-entry array.
    """
    _check_modulus(k)
    array = isinstance(phi, np.ndarray)
    if array and not phi.ndim:  # numpy gives scalars, not arrays, for 0-d operands
        return u_of_phi(k, phi.reshape(1)).reshape(())
    phis = phi if array else np.array([phi], dtype=float)
    size = np.abs(phis)
    if not (size <= _HALF_PI).all():  # also rejects nan
        raise DomainError("phi, or an entry of it, is outside the principal branch "
                          "[-pi/2, pi/2], or nan")
    flat = size.ravel()
    values = _integrate_all(lambda theta: phase_speed(k, theta), np.zeros_like(flat), flat)
    values = np.copysign(values.reshape(phis.shape), phis)
    return values if array else values[0].item()


def u_max(k: Modulus) -> float:
    """Largest u reachable on the principal branch: u(pi/2), the half-period K."""
    return ShenContext.from_modulus(k).lat.K


def _phase_and_q(ctx: ShenContext, u, atan2=np.arctan2, copysign=np.copysign):
    # (phi(u), Q(u)) from one kernel pass at an array u with POLE_EXCLUSION
    # <= |u| <= K (nan where |u| is below); a number passes math's functions
    q, dp = q_with_prime(ctx, abs(u))
    phi = atan2(2.0 * q.real - (8.0 / 27.0) * ctx.k * ctx.k, -dp.real)
    return copysign(phi, u), q


def phi_of_u(k: Modulus, u):
    """Invert the phase map: the phi in [-pi/2, pi/2] with u_of_phi(k, phi) = u.

    s = sin(phi) and c = cos(phi) are read off the complex field at z = |u|.
    With Q = wp(u) + 1/3, d = 1 - (4/9) k^2 / Q gives s = (2 + d) / (3 sqrt(Q)),
    and s' = c d gives c = -wp'(u) / (2 Q^(3/2)), so

        phi = atan2(2 Q(u) - (8/27) k^2, -wp'(u)),   Q from ``q_with_prime``.

    c comes from wp', not from 1 - s^2, which cancels as s -> 1, so phi
    keeps the absolute accuracy of wp' up to u = K, where wp' = 0 and
    phi = pi/2. Below POLE_EXCLUSION, where wp refuses to evaluate,
    phi = u, since the next term (4/27) k^2 u^3 is below an ulp.

    ``u`` is a number or an ndarray, whose entries follow the same rules;
    a 0-d array runs as the one-entry array.
    Raises RangeError when |u| exceeds u_max(k) = K, or is nan; an array
    with such an entry is refused whole.
    """
    ctx = ShenContext.from_modulus(k)
    if isinstance(u, np.ndarray):
        if not u.ndim:  # numpy gives scalars, not arrays, for 0-d operands
            return phi_of_u(k, u.reshape(1)).reshape(())
        size = np.abs(u)
        if not (size <= ctx.lat.K).all():  # also rejects nan
            raise RangeError(f"u holds an entry outside the invertible range "
                             f"[-{ctx.lat.K}, {ctx.lat.K}], or nan")
        return np.where(size < POLE_EXCLUSION, u, _phase_and_q(ctx, u)[0])
    if not abs(u) <= ctx.lat.K:  # also rejects nan
        raise RangeError(f"u={u!r} outside the invertible range "
                         f"[-{ctx.lat.K}, {ctx.lat.K}]")
    if abs(u) < POLE_EXCLUSION:
        return u
    return _phase_and_q(ctx, u, math.atan2, math.copysign)[0]


class ScdTriple(NamedTuple):
    s: float
    c: float
    d: float


def scd_real(k: Modulus, u) -> ScdTriple:
    """The triple (s, c, d) = (sin phi(u), cos phi(u), phi'(u)) at real u.

    d comes from the reciprocal of the phase speed, so d is in (0, 1]
    and s^2 + c^2 = 1 holds to machine precision by construction. ``u``
    is a number or an ndarray, as in ``phi_of_u``; for an array each field
    is an array, and a 0-d array runs as the one-entry array.
    """
    phi = phi_of_u(k, u)
    if not isinstance(phi, np.ndarray):
        return ScdTriple(math.sin(phi), math.cos(phi), 1.0 / phase_speed(k, phi))
    if not phi.ndim:  # numpy gives scalars, not arrays, for 0-d operands
        return ScdTriple(*(field.reshape(()) for field in scd_real(k, u.reshape(1))))
    return ScdTriple(np.sin(phi), np.cos(phi), 1.0 / phase_speed(k, phi))


def derivative_residuals(k: Modulus, u: float):
    """Central-difference deviations from s' = c d, c' = -s d and
    d' = -(8/3) k^2 s c / (2 + d), with step h = 1e-5.

    Returns (rs, rc, rd); each is O(h^2) wherever u +- h stays in range.
    """
    sp, cp, dp = scd_real(k, u + _STEP)
    sm, cm, dm = scd_real(k, u - _STEP)
    s, c, d = scd_real(k, u)
    rs = abs((sp - sm) / (2.0 * _STEP) - c * d)
    rc = abs((cp - cm) / (2.0 * _STEP) + s * d)
    rd = abs((dp - dm) / (2.0 * _STEP) + (8.0 / 3.0) * k * k * s * c / (2.0 + d))
    return rs, rc, rd
