"""The real phase map u(phi) and the functions s, c, d on the principal branch.

u(phi) is the integral of F(1/3, 2/3; 1/2; k^2 sin^2 theta) = du/dphi over
theta in [0, phi] (t = sin(theta) in the defining integral), taken in
closed form (DLMF 15.4) as cos(z/3) / cos(z), sin(z) = k sin(theta). The
map inverts on [-pi/2, pi/2], and

    s(u) = sin(phi(u)),  c(u) = cos(phi(u)),  d(u) = phi'(u).

The real branch is the complex field of :mod:`shenell.field` on the real
axis, so it ends at u_max = K and phi(u) is read off wp(u). u(phi), on a
fixed rule, is the one wp-free path: the certification suites' witness.

Each function of phi or u takes a number or an ndarray in one body, as
the field functions of z do; an array with an entry the number path
would refuse is refused whole, with the same error type.
"""

import math
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, RangeError
from .quadrature import _panels
from .weierstrass import POLE_EXCLUSION, Modulus, ShenContext, _check_modulus, q_with_prime

_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0
_HALF_PI_LOW = 6.123233995736766e-17  # pi/2 - fl(pi/2)

# step of the central differences of ``derivative_residuals``
_STEP = 1e-5


def phase_speed(k: Modulus, phi):
    """du/dphi at ``phi``, i.e. F(1/3, 2/3; 1/2; k^2 sin^2 phi). Always >= 1.

    With y = k |sin phi|, F = cos(asin(y) / 3) / cos(asin(y)) is taken as

        cos(pi/6 - (2/3) asin(sqrt((1 - y) / 2))) / sqrt((1 - y)(1 + y))

    from 1 - y = (1 - k) + k cos^2 phi / (1 + |sin phi|), which subtracts no
    nearly equal numbers: full relative accuracy as k -> 1 and phi -> pi/2,
    and exactly 1 at phi = 0. Even and pi-periodic; a number phi is reduced
    to [-pi/2, pi/2] by ``math.remainder``, an ndarray (exactly on that
    branch) as phi - pi round(phi / pi), and a 0-d array runs as the
    one-entry array. Raises DomainError unless 0 < k < 1, and for a
    non-finite phi, refusing an array with such an entry whole.
    """
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus out of range (0, 1): k={k!r}")
    if isinstance(phi, np.ndarray):
        if not phi.ndim:  # numpy gives scalars, not arrays, for 0-d operands
            return phase_speed(k, phi.reshape(1)).reshape(())
        if not np.isfinite(phi).all():
            raise DomainError("phi holds an entry that is not finite")
        phi = np.abs(phi - math.pi * np.rint(phi / math.pi))  # half to even, as np.round
        return _speed(k, np.cos(phi), np.sin(phi))
    if not math.isfinite(phi):
        raise DomainError(f"phi must be finite, got {phi!r}")
    phi = abs(math.remainder(phi, math.pi))
    return _speed(k, math.cos(phi), math.sin(phi), math.cos, math.asin, math.sqrt)


def _speed(k, c, s, cos=np.cos, asin=np.arcsin, sqrt=np.sqrt):
    # F at y = k sin(theta) from c = cos(theta) and s = sin(theta) >= 0, so
    # 1 - y >= 1 - k > 0; for t = pi/2 - theta, pass (sin t, cos t)
    one_minus_y = (1.0 - k) + k * (c * c / (1.0 + s))
    return (cos(math.pi / 6.0 - (2.0 / 3.0) * asin(sqrt(0.5 * one_minus_y)))
            / sqrt(one_minus_y * (2.0 - one_minus_y)))


def u_of_phi(k: Modulus, phi):
    """The phase integral u(phi) on the principal branch |phi| <= pi/2.

    Odd and strictly increasing in ``phi``; u(0) = 0. The integral runs over
    [0, |phi|] and takes the sign afterwards, so oddness is exact. The rule
    is fixed, with bounded work at every k: one 15-point Gauss-Legendre
    panel of the phase speed over theta in [0, min(|phi|, pi/4)]; above
    pi/4, t = pi/2 - theta = a sinh(sigma) with a = sqrt(2 (1 - k) / k),
    which moves F's branch point near t = +-i a to sigma = +-i pi/2, on
    ceil(asinh(pi / (4 a)) / 2) <= 10 equal sigma-panels. |phi| = fl(pi/2)
    is integrated up to that double, like any phi, so u(fl(pi/2)) =
    K - (pi/2 - fl(pi/2)) phase_speed(k, pi/2), not K.

    A number is the one-entry ndarray, returned as a float, and a 0-d array
    runs as the one-entry array. Each entry of an ndarray is integrated on
    its own nodes, so it is the number bitwise; an ndarray is refused whole
    (DomainError) if an entry is nan or off the branch.
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
    values = _panels(lambda theta: _speed(k, np.cos(theta), np.sin(theta)),
                     np.zeros_like(flat), np.minimum(flat, _QUARTER_PI))
    far = flat > _QUARTER_PI
    if far.any():
        a = math.sqrt(2.0 * (1.0 - k)) / math.sqrt(k)  # 2 (1 - k) / k overflows at tiny k
        top = math.asinh(_QUARTER_PI / a)
        n = math.ceil(top / 2.0)
        gap = _HALF_PI - flat[far]  # exact (Sterbenz): pi/2 - |phi| = gap + _HALF_PI_LOW
        low = np.arcsinh((gap + _HALF_PI_LOW) / a)
        edges = low[:, None] + (top - low)[:, None] * (np.arange(n + 1) / n)
        edges[:, -1] = top

        def tail(sigma):  # dt/dsigma times the phase speed at theta = pi/2 - t
            t = a * np.sinh(sigma)
            return _speed(k, np.sin(t), np.cos(t)) * (a * np.cosh(sigma))

        panels = _panels(tail, edges[:, :-1].ravel(), edges[:, 1:].ravel()).reshape(-1, n)
        # an ulp of a large end sigma moves t by ~sigma ulp(t), so the slivers
        # up to the true ends, pi/2 - |phi| and pi/2 - fl(pi/4), are added
        t_low, t_top = a * np.sinh(low), a * math.sinh(top)
        slivers = (((t_low - gap) - _HALF_PI_LOW) * _speed(k, np.sin(t_low), np.cos(t_low))
                   + ((_QUARTER_PI - t_top) + _HALF_PI_LOW)
                   * _speed(k, math.sin(t_top), math.cos(t_top), math.cos, math.asin, math.sqrt))
        values[far] += np.cumsum(panels, axis=1)[:, -1] + slivers
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
