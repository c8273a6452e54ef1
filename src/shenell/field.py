"""d, s^2, c^2 and s*c as elliptic functions of a complex variable.

d extends off the real axis as the rational function of wp

    d = 1 - (4/9) k^2 / Q,   Q = wp + 1/3,

elliptic of order two with simple poles at +-(2/3) i K' in the cell.
Q is of order k^2 near those poles, so it is never formed as wp + 1/3
(see ``weierstrass.q_with_prime``). s^2 = (1 - d)(2 + d)^2 / (4 k^2), taken as
(3 Q - (4/9) k^2)^2 / (9 Q^3), and c^2 = 1 - s^2 are elliptic with triple
poles; s and c themselves are not elliptic and are only exposed on the
real principal branch (see :mod:`shenell.phase`).

Each function of z takes ``(ctx, z)`` and has one body for a number and
an ndarray, as the kernel does: where a number raises PoleError, an array holds nan,
and a 0-d array gives what the one-entry array gives, reshaped back.
"""

import math
from typing import NamedTuple

import numpy as np

from .exceptions import DegenerateError, PoleError
from .weierstrass import ShenContext, q_with_prime, wp  # also read as field.ShenContext

#: A pole of d is |Q| = |wp + 1/3| < D_POLE_TOL * (8/27) k^2. Near a pole
#: z0, Q ~ wp'(z0) (z - z0) with |wp'(z0)| = (8/27) k^2, so the excluded
#: disc has radius ~D_POLE_TOL at every k.
D_POLE_TOL = 1e-10

_UNIT_TOL = 1e-12


class _Evaluated(NamedTuple):
    """(Q, wp') arrays that ``q_with_prime`` returned at some points.

    Every function of z below takes one in place of the array of points,
    and applies its formula and pole rules to these values without
    evaluating the kernel again.
    """

    q: np.ndarray
    dp: np.ndarray


def _by_pole_rules(ctx: ShenContext, z, formula, at_lattice, poles=True):
    # formula(Q, wp') at a number or an array z, or at _Evaluated values:
    # ``at_lattice`` exactly where the kernel refuses a lattice point, and in
    # the pole disc of d (see D_POLE_TOL; with ``poles``) PoleError for a
    # number and nan in an array; elsewhere in the disc, where Q may round
    # to 0, Q is taken at its edge; a 0-d array runs as the one-entry array
    if isinstance(z, _Evaluated):
        q, dp = z
    elif isinstance(z, np.ndarray) and not z.ndim:
        return _by_pole_rules(ctx, z.reshape(1), formula, at_lattice, poles).reshape(())
    else:
        try:
            q, dp = q_with_prime(ctx, z)
        except PoleError:
            return at_lattice
    edge = D_POLE_TOL * (8.0 / 27.0) * ctx.k ** 2
    size = abs(q)
    if not isinstance(q, np.ndarray):
        pole = size < edge
        if pole and poles:
            raise PoleError(f"z={z!r} lies at a pole of d (wp(z) ~ -1/3)")
        return formula(edge if pole else q, dp)
    # the kernel's only non-finite entries are nan + 0j at lattice points,
    # whose modulus is nan, so one comparison is false at them and in the disc
    if (size >= edge).all():
        return formula(q, dp)  # may be q itself, so nothing below writes into it
    pole, lattice = size < edge, np.isnan(q)
    with np.errstate(invalid="ignore"):
        values = formula(np.where(pole, edge, q), dp)
    values[lattice] = at_lattice
    if poles:
        values[pole] = np.nan
    return values


# Formulas without a z, for Python scalars and numpy arrays alike

def _d_of_q(ctx, q):
    return 1.0 - (4.0 / 9.0) * ctx.k ** 2 / q


def _s2_of_q(ctx, q):
    # (1 - d)(2 + d)^2 / (4 k^2) with 1 - d = (4/9) k^2 / Q, 2 + d = (3 Q - (4/9) k^2) / Q
    t = 3.0 * q - (4.0 / 9.0) * ctx.k ** 2
    return t * t / (9.0 * (q * q * q))


def _substitution_residual(ctx, one_minus_d, q):
    return abs((4.0 / 9.0) * ctx.k ** 2 / one_minus_d - q)


def d_complex(ctx: ShenContext, z):
    """d(z) = 1 - (4/9) k^2 / Q(z), Q = wp + 1/3; even, periods 2K and 2iK'.

    z is a number or an ndarray. At lattice points wp has its pole and d
    takes the regular value 1 (the initial condition of the real branch),
    exactly. Within ~``D_POLE_TOL`` of a pole of d, i.e. at z congruent
    to +-(2/3) i K', a number raises PoleError and an array holds nan.
    """
    return _by_pole_rules(ctx, z, lambda q, _: _d_of_q(ctx, q), complex(1.0, 0.0))


def s_squared(ctx: ShenContext, z):
    """s^2 = (1 - d)(2 + d)^2 / (4 k^2), taken as (3 Q - (4/9) k^2)^2 / (9 Q^3).

    With 1 - d = (4/9) k^2 / Q and 2 + d = (3 Q - (4/9) k^2) / Q, the k^2
    cancels before rounding, so s^2 keeps the relative accuracy of Q at
    every k, where 1 - d rounded off d ~ 1 costs ~eps / k^2. 0 at lattice
    points; poles as ``d_complex``.
    """
    return _by_pole_rules(ctx, z, lambda q, _: _s2_of_q(ctx, q), complex(0.0, 0.0))


def c_squared(ctx: ShenContext, z):
    """Pythagorean complement 1 - s^2; poles as ``d_complex``."""
    return _by_pole_rules(ctx, z, lambda q, _: 1.0 - _s2_of_q(ctx, q), complex(1.0, 0.0))


def sc_product(ctx: ShenContext, z):
    """The product s c = -(3 / (8 k^2)) (2 + d) d' = -(2 + d) wp' / (6 Q^2).

    d' = (4/9) k^2 wp' / Q^2 comes in closed form from the wp' that the
    kernel returns with Q, and 2 + d is written as (3 Q - (4/9) k^2) / Q,
    so numbers and arrays round alike where it cancels. z is a number or
    an ndarray. sc is 0 at lattice points, where d is 1. It is never a
    pole: inside the pole disc of d, Q is taken at the disc's edge, so at
    +-(2/3) iK' sc is huge (~8e29 / k^2) but finite.
    """
    a = (4.0 / 9.0) * ctx.k ** 2
    return _by_pole_rules(ctx, z, lambda q, dp: -(3.0 * q - a) * dp / (6.0 * (q * q * q)),
                          complex(0.0, 0.0), poles=False)


#: The functions of ``shenell sample``: name -> f(ctx, z) for a flat
#: complex array z, nan (a pole row) wherever the function raises
#: PoleError for a number.
BATCH_FUNCTIONS = {
    "d": d_complex,
    "s2": s_squared,
    "c2": c_squared,
    "sc": sc_product,
    "wp": wp,
}


def cubic_relation_residual(ctx: ShenContext, z):
    """|d^3 + 3 d^2 - 4 (1 - k^2 s^2)| with d and s^2 from one Q; z and poles as ``d_complex``."""
    def residual(q, _):
        d = _d_of_q(ctx, q)
        return abs(d ** 3 + 3.0 * d ** 2 - 4.0 * (1.0 - ctx.k ** 2 * _s2_of_q(ctx, q)))

    return _by_pole_rules(ctx, z, residual, 0.0)


def d_ode_residual(ctx: ShenContext, z):
    """Residual of (d')^2 = (4/9)(1 - d)(d^3 + 3 d^2 + 4 k^2 - 4).

    d' = (4/9) k^2 wp' / Q^2. wp and wp' are separate theta quotients, so
    this checks wp'^2 = 4 wp^3 - g2 wp - g3 in Q form. z is a number or an
    ndarray. 0 at lattice points, where d = 1 and d' = 0; poles as
    ``d_complex``.
    """
    def residual(q, dp):
        d, d_prime = _d_of_q(ctx, q), (4.0 / 9.0) * ctx.k ** 2 * dp / (q * q)
        rhs = (4.0 / 9.0) * (1.0 - d) * (d ** 3 + 3.0 * d ** 2 + 4.0 * ctx.k ** 2 - 4.0)
        return abs(d_prime * d_prime - rhs)

    return _by_pole_rules(ctx, z, residual, 0.0)


def substitution_chain_check(ctx: ShenContext, z):
    """|p(z) - wp(z)| where p = (4 k^2 / 9) / (1 - d) - 1/3.

    Exercises the change of variables r = 1/(1 - d), q = (4 k^2 / 9) r,
    p = q - 1/3 against a direct evaluation, as |q - Q(z)|; the constants
    enter the two paths independently, so a wrong coefficient in either
    one shows up here. z is a number or an ndarray. A number raises
    DegenerateError where d(z) = 1 (lattice points, where Q is infinite)
    and PoleError at the poles of d, as ``d_complex``; an array holds nan
    at both, and a 0-d one runs as the one-entry array.
    """
    if isinstance(z, np.ndarray) and not z.ndim:
        return substitution_chain_check(ctx, z.reshape(1)).reshape(())
    q = _by_pole_rules(ctx, z, lambda q, _: q, math.inf)
    if not isinstance(q, np.ndarray):
        one_minus_d = 1.0 - _d_of_q(ctx, q)
        if abs(one_minus_d) < _UNIT_TOL:
            raise DegenerateError(f"d(z) = 1 at z={z!r}; the substitution degenerates")
        return _substitution_residual(ctx, one_minus_d, q)
    # Q = inf at lattice points, and 1 - d may round to 0 near them
    with np.errstate(divide="ignore", invalid="ignore"):
        one_minus_d = 1.0 - _d_of_q(ctx, q)
        return np.where(abs(one_minus_d) < _UNIT_TOL, np.nan,
                        _substitution_residual(ctx, one_minus_d, q))


#: The radius sweep of ``pole_order_slope``: r = 1e-2 * 2^-j, j < 11
_RADII = 1e-2 * 0.5 ** np.arange(11)
_LOG_RADII = np.log(_RADII) - np.log(_RADII).mean()  # centred


def _slope(log_f) -> float:
    # least-squares slope of log|f| against log r over _RADII, in the centred
    # closed form sum (x - x_mean)(y - y_mean) / sum (x - x_mean)^2
    return float(_LOG_RADII @ (log_f - log_f.mean()) / (_LOG_RADII @ _LOG_RADII))


def pole_order_slope(f, z0) -> float:
    """Least-squares slope of log|f(z0 + r)| against log r on a dyadic radius sweep.

    ``z0`` is approached along +1 at the radii r = 1e-2 * 2^-j, j < 11,
    from 1e-2 down to just under 1e-5, with one call of ``f`` per radius.
    A simple pole gives -1, a triple pole -3, to within the curvature of
    the analytic part over the sweep. The fit is the centred closed form
    sum (x - x_mean)(y - y_mean) / sum (x - x_mean)^2 in x = log r,
    y = log|f|; the ``pole-order`` suite applies the same fit to one
    array evaluation at z0 + r.
    """
    return _slope(np.array([math.log(abs(f(z0 + r))) for r in _RADII.tolist()]))
