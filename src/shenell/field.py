"""d, s^2, c^2 and s*c as elliptic functions of a complex variable.

d extends off the real axis as the rational function of wp

    d = 1 - (4/9) k^2 / Q,   Q = wp + 1/3,

elliptic of order two with simple poles at +-(2/3) i K' in the cell.
Q is of order k^2 near those poles, so it is never formed as wp + 1/3
(see ``q_with_prime``). s^2 = (1 - d)(2 + d)^2 / (4 k^2) and c^2 = 1 - s^2
are elliptic with triple poles; s and c themselves are not elliptic and
are only exposed on the real principal branch (see :mod:`shenell.phase`).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import DegenerateError, PoleError
from .weierstrass import (POLE_EXCLUSION, Invariants, Lattice, Modulus, Nome,
                          _nome_of_lattice, _root_differences, _wp_minus_root,
                          invariants_of_modulus, lattice_of_invariants, wp_with_prime)

#: A pole of d is |Q| = |wp + 1/3| < D_POLE_TOL * (8/27) k^2. Near a pole
#: z0, Q ~ wp'(z0) (z - z0) with |wp'(z0)| = (8/27) k^2, so the excluded
#: disc has radius ~D_POLE_TOL at every k.
D_POLE_TOL = 1e-10

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class ShenContext:
    """A modulus with its invariants, lattice, wp kernel constants and Q roots.

    ``nome`` and ``q_roots`` are derived from the other fields. The roots
    Q1 > Q2 > Q3 of Q = wp + 1/3 (Q'^2 = 4 Q^3 - 4 Q^2 + (32/27) k^2 Q -
    (64/729) k^4) are e_j + 1/3, but Q2 and Q3 are of order k^2, so they
    come from k: Q2 + Q3 = sqrt((e2 - e3)^2 + (64/729) k^4 / Q1),
    Q2 = (Q2 + Q3 + e2 - e3) / 2 and Q3 = (16/729) k^4 / (Q1 Q2).
    """

    k: Modulus
    inv: Invariants
    lat: Lattice
    nome: Nome = field(init=False, repr=False)
    q_roots: tuple = field(init=False)

    def __post_init__(self):
        q1 = self.lat.e1 + 1.0 / 3.0
        d23 = _root_differences(self.inv)[2]
        k4 = (self.k * self.k) ** 2
        q2 = 0.5 * (math.sqrt(d23 * d23 + (64.0 / 729.0) * k4 / q1) + d23)
        object.__setattr__(self, "nome", _nome_of_lattice(self.lat))
        object.__setattr__(self, "q_roots", (q1, q2, (16.0 / 729.0) * k4 / (q1 * q2)))

    @classmethod
    def from_modulus(cls, k: Modulus) -> "ShenContext":
        inv = invariants_of_modulus(k)
        return cls(k=k, inv=inv, lat=lattice_of_invariants(inv))


@lru_cache(maxsize=32)
def cached_context(k: Modulus) -> ShenContext:
    """``ShenContext.from_modulus(k)``, kept for the 32 most recent moduli.

    Shared by the verify suites and the grid sampler, so repeated calls at
    one modulus build its lattice once.
    """
    return ShenContext.from_modulus(k)


def q_with_prime(ctx: ShenContext, z) -> tuple:
    """(Q(z), wp'(z)) with Q = wp + 1/3, accurate relative to max(|Q|, k^2).

    Q is Q3 plus the theta quotient for wp - e3 (Q1 plus wp - e1 when the
    kernel is rotated). z and the pole rules are as in ``wp_with_prime``.
    """
    part, dp = _wp_minus_root(z, ctx.lat, ctx.nome, POLE_EXCLUSION)
    return ctx.q_roots[0 if ctx.nome.rotated else 2] + part, dp


def _pole_disc(ctx: ShenContext, q):
    # the pole rule of d for a number or an array Q (see D_POLE_TOL): the pole
    # mask, and Q moved to the disc's edge inside the disc, where Q may round to 0
    edge = D_POLE_TOL * (8.0 / 27.0) * ctx.k ** 2
    pole = abs(q) < edge
    if isinstance(pole, np.ndarray):
        return pole, np.where(pole, edge, q)
    return pole, edge if pole else q


def d_complex(ctx: ShenContext, z) -> complex:
    """d(z) = 1 - (4/9) k^2 / Q(z), Q = wp + 1/3; even, periods 2K and 2iK'.

    At lattice points wp has its pole and d takes the regular value 1
    (the initial condition of the real branch), returned exactly.
    Raises PoleError within ~``D_POLE_TOL`` of a pole of d, i.e. at z
    congruent to +-(2/3) i K' (see ``D_POLE_TOL``).
    """
    try:
        q, _ = q_with_prime(ctx, z)
    except PoleError:
        return complex(1.0, 0.0)
    if _pole_disc(ctx, q)[0]:
        raise PoleError(f"z={z!r} lies at a pole of d (wp(z) ~ -1/3)")
    return _d_of_q(ctx, q)


def s_squared(ctx: ShenContext, z) -> complex:
    """s^2 via the (s, d) relation: (1 - d)(2 + d)^2 / (4 k^2)."""
    return _s2_of_d(ctx, d_complex(ctx, z))


def c_squared(ctx: ShenContext, z) -> complex:
    """Pythagorean complement 1 - s^2."""
    return 1.0 - s_squared(ctx, z)


# Formulas in d, Q and wp' for Python scalars and numpy arrays alike, shared
# by the scalar functions and the batch evaluations of the verify suites.

def _d_of_q(ctx, q):
    return 1.0 - (4.0 / 9.0) * ctx.k ** 2 / q


def _s2_of_d(ctx, d):
    return (1.0 - d) * ((2.0 + d) * (2.0 + d)) / (4.0 * ctx.k ** 2)


def _sc_of_q(ctx, q, dp):
    # -(3 / (8 k^2)) (2 + d) d', d' = (4/9) k^2 wp' / Q^2; 2 + d as
    # (3 Q - (4/9) k^2) / Q rounds alike for scalars and arrays where it cancels
    return -(3.0 * q - (4.0 / 9.0) * ctx.k ** 2) * dp / (6.0 * (q * q * q))


def _cubic_residual(ctx, d):
    return abs(d ** 3 + 3.0 * d ** 2 - 4.0 * (1.0 - ctx.k ** 2 * _s2_of_d(ctx, d)))


def _d_ode_residual(ctx, q, dp):
    d, d_prime = _d_of_q(ctx, q), (4.0 / 9.0) * ctx.k ** 2 * dp / (q * q)
    rhs = (4.0 / 9.0) * (1.0 - d) * (d ** 3 + 3.0 * d ** 2 + 4.0 * ctx.k ** 2 - 4.0)
    return abs(d_prime * d_prime - rhs)


def _substitution_residual(ctx, one_minus_d, q):
    return abs((4.0 / 9.0) * ctx.k ** 2 / one_minus_d - q)


def sc_product(ctx: ShenContext, z) -> complex:
    """The product s c = -(3 / (8 k^2)) (2 + d) d' = -(2 + d) wp' / (6 Q^2).

    d' = (4/9) k^2 wp' / Q^2 comes in closed form from the wp' that the
    kernel returns with Q. sc is 0 at lattice points, where d is 1. It
    never raises PoleError: inside the pole disc of d, Q is taken at the
    disc's edge, so at +-(2/3) iK' sc is huge (~8e29 / k^2) but finite.
    """
    try:
        q, dp = q_with_prime(ctx, z)
    except PoleError:
        return complex(0.0, 0.0)
    return _sc_of_q(ctx, _pole_disc(ctx, q)[1], dp)


def _wp_values(ctx: ShenContext, z):
    p, _ = wp_with_prime(z, ctx.inv, ctx.lat)
    return p, np.isnan(p)


def _d_values(ctx: ShenContext, z):
    # d_complex's rules: exactly 1 at lattice points (Q is nan), a pole in the disc
    q, _ = q_with_prime(ctx, z)
    pole, q = _pole_disc(ctx, q)
    with np.errstate(invalid="ignore"):
        d = _d_of_q(ctx, q)
    d[np.isnan(q)] = 1.0
    d[pole] = np.nan
    return d, pole


def _s2_values(ctx: ShenContext, z):
    d, pole = _d_values(ctx, z)
    return _s2_of_d(ctx, d), pole


def _c2_values(ctx: ShenContext, z):
    s2, pole = _s2_values(ctx, z)
    return 1.0 - s2, pole


def _sc_values(ctx: ShenContext, z):
    # sc_product's rules: 0 at lattice points, never a pole
    q, dp = q_with_prime(ctx, z)
    q = _pole_disc(ctx, q)[1]
    with np.errstate(invalid="ignore"):
        sc = _sc_of_q(ctx, q, dp)
    sc[np.isnan(q)] = 0.0
    return sc, np.zeros(sc.shape, dtype=bool)


#: The functions of ``shenell sample`` over a flat complex array: name ->
#: f(ctx, z) returning (values, pole_mask) by the pole rules of the scalar
#: functions (``wp``, ``d_complex``, ``s_squared``, ``c_squared`` and
#: ``sc_product``), each through the scalar formula from one kernel pass.
BATCH_FUNCTIONS = {
    "d": _d_values,
    "s2": _s2_values,
    "c2": _c2_values,
    "sc": _sc_values,
    "wp": _wp_values,
}


def cubic_relation_residual(ctx: ShenContext, z) -> float:
    """|d^3 + 3 d^2 - 4 (1 - k^2 s^2)| at z."""
    return _cubic_residual(ctx, d_complex(ctx, z))


def d_ode_residual(ctx: ShenContext, z) -> float:
    """Residual of (d')^2 = (4/9)(1 - d)(d^3 + 3 d^2 + 4 k^2 - 4).

    d' = (4/9) k^2 wp' / Q^2. wp and wp' are separate theta quotients, so
    this checks wp'^2 = 4 wp^3 - g2 wp - g3 in Q form. 0 at lattice
    points, where d = 1 and d' = 0; raises PoleError at a pole of d.
    """
    try:
        q, dp = q_with_prime(ctx, z)
    except PoleError:
        return 0.0
    if _pole_disc(ctx, q)[0]:
        raise PoleError(f"z={z!r} lies at a pole of d (wp(z) ~ -1/3)")
    return _d_ode_residual(ctx, q, dp)


def substitution_chain_check(ctx: ShenContext, z) -> float:
    """|p(z) - wp(z)| where p = (4 k^2 / 9) / (1 - d) - 1/3.

    Exercises the change of variables r = 1/(1 - d), q = (4 k^2 / 9) r,
    p = q - 1/3 against a direct evaluation, as |q - Q(z)|; the constants
    enter the two paths independently, so a wrong coefficient in either
    one shows up here. Raises DegenerateError where d(z) = 1 (lattice points).
    """
    d = d_complex(ctx, z)
    if abs(1.0 - d) < _UNIT_TOL:
        raise DegenerateError(f"d(z) = 1 at z={z!r}; the substitution degenerates")
    return _substitution_residual(ctx, 1.0 - d, q_with_prime(ctx, z)[0])


def pole_order_slope(f, z0, radii=None, direction=1.0) -> float:
    """Least-squares slope of log|f| against log r on a dyadic radius sweep.

    Approaches ``z0`` along ``direction`` at radii 1e-2, 5e-3, ... down
    to just under 1e-5 by default. A simple pole gives -1, a triple pole
    -3, to within the curvature of the analytic part over the sweep.
    """
    if radii is None:
        radii = [1e-2 * 0.5 ** j for j in range(11)]
    direction = complex(direction) / abs(complex(direction))
    log_r = [math.log(r) for r in radii]
    log_f = [math.log(abs(f(z0 + r * direction))) for r in radii]
    slope = np.polyfit(log_r, log_f, 1)[0]
    return float(slope)
