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

from .exceptions import DegenerateError, DomainError, PoleError
from .weierstrass import (POLE_EXCLUSION, Invariants, Lattice, Modulus, Nome,
                          _nome_of_lattice, _root_differences, _wp_minus_root,
                          invariants_of_modulus, lattice_of_invariants, wp_with_prime)

#: |Q| = |wp + 1/3| below this counts as a pole of d.
D_POLE_TOL = 1e-10

_FD_STEP = 1e-6
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


def d_complex(ctx: ShenContext, z) -> complex:
    """d(z) = 1 - (4/9) k^2 / Q(z), Q = wp + 1/3; even, periods 2K and 2iK'.

    At lattice points wp has its pole and d takes the regular value 1
    (the initial condition of the real branch), returned exactly.
    Raises PoleError where |Q(z)| < ``D_POLE_TOL``, i.e. at z congruent
    to +-(2/3) i K'.
    """
    try:
        q, _ = q_with_prime(ctx, z)
    except PoleError:
        return complex(1.0, 0.0)
    if abs(q) < D_POLE_TOL:
        raise PoleError(f"z={z!r} lies at a pole of d (wp(z) ~ -1/3)")
    return 1.0 - (4.0 / 9.0) * ctx.k ** 2 / q


def s_squared(ctx: ShenContext, z) -> complex:
    """s^2 via the (s, d) relation: (1 - d)(2 + d)^2 / (4 k^2)."""
    return _s2_of_d(ctx, d_complex(ctx, z))


def c_squared(ctx: ShenContext, z) -> complex:
    """Pythagorean complement 1 - s^2."""
    return 1.0 - s_squared(ctx, z)


# Formulas in d (and Q) for Python scalars and numpy arrays alike, shared
# by the scalar functions and the batch evaluations of the verify suites.

def _s2_of_d(ctx, d):
    return (1.0 - d) * ((2.0 + d) * (2.0 + d)) / (4.0 * ctx.k ** 2)


def _sc_of_differences(ctx, d_plus, d_minus, step):
    # -(3 / (16 k^2)) d/dz (d + 2)^2 as a central difference
    fp, fm = d_plus + 2.0, d_minus + 2.0
    return -3.0 / (16.0 * ctx.k ** 2) * ((fp * fp - fm * fm) / (2.0 * step))


def _cubic_residual(ctx, d):
    return abs(d ** 3 + 3.0 * d ** 2 - 4.0 * (1.0 - ctx.k ** 2 * _s2_of_d(ctx, d)))


def _d_ode_residual(ctx, d, d_prime):
    rhs = (4.0 / 9.0) * (1.0 - d) * (d ** 3 + 3.0 * d ** 2 + 4.0 * ctx.k ** 2 - 4.0)
    return abs(d_prime * d_prime - rhs)


def _substitution_residual(ctx, one_minus_d, q):
    return abs((4.0 / 9.0) * ctx.k ** 2 / one_minus_d - q)


def sc_product(ctx: ShenContext, z, h: float = _FD_STEP) -> complex:
    """The product s c = -(3 / (16 k^2)) * d/dz (d + 2)^2.

    The derivative is a central difference with step ``h``, taken along
    the real direction unless that line hits a pole, then the imaginary
    direction. Analytically equal to -(3 / (8 k^2)) (2 + d) d'.
    """
    return _sc_of_differences(ctx, *_differences(ctx, z, h))


def _differences(ctx: ShenContext, z, h):
    """(d(z + step), d(z - step), step) for one z, as in ``_difference_values``."""
    if h <= 0.0:
        raise DomainError("step h must be positive")
    z = complex(z)
    for step in (complex(h), 1j * h):
        try:
            return d_complex(ctx, z + step), d_complex(ctx, z - step), step
        except PoleError:
            continue
    raise PoleError(f"both difference directions at z={z!r} hit poles of d")


def _wp_values(ctx: ShenContext, z):
    p, _ = wp_with_prime(z, ctx.inv, ctx.lat)
    return p, np.isnan(p)


def _d_values(ctx: ShenContext, z):
    # d_complex's rules: exactly 1 at lattice points, a pole where
    # |Q| < D_POLE_TOL
    q, _ = q_with_prime(ctx, z)
    lattice = np.isnan(q)
    pole = np.abs(q) < D_POLE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1.0 - (4.0 / 9.0) * ctx.k ** 2 / q
    d[lattice] = 1.0
    d[pole] = np.nan
    return d, pole


def _s2_values(ctx: ShenContext, z):
    d, pole = _d_values(ctx, z)
    return _s2_of_d(ctx, d), pole


def _c2_values(ctx: ShenContext, z):
    s2, pole = _s2_values(ctx, z)
    return 1.0 - s2, pole


def _difference_values(ctx: ShenContext, z, h):
    """(d(z + step), d(z - step), step, pole_mask) over an array of z.

    step is h along the real direction, or along the imaginary one where
    the real line hits a pole of d, as in ``sc_product`` and
    ``d_ode_residual``; the mask marks the points where both directions do.
    """
    step = np.full(z.shape, complex(h))
    d, pole = _d_values(ctx, np.concatenate([z + step, z - step]))
    d_plus, d_minus = np.split(d, 2)
    pole = np.logical_or(*np.split(pole, 2))
    if pole.any():
        step[pole] = 1j * h
        d, turned = _d_values(ctx, np.concatenate([z[pole] + step[pole], z[pole] - step[pole]]))
        d_plus[pole], d_minus[pole] = np.split(d, 2)
        pole[pole] = np.logical_or(*np.split(turned, 2))
    return d_plus, d_minus, step, pole


def _sc_values(ctx: ShenContext, z, h=_FD_STEP):
    d_plus, d_minus, step, pole = _difference_values(ctx, z, h)
    return _sc_of_differences(ctx, d_plus, d_minus, step), pole


#: The functions of ``shenell sample`` over a flat complex array: name ->
#: f(ctx, z) returning (values, pole_mask) by the pole rules of the scalar
#: functions (``wp``, ``d_complex``, ``s_squared``, ``c_squared`` and
#: ``sc_product`` with its default step), each from array kernel passes.
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


def d_ode_residual(ctx: ShenContext, z, h: float = 1e-5) -> float:
    """Residual of (d')^2 = (4/9)(1 - d)(d^3 + 3 d^2 + 4 k^2 - 4).

    d' is a central difference with step ``h`` (real direction first,
    imaginary as the fallback near poles).
    """
    d_plus, d_minus, step = _differences(ctx, z, h)
    return _d_ode_residual(ctx, d_complex(ctx, z), (d_plus - d_minus) / (2.0 * step))


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
