"""Named identity suites producing tolerance-checked reports.

Each suite evaluates one family of identities at a deterministic sample
set for a given modulus and reports the worst residual against a
tolerance. ``run_suite`` turns the modulus into a ``ShenContext`` once,
and every suite runner takes that context. The samples are drawn as
arrays and passed to the public functions of :mod:`shenell.field` and
:mod:`shenell.phase`, which take arrays as they take numbers. The kernel
is evaluated once per sample: a suite that draws its samples by
rejection keeps the kernel values its acceptance test computed, and
hands them to the field functions in place of the points. Every suite
has a pinned default tolerance: the accuracy scale of its identity where
it has one (derivatives and period shifts near poles, slope fits, exact
arithmetic), else 1e-9. An explicit tolerance always wins. A nan
residual fails: every suite takes its worst residual with a maximum
that propagates nan.

Three suites check only constants and rounding, with no independent
route: ``cubic-relation`` (s^2 is that relation solved), the complex half
of ``substitution-chain`` (1 - d is (4/9) k^2 / Q) and ``pythagorean``.
"""

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .field import (_RADII, _Evaluated, _slope, _substitution_residual,
                    cubic_relation_residual, d_complex, d_ode_residual, s_squared, sc_product,
                    substitution_chain_check)
from .phase import _phase_and_q, phi_of_u, scd_real, u_of_phi
from .poles import certify_pole, factorization_check
from .weierstrass import ShenContext, _duplication_residual, q_with_prime, wp_with_prime

# Pole-order windows: slope of |d| within 0.05 of -1, slope of |s^2|
# within 0.1 of -3. The suite residual is the worst deviation relative
# to its window, so 1.0 marks the edge.
_SLOPE_WINDOW_D = 0.05
_SLOPE_WINDOW_S2 = 0.1


@dataclass(frozen=True)
class VerificationReport:
    identity_name: str
    k: float
    samples: int
    max_residual: float
    tolerance: float
    passed: bool


def _rng(name, k):
    seed = zlib.crc32(f"{name}:{float(k)!r}".encode())
    return np.random.default_rng(seed)


def _sample_cell(ctx, name, count, accept):
    """The first ``count`` points of the period cell that ``accept`` passes, and its values there.

    Candidates are uniform over 0.95 of the cell, drawn from the stream
    of suite ``name`` at ``ctx.k`` in blocks but in the order of one draw
    per coordinate. ``accept`` maps an array of them to a boolean mask,
    in which a pole counts as a rejection, and a tuple of arrays of
    values at the candidates. Returns the tuple
    (points, *values) cut to the accepted points. At most 200 * count
    candidates are tried.
    """
    rng = _rng(name, ctx.k)
    scale = np.array([ctx.lat.K, ctx.lat.K_prime])
    kept = []
    for _ in range(100):  # blocks of 2 * count: the 200 * count budget
        # rows (re, im) viewed as complex numbers
        z = (rng.uniform(-0.95, 0.95, size=(2 * count, 2)) * scale).view(complex).ravel()
        mask, values = accept(z)
        kept.append([column[mask] for column in (z, *values)])
        if sum(part[0].size for part in kept) >= count:
            return tuple(np.concatenate(column)[:count] for column in zip(*kept))
    raise ConvergenceError("rejection sampling exhausted its attempt budget")


def _worst(*residuals) -> float:
    # the largest residual, nan if any is nan (Python's max(a, nan) returns a)
    return float(np.max(residuals))


def _kernel(ctx, z):
    # (Q, wp') at z, in the form the field functions take in place of z
    return _Evaluated(*q_with_prime(ctx, z))


def _period_gap(values):
    # the largest change under a period shift, for values at zs, zs + 2K, zs + 2iK'
    rows = values.reshape(3, -1)
    return np.max(np.abs(rows[1:] - rows[0]))


def _suite_pythagorean(ctx):
    s, c, _ = scd_real(ctx.k, np.linspace(-0.95, 0.95, 21) * ctx.lat.K)
    return s.size, float(np.max(np.abs(s * s + c * c - 1.0)))


def _suite_cubic_relation(ctx):
    def accept(z):
        at = _kernel(ctx, z)
        return np.abs(d_complex(ctx, at)) <= 50.0, at

    zs, q, dp = _sample_cell(ctx, "cubic-relation", 40, accept)
    return zs.size, float(np.max(cubic_relation_residual(ctx, _Evaluated(q, dp))))


def _suite_d_ode(ctx):
    rng = _rng("d-ode", ctx.k)
    real = rng.uniform(0.15, 0.9, 10) * ctx.lat.K
    plane = rng.uniform([-0.9, -0.45], [0.9, 0.45], size=(10, 2)) * [ctx.lat.K, ctx.lat.K_prime]
    zs = np.concatenate([real.astype(complex), plane.view(complex).ravel()])
    # wp and wp' are separate theta quotients: an identity of the kernel
    return zs.size, float(np.max(d_ode_residual(ctx, zs)))


def _suite_duplication(ctx):
    def accept(a):
        p, dp = wp_with_prime(ctx, np.concatenate([a, 2.0 * a]))
        pa, dpa, p2a = p[:a.size], dp[:a.size], p[a.size:]
        return ((np.abs(pa) <= 20.0) & (np.abs(dpa) >= 0.1) & (np.abs(p2a) <= 100.0),
                (pa, dpa, p2a))

    zs, *values = _sample_cell(ctx, "duplication", 20, accept)
    return zs.size, float(np.max(_duplication_residual(ctx.inv, *values)))


def _suite_substitution_chain(ctx):
    # real axis: u and d from the defining integral and its integrand at
    # phi, a path fully independent of wp, against wp(u) and its inverse.
    # d = 1/F is within (4/9) k^2 of 1, so 1 - d is taken as (F - 1)/F =
    # 2 sin(2a/3) tan(a/3), a = asin(k |sin phi|), not rounded off d
    phi = phi_of_u(ctx.k, np.linspace(0.15, 0.9, 10) * ctx.lat.K)
    phi_again, q = _phase_and_q(ctx, u_of_phi(ctx.k, phi))
    a = np.arcsin(ctx.k * np.abs(np.sin(phi)))
    one_minus_d = 2.0 * np.sin(2.0 * a / 3.0) * np.tan(a / 3.0)
    real = [_substitution_residual(ctx, one_minus_d, q), np.abs(phi_again - phi)]

    # complex plane: the rational-wp continuation against wp itself. The
    # rounding of d reaches (4 k^2 / 9) / (1 - d) multiplied by
    # (9 / (4 k^2)) |Q|^2, so points need |1 - d| = (4/9) k^2 / |Q| above a
    # bound proportional to k
    def accept(z):
        at = _kernel(ctx, z)
        d = d_complex(ctx, at)
        return (np.abs(1.0 - d) > 1e-3 * ctx.k) & (np.abs(d) <= 50.0), at

    _, q, dp = _sample_cell(ctx, "substitution-chain", 10, accept)
    plane = substitution_chain_check(ctx, _Evaluated(q, dp))
    return 20, float(np.max(np.concatenate([*real, plane])))


def _suite_factorization(ctx):
    return 1, 0.0 if factorization_check(Fraction(ctx.k) ** 2) else 1.0


def _suite_pole(ctx):
    residual = certify_pole(ctx)
    a = (2.0 / 3.0) * 1.0j * ctx.lat.K_prime
    congruence = abs(q_with_prime(ctx, 2.0 * a)[0] - q_with_prime(ctx, a)[0])
    return 2, _worst(residual, congruence)


def _suite_periodicity(ctx):
    def away_from_d_poles(z):
        # |Q| = |wp + 1/3| >= 0.15 caps |dd/dQ| at (4/9)/0.15^2 ~ 20 for
        # every k, which keeps wp evaluation noise from leaking into d and s^2
        at = _kernel(ctx, z)
        return np.abs(at.q) >= 0.15, at

    zs, q, dp = _sample_cell(ctx, "periodicity", 50, away_from_d_poles)
    # Q and wp' at zs, then at its translates by the periods 2K and 2iK'
    moved = _kernel(ctx, np.concatenate([zs + 2.0 * ctx.lat.K, zs + 2.0j * ctx.lat.K_prime]))
    at = _Evaluated(np.concatenate([q, moved.q]), np.concatenate([dp, moved.dp]))
    first = np.s_[:, :8]  # sc at the first 8 points of zs and their translates
    head = _Evaluated(*(column.reshape(3, -1)[first].ravel() for column in at))
    s2 = s_squared(ctx, at)
    gaps = [_period_gap(v) for v in (d_complex(ctx, at), s2, 1.0 - s2)]  # c^2 = 1 - s^2
    gaps.append(_period_gap(sc_product(ctx, head)))
    return 3 * 2 * zs.size + 2 * 8, float(np.max(gaps))


def _suite_pole_order(ctx):
    # the fit of pole_order_slope, on one kernel pass over the radius sweep
    at = _kernel(ctx, (2.0 / 3.0) * 1.0j * ctx.lat.K_prime + _RADII)
    slope_d, slope_s2 = (_slope(np.log(np.abs(f(ctx, at)))) for f in (d_complex, s_squared))
    return 2, _worst(abs(slope_d + 1.0) / _SLOPE_WINDOW_D, abs(slope_s2 + 3.0) / _SLOPE_WINDOW_S2)


#: suite name -> (runner(ctx) -> (samples, worst residual), pinned tolerance)
SUITES = {
    "pythagorean": (_suite_pythagorean, 1e-13),
    "cubic-relation": (_suite_cubic_relation, 1e-9),
    "d-ode": (_suite_d_ode, 1e-7),
    "duplication": (_suite_duplication, 1e-9),
    "substitution-chain": (_suite_substitution_chain, 1e-8),
    "factorization": (_suite_factorization, 0.5),
    "pole": (_suite_pole, 1e-10),
    "periodicity": (_suite_periodicity, 1e-8),
    "pole-order": (_suite_pole_order, 1.0),
}


def available_suites():
    return sorted(SUITES)


def _suite(name):
    # the one suite-name rule: (runner, pinned tolerance), else DomainError
    try:
        return SUITES[name]
    except KeyError:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{', '.join(available_suites())}") from None


def _tolerance(value):
    # the one rule for an explicit tolerance: a finite number > 0, else DomainError
    try:
        if math.isfinite(tol := float(value)) and tol > 0.0:
            return tol
    except (TypeError, ValueError):
        pass
    raise DomainError(f"tol must be a finite positive number, got {value!r}")


def default_tolerance(name: str) -> float:
    """The pinned tolerance of suite ``name``, used when none is given; DomainError if unknown."""
    return _suite(name)[1]


def run_suite(name: str, k: float, tol: float = None) -> VerificationReport:
    """Run one identity suite at modulus ``k`` and report the worst residual.

    A bad name, ``k`` or tolerance (``tol`` finite, > 0) raises DomainError first.
    """
    runner, pinned = _suite(name)
    ctx = ShenContext.from_modulus(k)
    tolerance = pinned if tol is None else _tolerance(tol)
    samples, worst = runner(ctx)
    return VerificationReport(identity_name=name, k=k, samples=samples, max_residual=worst,
                              tolerance=tolerance, passed=worst < tolerance)


def run_suites(names, ks, tol: float = None):
    """Reports for every (suite, k) pair, sorted by suite name then k.

    Every name, and an explicit ``tol``, is checked (DomainError) before
    the first suite runs, even when there is nothing to run.
    """
    for name in names:
        _suite(name)
    if tol is not None:
        _tolerance(tol)
    reports = [run_suite(name, k, tol) for name in names for k in ks]
    reports.sort(key=lambda r: (r.identity_name, r.k))
    return reports
