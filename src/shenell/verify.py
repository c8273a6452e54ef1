"""Named identity suites producing tolerance-checked reports.

Each suite evaluates one family of identities at a deterministic sample
set for a given modulus and reports the worst residual against a
tolerance. The samples are drawn and evaluated as arrays, on the same
wp kernel and through the same formulas as the scalar check functions.
Default tolerances are pinned per suite where an identity has a natural
accuracy scale (derivatives and period shifts near poles, slope fits,
exact arithmetic); the remaining suites use the generic default of 1e-9,
overridable through the SHEN_DEFAULT_TOL environment variable. An
explicit tolerance always wins.
"""

import math
import os
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import ConvergenceError, DomainError
from .field import (_cubic_residual, _d_ode_residual, _d_values,
                    _s2_of_d, _sc_values, _substitution_residual, cached_context,
                    d_complex, pole_order_slope, q_with_prime, s_squared)
from .phase import phi_of_u, scd_real, u_max, u_of_phi
from .poles import certify_pole, factorization_check
from .weierstrass import _duplication_residual, wp_with_prime

GENERIC_DEFAULT_TOL = 1e-9
_ENV_VAR = "SHEN_DEFAULT_TOL"

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


def _report(name, k, samples, max_residual, tolerance):
    return VerificationReport(identity_name=name, k=k, samples=samples,
                              max_residual=max_residual, tolerance=tolerance,
                              passed=max_residual < tolerance)


def _rng(name, k):
    seed = zlib.crc32(f"{name}:{float(k)!r}".encode())
    return np.random.default_rng(seed)


def _sample_cell(ctx, rng, count, accept):
    """The first ``count`` points of the period cell that ``accept`` passes.

    Candidates are uniform over 0.95 of the cell, drawn in blocks but in
    the order of one draw per coordinate; ``accept`` maps an array of
    them to a boolean mask, in which a pole counts as a rejection. At
    most 200 * count candidates are tried.
    """
    scale = np.array([ctx.lat.K, ctx.lat.K_prime])
    kept = []
    for _ in range(100):  # blocks of 2 * count: the 200 * count budget
        # rows (re, im) viewed as complex numbers
        z = (rng.uniform(-0.95, 0.95, size=(2 * count, 2)) * scale).view(complex).ravel()
        kept.append(z[accept(z)])
        if sum(part.size for part in kept) >= count:
            return np.concatenate(kept)[:count]
    raise ConvergenceError("rejection sampling exhausted its attempt budget")


def _shifted(ctx, zs):
    # zs and its translates by the periods 2K and 2iK', end to end
    return np.concatenate([zs, zs + 2.0 * ctx.lat.K, zs + 2.0j * ctx.lat.K_prime])


def _period_gap(values):
    # the largest change under a period shift, for values at _shifted(zs)
    rows = values.reshape(3, -1)
    return np.max(np.abs(rows[1:] - rows[0]))


def _suite_pythagorean(k):
    top = u_max(k)
    us = np.linspace(-0.95, 0.95, 21) * top
    worst = max(abs(s * s + c * c - 1.0) for s, c, _ in (scd_real(k, u) for u in us))
    return len(us), worst


def _suite_cubic_relation(k):
    ctx = cached_context(k)
    zs = _sample_cell(ctx, _rng("cubic-relation", k), 40,
                      lambda z: np.abs(_d_values(ctx, z)[0]) <= 50.0)
    d, _ = _d_values(ctx, zs)
    return zs.size, float(np.max(_cubic_residual(ctx, d)))


def _suite_d_ode(k):
    ctx = cached_context(k)
    rng = _rng("d-ode", k)
    real = rng.uniform(0.15, 0.9, 10) * ctx.lat.K
    plane = rng.uniform([-0.9, -0.45], [0.9, 0.45], size=(10, 2)) * [ctx.lat.K, ctx.lat.K_prime]
    zs = np.concatenate([real.astype(complex), plane.view(complex).ravel()])
    # wp and wp' are separate theta quotients: an identity of the kernel
    residual = _d_ode_residual(ctx, *q_with_prime(ctx, zs))
    return zs.size, float(np.max(residual))


def _suite_duplication(k):
    ctx = cached_context(k)

    def values(a):
        p, dp = wp_with_prime(np.concatenate([a, 2.0 * a]), ctx.inv, ctx.lat)
        return p[:a.size], dp[:a.size], p[a.size:]

    def accept(a):
        pa, dpa, p2a = values(a)
        return (np.abs(pa) <= 20.0) & (np.abs(dpa) >= 0.1) & (np.abs(p2a) <= 100.0)

    zs = _sample_cell(ctx, _rng("duplication", k), 20, accept)
    return zs.size, float(np.max(_duplication_residual(ctx.inv, *values(zs))))


def _suite_substitution_chain(k):
    ctx = cached_context(k)
    worst = 0.0
    # real axis: u and d from the defining integral and its integrand at
    # phi, a path fully independent of wp, against wp(u) and its inverse.
    # d = 1/F is within (4/9) k^2 of 1, so 1 - d is taken as (F - 1)/F =
    # 2 sin(2a/3) tan(a/3), a = asin(k |sin phi|), not rounded off d
    for phi in (phi_of_u(k, u) for u in np.linspace(0.15, 0.9, 10) * ctx.lat.K):
        u = u_of_phi(k, phi)
        a = math.asin(k * abs(math.sin(phi)))
        one_minus_d = 2.0 * math.sin(2.0 * a / 3.0) * math.tan(a / 3.0)
        worst = max(worst, _substitution_residual(ctx, one_minus_d, q_with_prime(ctx, u)[0]),
                    abs(phi_of_u(k, u) - phi))

    # complex plane: the rational-wp continuation against wp itself. The
    # rounding of d reaches (4 k^2 / 9) / (1 - d) multiplied by
    # (9 / (4 k^2)) |Q|^2, so points need |1 - d| = (4/9) k^2 / |Q| above a
    # bound proportional to k
    def accept(z):
        d, _ = _d_values(ctx, z)
        return (np.abs(1.0 - d) > 1e-3 * k) & (np.abs(d) <= 50.0)

    zs = _sample_cell(ctx, _rng("substitution-chain", k), 10, accept)
    d, _ = _d_values(ctx, zs)
    q, _ = q_with_prime(ctx, zs)
    return 20, float(np.max(_substitution_residual(ctx, 1.0 - d, q), initial=worst))


def _suite_factorization(k):
    # snap the float modulus to the decimal rational it prints as; the
    # identity is exact for every rational k^2
    k2 = Fraction(str(k)) ** 2
    ok = factorization_check(k2)
    return 1, 0.0 if ok else 1.0


def _suite_pole(k):
    ctx = cached_context(k)
    residual = certify_pole(ctx)
    a = (2.0 / 3.0) * 1.0j * ctx.lat.K_prime
    congruence = abs(q_with_prime(ctx, 2.0 * a)[0] - q_with_prime(ctx, a)[0])
    return 2, max(residual, congruence)


def _suite_periodicity(k):
    ctx = cached_context(k)

    def away_from_d_poles(z):
        # |Q| = |wp + 1/3| >= 0.15 caps |dd/dQ| at (4/9)/0.15^2 ~ 20 for
        # every k, which keeps wp evaluation noise from leaking into d and s^2
        q, _ = q_with_prime(ctx, z)
        return np.abs(q) >= 0.15

    zs = _sample_cell(ctx, _rng("periodicity", k), 50, away_from_d_poles)
    d, _ = _d_values(ctx, _shifted(ctx, zs))
    s2 = _s2_of_d(ctx, d)
    sc, _ = _sc_values(ctx, _shifted(ctx, zs[:8]))
    gaps = [_period_gap(values) for values in (d, s2, 1.0 - s2, sc)]
    return 3 * 2 * zs.size + 2 * 8, float(np.max(gaps))


def _suite_pole_order(k):
    ctx = cached_context(k)
    z0 = (2.0 / 3.0) * 1.0j * ctx.lat.K_prime
    slope_d = pole_order_slope(lambda z: d_complex(ctx, z), z0)
    slope_s2 = pole_order_slope(lambda z: s_squared(ctx, z), z0)
    worst = max(abs(slope_d + 1.0) / _SLOPE_WINDOW_D,
                abs(slope_s2 + 3.0) / _SLOPE_WINDOW_S2)
    return 2, worst


#: suite name -> (runner, pinned default tolerance or None for the generic one)
SUITES = {
    "pythagorean": (_suite_pythagorean, 1e-13),
    "cubic-relation": (_suite_cubic_relation, None),
    "d-ode": (_suite_d_ode, 1e-7),
    "duplication": (_suite_duplication, None),
    "substitution-chain": (_suite_substitution_chain, 1e-8),
    "factorization": (_suite_factorization, 0.5),
    "pole": (_suite_pole, 1e-10),
    "periodicity": (_suite_periodicity, 1e-8),
    "pole-order": (_suite_pole_order, 1.0),
}


def available_suites():
    return sorted(SUITES)


def default_tolerance(name: str) -> float:
    """The tolerance used for ``name`` when none is given explicitly."""
    try:
        pinned = SUITES[name][1]
    except KeyError:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{', '.join(available_suites())}") from None
    if pinned is not None:
        return pinned
    return float(os.environ.get(_ENV_VAR, GENERIC_DEFAULT_TOL))


def run_suite(name: str, k: float, tol: float = None) -> VerificationReport:
    """Run one identity suite at modulus ``k`` and report the worst residual."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{', '.join(available_suites())}")
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus out of range (0, 1): k={k!r}")
    tolerance = float(tol) if tol is not None else default_tolerance(name)
    runner = SUITES[name][0]
    samples, worst = runner(k)
    return _report(name, k, samples, worst, tolerance)


def run_suites(names, ks, tol: float = None):
    """Reports for every (suite, k) pair, sorted by suite name then k."""
    reports = [run_suite(name, k, tol) for name in names for k in ks]
    reports.sort(key=lambda r: (r.identity_name, r.k))
    return reports
