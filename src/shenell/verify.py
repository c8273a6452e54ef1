"""Named identity suites producing tolerance-checked reports.

Each suite evaluates one family of identities at a deterministic sample
set for a given modulus and reports the worst residual against a
tolerance. Default tolerances are pinned per suite where an identity has
a natural accuracy scale (finite differences, slope fits, exact
arithmetic); the remaining suites use the generic default of 1e-9,
overridable through the SHEN_DEFAULT_TOL environment variable. An
explicit tolerance always wins.
"""

import os
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import ConvergenceError, DegenerateError, DomainError, PoleError
from .field import (c_squared, cached_context, cubic_relation_residual, d_complex,
                    d_ode_residual, pole_order_slope, s_squared, sc_product,
                    substitution_chain_check)
from .phase import phase_speed, phi_of_u, scd_real, u_max, u_of_phi
from .poles import certify_pole, factorization_check
from .weierstrass import duplication_check, wp, wp_with_prime

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
    """Rejection-sample ``count`` points of the period cell passing ``accept``."""
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ConvergenceError("rejection sampling exhausted its attempt budget")
        z = complex(rng.uniform(-0.95, 0.95) * ctx.lat.K,
                    rng.uniform(-0.95, 0.95) * ctx.lat.K_prime)
        try:
            if accept(z):
                points.append(z)
        except (PoleError, DegenerateError):
            continue
    return points


def _suite_pythagorean(k):
    top = u_max(k)
    us = np.linspace(-0.95, 0.95, 21) * top
    worst = max(abs(s * s + c * c - 1.0) for s, c, _ in (scd_real(k, u) for u in us))
    return len(us), worst


def _suite_cubic_relation(k):
    ctx = cached_context(k)
    rng = _rng("cubic-relation", k)
    zs = _sample_cell(ctx, rng, 40, lambda z: abs(d_complex(ctx, z)) <= 50.0)
    worst = max(cubic_relation_residual(ctx, z) for z in zs)
    return len(zs), worst


def _suite_d_ode(k):
    ctx = cached_context(k)
    rng = _rng("d-ode", k)
    points = [complex(u, 0.0) for u in rng.uniform(0.15, 0.9, 10) * ctx.lat.K]
    points += [complex(rng.uniform(-0.9, 0.9) * ctx.lat.K,
                       rng.uniform(-0.45, 0.45) * ctx.lat.K_prime)
               for _ in range(10)]
    worst = max(d_ode_residual(ctx, z, h=1e-5) for z in points)
    return len(points), worst


def _suite_duplication(k):
    ctx = cached_context(k)
    rng = _rng("duplication", k)

    def accept(a):
        pa, dpa = wp_with_prime(a, ctx.inv, ctx.lat)
        if abs(pa) > 20.0 or abs(dpa) < 0.1:
            return False
        return abs(wp(2.0 * a, ctx.inv, ctx.lat)) <= 100.0

    zs = _sample_cell(ctx, rng, 20, accept)
    worst = max(duplication_check(a, ctx.inv, ctx.lat) for a in zs)
    return len(zs), worst


def _suite_substitution_chain(k):
    ctx = cached_context(k)
    rng = _rng("substitution-chain", k)
    worst = 0.0
    # real axis: u and d from the defining integral and its integrand at
    # phi, a path fully independent of wp, against wp(u) and its inverse
    for phi in (phi_of_u(k, u) for u in np.linspace(0.15, 0.9, 10) * ctx.lat.K):
        u = u_of_phi(k, phi)
        d = 1.0 / phase_speed(k, phi)
        p = (4.0 / 9.0) * k * k / (1.0 - d) - 1.0 / 3.0
        worst = max(worst, abs(p - wp(u, ctx.inv, ctx.lat)),
                    abs(phi_of_u(k, u) - phi))
    # complex plane: the rational-wp continuation against wp itself
    zs = _sample_cell(ctx, rng, 10,
                      lambda z: 1e-6 < abs(1.0 - d_complex(ctx, z))
                      and abs(d_complex(ctx, z)) <= 50.0)
    for z in zs:
        worst = max(worst, substitution_chain_check(ctx, z))
    return 20, worst


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
    congruence = abs(wp(2.0 * a, ctx.inv, ctx.lat) - wp(a, ctx.inv, ctx.lat))
    return 2, max(residual, congruence)


def _suite_periodicity(k):
    ctx = cached_context(k)
    rng = _rng("periodicity", k)
    shifts = (2.0 * ctx.lat.K, 2.0j * ctx.lat.K_prime)
    functions = (d_complex, s_squared, c_squared)

    def away_from_d_poles(z):
        # |wp + 1/3| >= 0.15 caps |dd/dwp| at (4/9)/0.15^2 ~ 20 for every
        # k, which keeps wp evaluation noise from leaking into d and s^2
        return abs(wp(z, ctx.inv, ctx.lat) + 1.0 / 3.0) >= 0.15

    zs = _sample_cell(ctx, rng, 50, away_from_d_poles)
    worst = 0.0
    count = 0
    for z in zs:
        for fn in functions:
            base = fn(ctx, z)
            for shift in shifts:
                worst = max(worst, abs(fn(ctx, z + shift) - base))
                count += 1
    # sc is a central difference, which divides congruence noise by the
    # step; a wider step is appropriate here since the FD truncation
    # error is identical at congruent points and cancels exactly
    for z in zs[:8]:
        base = sc_product(ctx, z, h=1e-4)
        for shift in shifts:
            worst = max(worst, abs(sc_product(ctx, z + shift, h=1e-4) - base))
            count += 1
    return count, worst


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
