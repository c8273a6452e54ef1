"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np

from shenell import (ShenContext, certify_pole, cubic_discriminant, d_complex,
                     d_ode_residual, duplication_check, exact_invariants,
                     f_series, factorization_check, invariants_of_modulus,
                     phase_speed, phi_of_u, pole_order_slope, s_squared,
                     sc_product, scd_real, u_max, u_of_phi, wp)
from shenell.cli import (reports_from_json, reports_to_json, rows_to_csv,
                         sample_grid_rows_from_csv)

_CONTEXTS = {}


def ctx_for(k):
    if k not in _CONTEXTS:
        _CONTEXTS[k] = ShenContext.from_modulus(k)
    return _CONTEXTS[k]


def check(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_hypergeometric_identity():
    # near the interval ends F ~ (1 - sin^2 z)^{-1/2} makes the identity's
    # conditioning exceed double precision (a correctly rounded double
    # sin^2 z alone costs ~4e-12 there), so the check runs at extended
    # precision, which f_series preserves
    ld = np.longdouble
    zs = np.linspace(ld(-math.pi) / 2 + ld(0.01), ld(math.pi) / 2 - ld(0.01),
                     200, dtype=ld)
    worst = max(abs(float(f_series(np.sin(z) ** 2)
                          - np.cos(z / 3.0) / np.cos(z))) for z in zs)
    check(1, "hypergeometric identity", worst < 1e-12, f"max residual {worst:.3e}")


def test_criterion_02_invariant_formulas():
    inv = invariants_of_modulus(0.5)
    fields_ok = (inv.g2 == 28.0 / 27.0 and inv.g3 == 148.0 / 729.0
                 and inv.delta == 48.0 / 19683.0)
    # the two delta computations (discriminant formula and g2^3 - 27 g3^2)
    # run in exact rational arithmetic, where their agreement is exact;
    # evaluating g2^3 - 27 g3^2 on rounded double fields is conditioned
    # at ~3 g2^3 / delta ~ 1.4e3 ulps and cannot certify 1e-13 by itself
    g2e, g3e, delta_formula = exact_invariants(Fraction(1, 4))
    delta_from_g = g2e ** 3 - 27 * g3e ** 2
    rel = abs(delta_from_g - delta_formula) / delta_formula
    routes_ok = (rel < Fraction(1, 10 ** 13)
                 and delta_formula == Fraction(48, 19683)
                 and float(delta_from_g) == inv.delta)
    check(2, "invariant formulas at k=1/2", fields_ok and routes_ok,
          f"delta route agreement {float(rel):.3e}")


def test_criterion_03_d_wp_two_path():
    worst = 0.0
    for k in (0.1, 0.3, 0.5, 0.7, 0.9):
        ctx = ctx_for(k)
        top = u_max(k)
        us = np.concatenate([np.linspace(0.08, 0.92, 10),
                             -np.linspace(0.08, 0.92, 10)]) * top
        for phi in (phi_of_u(k, float(u)) for u in us):
            # forward from phi along the phase map, independent of wp
            u = u_of_phi(k, phi)
            d = 1.0 / phase_speed(k, phi)
            p = (4.0 / 9.0) * k * k / (1.0 - d) - 1.0 / 3.0
            worst = max(worst, abs(p - wp(ctx, u)),
                        abs(phi_of_u(k, u) - phi))
    check(3, "d-to-wp two-path agreement", worst < 1e-8,
          f"max |p - wp|, |phi(u(phi)) - phi| {worst:.3e}")


def test_criterion_04_pole_location():
    worst = max(certify_pole(ctx_for(round(0.1 * i, 1))) for i in range(1, 10))
    check(4, "pole location certification", worst < 1e-10,
          f"max |wp((2/3)iK') + 1/3| {worst:.3e}")


def test_criterion_05_exact_factorization():
    rng = np.random.default_rng(20260810)
    checked = 0
    ok = True
    while checked < 20:
        q = int(rng.integers(2, 1001))
        p = int(rng.integers(1, q))
        k2 = Fraction(p, q)
        if not 0 < k2 < 1:
            continue
        ok = ok and factorization_check(k2)
        checked += 1
    check(5, "exact factorization (20 rationals)", ok)


def test_criterion_06_cubic_discriminant():
    worst = 0.0
    ok = True
    for i in range(1, 10):
        formula, coeff = cubic_discriminant(round(0.1 * i, 1))
        worst = max(worst, abs(formula - coeff) / abs(formula))
        ok = ok and formula < 0.0
    pair = cubic_discriminant(0.5)
    ok = ok and pair.formula == -16.0 / 3.0
    check(6, "cubic discriminant", ok and worst < 1e-12,
          f"worst relative gap {worst:.3e}")


def test_criterion_07_d_ode_residual():
    pairs = []
    for k in (0.2, 0.4, 0.6, 0.8):
        ctx = ctx_for(k)
        big_k, big_kp = ctx.lat.K, ctx.lat.K_prime
        pairs += [(k, z) for z in (
            complex(0.35 * big_k), complex(0.8 * big_k),
            complex(0.3 * big_k, 0.25 * big_kp),
            complex(-0.5 * big_k, 0.4 * big_kp),
            complex(0.15 * big_k, -0.35 * big_kp))]
    assert len(pairs) == 20
    worst = max(d_ode_residual(ctx_for(k), z) for k, z in pairs)
    check(7, "d ODE residual", worst < 1e-7, f"max residual {worst:.3e}")


def test_criterion_08_pole_orders():
    ctx = ctx_for(0.5)
    z0 = (2.0 / 3.0) * 1j * ctx.lat.K_prime
    slope_d = pole_order_slope(lambda z: d_complex(ctx, z), z0)
    slope_s2 = pole_order_slope(lambda z: s_squared(ctx, z), z0)
    check(8, "pole orders (simple vs triple)",
          abs(slope_d + 1.0) < 0.05 and abs(slope_s2 + 3.0) < 0.1,
          f"slope(d) {slope_d:.4f}, slope(s^2) {slope_s2:.4f}")


def test_criterion_09_sc_identity():
    worst = 0.0
    for k in (0.3, 0.6):
        ctx = ctx_for(k)
        us = np.concatenate([np.linspace(0.08, 0.92, 10),
                             -np.linspace(0.08, 0.92, 10)]) * u_max(k)
        for u in us:
            s, c, _ = scd_real(k, float(u))
            worst = max(worst, abs(sc_product(ctx, complex(u)) - s * c))
    check(9, "s*c identity on the real axis", worst < 1e-7,
          f"max residual {worst:.3e}")


def test_criterion_10_weierstrass_self_consistency():
    ctx = ctx_for(0.5)
    lat = ctx.lat
    ok = True
    details = []

    ok &= abs(wp(ctx, lat.K) - lat.e1) < 1e-10
    ok &= abs(wp(ctx, 1j * lat.K_prime) - lat.e3) < 1e-10

    rng = np.random.default_rng(41)
    worst_period, worst_even = 0.0, 0.0
    for _ in range(20):
        z = complex(rng.uniform(0.1, 0.9) * lat.K, rng.uniform(0.1, 0.9) * lat.K_prime)
        base = wp(ctx, z)
        worst_period = max(worst_period,
                           abs(wp(ctx, z + 2 * lat.K) - base),
                           abs(wp(ctx, z + 2j * lat.K_prime) - base))
        worst_even = max(worst_even, abs(wp(ctx, -z) - base))
    ok &= worst_period < 1e-10 and worst_even < 1e-12
    details.append(f"periodicity {worst_period:.2e}, evenness {worst_even:.2e}")

    dup = duplication_check(ctx, 0.3 * lat.K + 0.4j * lat.K_prime)
    ok &= dup < 1e-9
    details.append(f"duplication {dup:.2e}")

    ts = np.linspace(0.02, 0.98, 13)
    path = [complex(t * lat.K, 0.0) for t in ts]
    path += [complex(lat.K, t * lat.K_prime) for t in ts]
    path += [complex((1 - t) * lat.K, lat.K_prime) for t in ts]
    path += [complex(0.0, (1 - t) * lat.K_prime) for t in ts]
    reals = [wp(ctx, z).real for z in path]
    ok &= all(b < a for a, b in zip(reals, reals[1:]))
    details.append(f"monotone over {len(path)} boundary points")

    check(10, "Weierstrass engine self-consistency", bool(ok), "; ".join(details))


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "shenell", *args],
                          capture_output=True, text=True)


def test_criterion_11_cli_contract(tmp_path):
    ok = _run_cli("invariants", "--k", "0.5").returncode == 0
    ok &= _run_cli("invariants", "--k", "1.5").returncode == 2
    ok &= _run_cli("verify", "--k", "0.5", "--suite", "no-such").returncode == 2
    ok &= _run_cli("verify", "--k", "0.5", "--suite", "pole",
                   "--tol", "1e-30").returncode == 1
    ok &= _run_cli("verify", "--k", "0.5", "--suite", "pole",
                   "--tol", "1e-10").returncode == 0
    ok &= _run_cli("sample", "--k", "0.5", "--fn", "d", "--real", "").returncode == 2

    csv_path = tmp_path / "grid.csv"
    result = _run_cli("sample", "--k", "0.5", "--fn", "d",
                      "--real=-0.5:0.25:0.5", "--imag", "0:0.4:0.8",
                      "--out", str(csv_path))
    ok &= result.returncode == 0
    csv_text = csv_path.read_text()
    ok &= rows_to_csv(sample_grid_rows_from_csv(csv_text)) == csv_text

    json_path = tmp_path / "reports.json"
    result = _run_cli("verify", "--k", "0.3,0.5", "--suite", "factorization",
                      "--json", "--out", str(json_path))
    ok &= result.returncode == 0
    json_text = json_path.read_text()
    ok &= reports_to_json(reports_from_json(json_text)) == json_text

    check(11, "CLI contract (exit codes, round-trips)", bool(ok))
