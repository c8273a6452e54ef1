import math

import numpy as np
import pytest

from shenell import (DegenerateError, DomainError, PoleError, ShenContext, c_squared,
                     cubic_relation_residual, d_complex, d_ode_residual, default_tolerance,
                     pole_order_slope, run_suite, s_squared, sc_product, scd_real,
                     substitution_chain_check, u_max, wp)
from helpers import s2_c2_oracle_factory, sc_oracle_factory


def test_context_is_cached_and_a_bad_modulus_is_not():
    assert ShenContext.from_modulus(0.3) is ShenContext.from_modulus(0.3)
    # the cache keys on the type too, so a numpy scalar never leaks into a float's context
    assert type(ShenContext.from_modulus(np.float64(0.3)).k) is np.float64
    assert type(ShenContext.from_modulus(0.3).k) is float
    for bad in (0.0, 1.0, math.nan):
        for _ in range(2):
            with pytest.raises(DomainError, match="modulus out of range"):
                ShenContext.from_modulus(bad)


def _d_pole(ctx):
    return (2.0 / 3.0) * 1j * ctx.lat.K_prime


def test_d_is_one_at_lattice_points(context_for):
    ctx = context_for(0.5)
    assert d_complex(ctx, 0.0) == 1.0
    assert d_complex(ctx, 2.0 * ctx.lat.K) == 1.0
    # just off the lattice point d stays near its regular value 1
    assert abs(d_complex(ctx, 1e-3) - 1.0) < 1e-5


def test_d_matches_real_phase_map(context_for):
    for k in (0.3, 0.5, 0.8):
        ctx = context_for(k)
        for u in np.linspace(-0.9, 0.9, 9) * u_max(k):
            if abs(u) < 1e-3:
                continue
            assert abs(d_complex(ctx, complex(u)) - scd_real(k, float(u)).d) < 1e-9


def test_d_pole_error_at_two_thirds_ikp(context_for):
    ctx = context_for(0.5)
    with pytest.raises(PoleError):
        d_complex(ctx, _d_pole(ctx))
    with pytest.raises(PoleError):
        d_complex(ctx, -_d_pole(ctx))


def test_d_even_and_periodic(context_for):
    ctx = context_for(0.4)
    rng = np.random.default_rng(11)
    done = 0
    while done < 15:
        z = complex(rng.uniform(-0.9, 0.9) * ctx.lat.K,
                    rng.uniform(-0.9, 0.9) * ctx.lat.K_prime)
        try:
            base = d_complex(ctx, z)
        except PoleError:
            continue
        if abs(base) > 50.0:
            continue
        assert abs(d_complex(ctx, -z) - base) < 1e-10
        assert abs(d_complex(ctx, z + 2.0 * ctx.lat.K) - base) < 1e-8
        assert abs(d_complex(ctx, z + 2.0j * ctx.lat.K_prime) - base) < 1e-8
        done += 1


def test_s_squared_basics(context_for):
    ctx = context_for(0.5)
    assert s_squared(ctx, 0.0) == 0.0
    for k in (0.3, 0.7):
        ctx = context_for(k)
        for u in np.linspace(0.1, 0.9, 7) * u_max(k):
            s = scd_real(k, float(u)).s
            assert abs(s_squared(ctx, complex(u)) - s * s) < 1e-9


def test_c_squared_basics(context_for):
    ctx = context_for(0.5)
    assert c_squared(ctx, 0.0) == 1.0
    for u in np.linspace(0.1, 0.9, 7) * u_max(0.5):
        c = scd_real(0.5, float(u)).c
        assert abs(c_squared(ctx, complex(u)) - c * c) < 1e-9
    # complement by construction
    z = 0.3 + 0.5j
    assert s_squared(ctx, z) + c_squared(ctx, z) == 1.0


def test_sc_product_basics(context_for):
    ctx = context_for(0.5)
    assert abs(sc_product(ctx, 0.0)) < 1e-8
    for k in (0.3, 0.6):
        ctx = context_for(k)
        for u in np.linspace(0.1, 0.9, 7) * u_max(k):
            s, c, _ = scd_real(k, float(u))
            assert abs(sc_product(ctx, complex(u)) - s * c) < 1e-7


def test_sc_product_periodicity(context_for):
    ctx = context_for(0.5)
    for z in (0.4 + 0.3j, 1.1 + 1.0j):
        base = sc_product(ctx, z)
        assert abs(sc_product(ctx, z + 2.0 * ctx.lat.K) - base) < 1e-7
        assert abs(sc_product(ctx, z + 2.0j * ctx.lat.K_prime) - base) < 1e-7


@pytest.mark.parametrize("k", (1e-3, 0.05, 0.5, 0.95))
def test_sc_product_matches_oracle(context_for, k):
    ctx = context_for(k)
    oracle = sc_oracle_factory(k)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(rng.uniform(-1.0, 1.0) * ctx.lat.K,
                    rng.uniform(-1.0, 1.0) * ctx.lat.K_prime)
        want = oracle(z)
        assert abs(sc_product(ctx, z) - want) <= 1e-11 * abs(want), (k, z)


def test_sc_product_near_pole_switches_direction(context_for):
    # 1e-6 above the d pole, outside its ~1e-10 disc
    ctx = context_for(0.5)
    z = _d_pole(ctx) + 1e-6j
    value = sc_product(ctx, z)
    assert math.isfinite(value.real) and math.isfinite(value.imag)


def test_cubic_relation_residual(context_for):
    ctx = context_for(0.3)
    assert cubic_relation_residual(ctx, 0.0) == 0.0
    rng = np.random.default_rng(3)
    done = 0
    while done < 100:
        z = complex(rng.uniform(-0.95, 0.95) * ctx.lat.K,
                    rng.uniform(-0.95, 0.95) * ctx.lat.K_prime)
        try:
            if abs(d_complex(ctx, z)) > 50.0:
                continue
            assert cubic_relation_residual(ctx, z) < 1e-9
        except PoleError:
            continue
        done += 1


def test_cubic_relation_real_on_imaginary_axis(context_for):
    # on (0, iK') away from the pole everything in the relation is real
    ctx = context_for(0.3)
    for t in (0.15, 0.35, 0.5, 0.85, 0.95):
        z = 1j * t * ctx.lat.K_prime
        d = d_complex(ctx, z)
        s2 = s_squared(ctx, z)
        assert abs(d.imag) < 1e-9
        assert abs(s2.imag) < 1e-9
        assert cubic_relation_residual(ctx, z) < 1e-9


def test_d_ode_residual(context_for):
    ctx = context_for(0.5)
    assert d_ode_residual(ctx, 0.0) < 1e-10
    assert d_ode_residual(ctx, 0.4 + 0.2j) < 1e-7
    ctx9 = context_for(0.9)
    assert d_ode_residual(ctx9, 0.3) < 1e-7


def test_substitution_chain(context_for):
    ctx = context_for(0.5)
    rng = np.random.default_rng(17)
    done = 0
    while done < 20:
        z = complex(rng.uniform(-0.9, 0.9) * ctx.lat.K,
                    rng.uniform(-0.9, 0.9) * ctx.lat.K_prime)
        try:
            d = d_complex(ctx, z)
            if abs(d) > 50.0 or abs(1.0 - d) < 1e-6:
                continue
            assert substitution_chain_check(ctx, z) < 1e-9
        except PoleError:
            continue
        done += 1


def test_substitution_chain_k_grid(context_for):
    worst = 0.0
    for k in (0.1, 0.5, 0.9):
        ctx = context_for(k)
        rng = np.random.default_rng(int(1000 * k))
        done = 0
        while done < 20:
            z = complex(rng.uniform(-0.9, 0.9) * ctx.lat.K,
                        rng.uniform(-0.9, 0.9) * ctx.lat.K_prime)
            try:
                d = d_complex(ctx, z)
                if abs(d) > 50.0 or abs(1.0 - d) < 1e-6:
                    continue
                worst = max(worst, substitution_chain_check(ctx, z))
            except PoleError:
                continue
            done += 1
    assert worst < 1e-8


def test_substitution_chain_degenerate_at_lattice(context_for):
    with pytest.raises(DegenerateError):
        substitution_chain_check(context_for(0.5), 0.0)


def test_substitution_chain_pole_error_at_pole_of_d(context_for):
    ctx = context_for(0.5)
    for z in (_d_pole(ctx), -_d_pole(ctx), _d_pole(ctx) + 2.0 * ctx.lat.K):
        with pytest.raises(PoleError):
            substitution_chain_check(ctx, z)


def test_substitution_leading_behavior(context_for):
    # p(u) has the same 1/u^2 leading behavior as wp at the origin
    ctx = context_for(0.5)
    u = 1e-2
    d = d_complex(ctx, complex(u))
    p = (4.0 / 9.0) * ctx.k ** 2 / (1.0 - d) - 1.0 / 3.0
    assert (u * u * p).real == pytest.approx(1.0, abs=1e-3)
    assert abs(p - wp(ctx, u)) < 1e-8


def test_pole_orders(context_for):
    ctx = context_for(0.5)
    z0 = _d_pole(ctx)
    slope_d = pole_order_slope(lambda z: d_complex(ctx, z), z0)
    slope_s2 = pole_order_slope(lambda z: s_squared(ctx, z), z0)
    assert abs(slope_d + 1.0) < 0.05
    assert abs(slope_s2 + 3.0) < 0.1
    # the mirror pole is simple too
    slope_mirror = pole_order_slope(lambda z: d_complex(ctx, z), -z0)
    assert abs(slope_mirror + 1.0) < 0.05


@pytest.mark.parametrize("k", [float(k) for k in np.geomspace(1e-6, 0.5, 8)])
def test_s_squared_and_c_squared_against_oracle(k):
    # s^2 from (3 Q - (4/9) k^2)^2 / (9 Q^3) keeps the relative accuracy of
    # Q; through 1 - d, with d ~ 1 - (4/9) k^2 / Q rounded first, it lost
    # ~eps / k^2: 7e-4 relative at k = 1e-6. The plane points stay below
    # |Im z| = 0.6 K': towards +-iK' at small k, Q closes in on (4/27) k^2,
    # where 2 + d = 0, and s^2 is ill-conditioned in Q (ROADMAP.md, item 2)
    ctx = ShenContext.from_modulus(k)
    oracle = s2_c2_oracle_factory(k)
    real = [t * ctx.lat.K for t in (0.1, 0.4, 0.7, 0.999)]
    plane = [complex(x * ctx.lat.K, y * ctx.lat.K_prime)
             for x, y in ((0.3, 0.2), (-0.7, 0.45), (0.5, -0.6), (0.95, 0.3), (0.1, -0.4))]
    for z in real + plane:
        want_s2, want_c2 = oracle(z)
        for got, want in ((s_squared(ctx, complex(z)), want_s2),
                          (c_squared(ctx, complex(z)), want_c2)):
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (z, got, want)
        values = s_squared(ctx, np.array([complex(z)])), c_squared(ctx, np.array([complex(z)]))
        for got, want in zip(values, (want_s2, want_c2)):
            assert abs(got[0] - want) <= 1e-13 * max(1.0, abs(want)), (z, got, want)


def test_substitution_chain_takes_arrays(context_for):
    # an array holds nan exactly where a number raises DegenerateError
    # (lattice points, and |1 - d| < 1e-12 next to them) or PoleError
    for k in (0.1, 0.5):
        ctx = context_for(k)
        pole = _d_pole(ctx)
        zs = np.array([0.5, 0.3j, 0.0, 2e-8, 1e-7, pole, -pole + 2.0 * ctx.lat.K,
                       0.4 + 0.2j, 2.0 * ctx.lat.K, 1.1 - 0.7j])
        values = substitution_chain_check(ctx, zs)
        assert values.shape == zs.shape
        for z, value in zip(zs, values):
            try:
                number = substitution_chain_check(ctx, complex(z))
            except (DegenerateError, PoleError):
                assert math.isnan(value), z
                continue
            assert value == pytest.approx(number, rel=0.5, abs=1e-13)
            assert value < 1e-9


# the 22 moduli of the benchmark's certify workload, and the whole-interval
# scan of tests/test_verify.py
_SLOPE_MODULI = [float(k) for k in np.concatenate(
    [np.linspace(0.06, 0.85, 16), 1.0 - np.geomspace(0.12, 0.01, 6),
     np.geomspace(1e-6, 0.1, 16), 1.0 - np.geomspace(1e-9, 1e-2, 8)])]


def test_pole_order_slope_is_the_least_squares_fit():
    radii = 1e-2 * 0.5 ** np.arange(11)
    for k in _SLOPE_MODULI:
        ctx = ShenContext.from_modulus(k)
        z0 = _d_pole(ctx)
        for f in (lambda z: d_complex(ctx, z), lambda z: s_squared(ctx, z)):
            fitted = np.polyfit(np.log(radii), [math.log(abs(f(z0 + r))) for r in radii], 1)[0]
            assert abs(pole_order_slope(f, z0) - fitted) <= 1e-12, k


def test_pole_order_suite_is_the_public_slope_fit():
    # the suite fits one array pass over the radius sweep; pole_order_slope
    # fits number calls, whose sin and cos round apart from numpy's
    tolerance = default_tolerance("pole-order")
    for k in _SLOPE_MODULI:
        ctx = ShenContext.from_modulus(k)
        z0 = _d_pole(ctx)
        slope_d = pole_order_slope(lambda z: d_complex(ctx, z), z0)
        slope_s2 = pole_order_slope(lambda z: s_squared(ctx, z), z0)
        # the suite's windows: 0.05 around -1 for d, 0.1 around -3 for s^2
        expected = max(abs(slope_d + 1.0) / 0.05, abs(slope_s2 + 3.0) / 0.1)
        report = run_suite("pole-order", k)
        assert abs(report.max_residual - expected) <= 1e-9, k
        assert report.passed == (expected < tolerance), k
