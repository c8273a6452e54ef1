import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shenell import (DegenerateError, DomainError, Invariants, Lattice, PoleError,
                     ShenContext, duplication_check, exact_invariants,
                     invariants_of_modulus, lattice_of_invariants, phi_of_u,
                     q_with_prime, reduce_to_cell, scd_real, u_of_phi, wp,
                     wp_prime, wp_with_prime)
from helpers import (periods_carlson, periods_raw_quadrature, q_oracle_factory,
                     wp_oracle_factory)

K_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_invariants_at_half():
    inv = invariants_of_modulus(0.5)
    assert inv.g2 == 28.0 / 27.0
    assert inv.g3 == 148.0 / 729.0
    assert inv.delta == 48.0 / 19683.0


def test_delta_routes_agree_at_half():
    inv = invariants_of_modulus(0.5)
    # exact route: both computations coincide as rationals and round to
    # the stored field
    g2e, g3e, deltae = exact_invariants(Fraction(1, 4))
    assert g2e ** 3 - 27 * g3e ** 2 == deltae
    assert float(deltae) == inv.delta
    # naive double subtraction carries the ~1.4e3-ulp conditioning of the
    # expression; it still lands within a few e-13 here
    assert abs(inv.g2 ** 3 - 27.0 * inv.g3 ** 2 - inv.delta) < 5e-13 * inv.delta


def test_delta_identity_exact():
    # g2^3 - 27 g3^2 == (4096/19683) k^6 (1 - k^2) as rational numbers
    for k2 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 7), Fraction(99, 100)):
        g2, g3, delta = exact_invariants(k2)
        assert g2 ** 3 - 27 * g3 ** 2 == delta


def test_delta_vanishes_with_k():
    assert invariants_of_modulus(1e-6).delta < 1e-30


def test_invariants_domain_error():
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(DomainError):
            invariants_of_modulus(bad)


def test_exact_invariants_domain_error():
    for bad in (Fraction(5, 4), 0, 1, 1.0, -0.25, Fraction(-1, 4), 2):
        with pytest.raises(DomainError, match="squared modulus"):
            exact_invariants(bad)


def test_exact_invariants_match_the_rational_formulas():
    # g2, g3, delta written in Fraction arithmetic, independent of the integer
    # numerators both routes share; the float route is their correct rounding
    moduli = ([float(k) for k in np.geomspace(1e-6, 0.5, 300)]
              + [1.0 - float(q) for q in np.geomspace(1e-9, 0.5, 250)])
    for k in moduli:
        k2 = Fraction(k) ** 2
        expected = (Fraction(4, 27) * (9 - 8 * k2),
                    Fraction(8, 729) * (8 * k2 * k2 - 36 * k2 + 27),
                    Fraction(4096, 19683) * k2 ** 3 * (1 - k2))
        assert exact_invariants(k2) == expected, k
        inv = invariants_of_modulus(k)
        assert (inv.g2, inv.g3, inv.delta) == tuple(float(x) for x in expected), k
    for k2 in (Fraction(1, 3), Fraction(17, 101), Fraction(4999, 5000)):
        assert exact_invariants(k2)[2] == Fraction(4096, 19683) * k2 ** 3 * (1 - k2)


@pytest.mark.parametrize("k", K_GRID)
def test_lattice_roots(k):
    inv = invariants_of_modulus(k)
    lat = lattice_of_invariants(inv)
    assert lat.e1 > lat.e2 > lat.e3
    assert abs(lat.e1 + lat.e2 + lat.e3) < 1e-12
    for e in (lat.e1, lat.e2, lat.e3):
        assert abs(4.0 * e ** 3 - inv.g2 * e - inv.g3) < 1e-12
    assert lat.K > 0.0 and lat.K_prime > 0.0


def test_lattice_value_semantics():
    # the kernel constants are derived: not an argument, not in ==, hash or repr
    inv = invariants_of_modulus(0.5)
    lat = lattice_of_invariants(inv)
    twin = Lattice(K=lat.K, K_prime=lat.K_prime, e1=lat.e1, e2=lat.e2, e3=lat.e3)
    assert twin == lat and hash(twin) == hash(lat)
    assert repr(twin) == (f"Lattice(K={lat.K!r}, K_prime={lat.K_prime!r}, "
                          f"e1={lat.e1!r}, e2={lat.e2!r}, e3={lat.e3!r})")
    assert (wp_with_prime(ShenContext(k=0.5, inv=inv, lat=twin), 0.3 + 0.2j)
            == wp_with_prime(ShenContext(k=0.5, inv=inv, lat=lat), 0.3 + 0.2j))


def test_lattice_rejects_nonpositive_discriminant():
    with pytest.raises(DomainError):
        lattice_of_invariants(Invariants(g2=1.0, g3=1.0, delta=-26.0))


@pytest.mark.parametrize("k", K_GRID)
def test_periods_against_carlson(k):
    lat = lattice_of_invariants(invariants_of_modulus(k))
    big_k, big_kp = periods_carlson(k)
    assert lat.K == pytest.approx(big_k, abs=1e-14)
    assert lat.K_prime == pytest.approx(big_kp, abs=1e-14)


# log-spaced in k over [1e-6, 0.5] and in 1 - k over [1e-9, 0.5], where the
# root differences shrink like k^3 and sqrt(1 - k)
WHOLE_INTERVAL = st.one_of(
    st.floats(math.log(1e-6), math.log(0.5)).map(math.exp),
    st.floats(math.log(1e-9), math.log(0.5)).map(lambda x: 1.0 - math.exp(x)))


@settings(max_examples=60, deadline=None)
@given(WHOLE_INTERVAL)
def test_periods_whole_interval(k):
    lat = lattice_of_invariants(invariants_of_modulus(k))
    big_k, big_kp = periods_carlson(k)
    assert abs(lat.K - big_k) <= 1e-14 * big_k
    assert abs(lat.K_prime - big_kp) <= 1e-14 * big_kp


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), WHOLE_INTERVAL))
def test_invariants_correctly_rounded(k):
    exact = exact_invariants(Fraction(k) ** 2)
    inv = invariants_of_modulus(k)
    assert (inv.g2, inv.g3, inv.delta) == tuple(float(x) for x in exact)


@settings(max_examples=40, deadline=None)
@given(k=WHOLE_INTERVAL, u=st.floats(-1.0, 1.0), v=st.floats(-1.0, 1.0))
def test_q_against_oracle_whole_interval(k, u, v):
    # Q = wp + 1/3 is of order k^2 at the poles +-(2/3) iK' of d and in the
    # band near iK', so it is held to a bound relative to that scale
    ctx = ShenContext.from_modulus(k)
    oracle = q_oracle_factory(k)
    big_k, big_kp = ctx.lat.K, ctx.lat.K_prime
    points = [(2.0 / 3.0) * 1j * big_kp, complex(big_k), 1j * big_kp, complex(big_k, big_kp)]
    if abs(complex(u, v)) > 1e-6:
        points.append(complex(u * big_k, v * big_kp))
    for z in points:
        q, _ = q_with_prime(ctx, z)
        expected = oracle(z)
        assert abs(q - expected) <= 1e-14 * max(abs(expected), 4.0 * k * k / 9.0), (z, q, expected)


def test_periods_against_raw_quadrature():
    for k in (0.3, 0.5, 0.8):
        lat = lattice_of_invariants(invariants_of_modulus(k))
        big_k, big_kp = periods_raw_quadrature(k)
        assert lat.K == pytest.approx(big_k, abs=1e-10)
        assert lat.K_prime == pytest.approx(big_kp, abs=1e-10)


@pytest.mark.parametrize("k", K_GRID)
def test_wp_at_half_periods(k, context_for):
    ctx = context_for(k)
    lat = ctx.lat
    p_k = wp(ctx, lat.K)
    p_ikp = wp(ctx, 1j * lat.K_prime)
    assert abs(p_k - lat.e1) < 1e-10
    assert abs(p_ikp - lat.e3) < 1e-10
    # midpoint signs: wp(K) > 0 > wp(iK')
    assert p_k.real > 0.0 > p_ikp.real
    assert abs(wp_prime(ctx, lat.K)) < 1e-10
    assert abs(wp_prime(ctx, 1j * lat.K_prime)) < 1e-10


def test_laurent_leading_term(context_for):
    ctx = context_for(0.5)
    for z in (1e-3, 1e-3j, 1e-3 * (1 + 1j) / math.sqrt(2)):
        assert abs(z * z * wp(ctx, z) - 1.0) < 1e-5


@pytest.mark.parametrize("k", K_GRID)
def test_wp_against_jacobi_oracle(k, context_for):
    ctx = context_for(k)
    oracle = wp_oracle_factory(k)
    rng = np.random.default_rng(19 + int(100 * k))
    for _ in range(25):
        z = complex(rng.uniform(-ctx.lat.K, ctx.lat.K),
                    rng.uniform(-ctx.lat.K_prime, ctx.lat.K_prime))
        if abs(reduce_to_cell(ctx, z)) < 0.1:
            continue
        assert wp(ctx, z) == pytest.approx(oracle(z), abs=1e-9)


@pytest.mark.parametrize("k", K_GRID)
def test_wp_random_z_properties(k, context_for):
    # evenness, double periodicity, the differential equation and the
    # Laurent leading behavior, at 100 random points per modulus
    ctx = context_for(k)
    rng = np.random.default_rng(23 + int(100 * k))
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-0.9, 0.9) * ctx.lat.K,
                    rng.uniform(-0.9, 0.9) * ctx.lat.K_prime)
        if abs(reduce_to_cell(ctx, z)) < 0.1:
            continue
        p, dp = wp_with_prime(ctx, z)
        assert abs(wp(ctx, z + 2.0 * ctx.lat.K) - p) < 1e-10
        assert abs(wp(ctx, z + 2.0j * ctx.lat.K_prime) - p) < 1e-10
        assert abs(wp(ctx, -z) - p) < 1e-12
        rhs = 4.0 * p ** 3 - ctx.inv.g2 * p - ctx.inv.g3
        assert abs(dp * dp - rhs) <= 1e-9 * max(1.0, abs(dp * dp))
        checked += 1
    scale = 1e-3 * min(ctx.lat.K, ctx.lat.K_prime)
    for angle in (0.0, 1.1, 2.4):
        z = scale * complex(math.cos(angle), math.sin(angle))
        assert abs(z * z * wp(ctx, z) - 1.0) < 1e-5


def test_wp_real_negative_on_imaginary_segment(context_for):
    ctx = context_for(0.5)
    for t in np.linspace(0.05, 0.95, 15):
        value = wp(ctx, 1j * float(t) * ctx.lat.K_prime)
        assert abs(value.imag) < 1e-12
        assert value.real < 0.0


def _rectangle_path(lat, per_segment):
    # 0 -> K -> K + iK' -> iK' -> 0, omitting the pole-adjacent endpoints
    ts = np.linspace(0.02, 0.98, per_segment)
    points = [complex(t * lat.K, 0.0) for t in ts]
    points += [complex(lat.K, t * lat.K_prime) for t in ts]
    points += [complex((1.0 - t) * lat.K, lat.K_prime) for t in ts]
    points += [complex(0.0, (1.0 - t) * lat.K_prime) for t in ts]
    return points


def test_wp_strictly_decreasing_on_rectangle(context_for):
    ctx = context_for(0.5)
    points = _rectangle_path(ctx.lat, 13)
    values = [wp(ctx, z) for z in points]
    for v in values:
        assert abs(v.imag) < 1e-10
    reals = [v.real for v in values]
    assert all(b < a for a, b in zip(reals, reals[1:]))


def test_duplication_random_points(context_for):
    ctx = context_for(0.5)
    a = 0.3 * ctx.lat.K + 0.4j * ctx.lat.K_prime
    assert duplication_check(ctx, a) < 1e-9
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 10:
        a = complex(rng.uniform(0.1, 0.9) * ctx.lat.K,
                    rng.uniform(0.1, 0.9) * ctx.lat.K_prime)
        try:
            assert duplication_check(ctx, a) < 1e-9
        except (PoleError, DegenerateError):
            continue
        checked += 1


def test_duplication_at_two_thirds_pole_location(context_for):
    # a = (1/3)(2iK'): 2a is congruent to -a, so wp(2a) = wp(a)
    ctx = context_for(0.5)
    a = (2.0 / 3.0) * 1j * ctx.lat.K_prime
    assert duplication_check(ctx, a) < 1e-9
    assert abs(wp(ctx, 2 * a) - wp(ctx, a)) < 1e-10


def test_duplication_degenerates_at_half_period(context_for):
    ctx = context_for(0.5)
    with pytest.raises(DegenerateError):
        duplication_check(ctx, ctx.lat.K)


@pytest.mark.parametrize("k", [1e-6, 1e-4, 1e-2, 0.5, 0.99, 1.0 - 1e-6])
def test_duplication_half_period_test_is_relative_to_wp_second(k, context_for):
    # wp' is of order k^2 in the flat band near iK', so an absolute bound on
    # |wp'| took most of the cell for a half-period at small k; the bound is
    # relative to |wp''|, and the three half-periods still degenerate
    ctx = context_for(k)
    big_k, big_kp = ctx.lat.K, ctx.lat.K_prime
    rng = np.random.default_rng(29)
    a = (rng.uniform(0.05, 0.95, size=(1000, 2)) * [big_k, big_kp]).view(complex).ravel()
    assert not np.isnan(duplication_check(ctx, a)).any()
    halves = (big_k, 1j * big_kp, big_k + 1j * big_kp)
    assert np.isnan(duplication_check(ctx, np.array(halves))).all()
    for half in halves:
        with pytest.raises(DegenerateError):
            duplication_check(ctx, half)


def test_duplication_check_takes_arrays(context_for):
    # an array holds nan exactly where a number raises DegenerateError
    # (a half-period) or PoleError (a lattice point)
    for k in (0.1, 0.5, 0.9):
        ctx = context_for(k)
        big_k, big_kp = ctx.lat.K, ctx.lat.K_prime
        a = np.array([0.3 + 0.2j, 0.5 + 0.1j, 0.4 * big_k + 0.7j * big_kp, -0.8 * big_k,
                      big_k, 1j * big_kp, 0.0, 2.0 * big_k + 2.0j * big_kp])
        values = duplication_check(ctx, a)
        assert values.shape == a.shape
        for point, value in zip(a, values):
            try:
                number = duplication_check(ctx, complex(point))
            except (DegenerateError, PoleError):
                assert math.isnan(value), point
                continue
            assert value == pytest.approx(number, rel=0.5, abs=1e-13)
            assert value < 1e-9
        assert np.isnan(values[4:]).all()


def test_pole_error_at_lattice_points(context_for):
    ctx = context_for(0.5)
    for z in (0.0, 2.0 * ctx.lat.K, 2.0j * ctx.lat.K_prime,
              2.0 * ctx.lat.K + 2.0j * ctx.lat.K_prime, 1e-9):
        with pytest.raises(PoleError):
            wp(ctx, z)


def test_reduce_to_cell(context_for):
    ctx = context_for(0.5)
    lat = ctx.lat
    z = 0.3 + 0.4j
    assert reduce_to_cell(ctx, z + 2 * lat.K) == pytest.approx(z, abs=1e-15)
    assert reduce_to_cell(ctx, z + 4j * lat.K_prime) == pytest.approx(z, abs=1e-14)
    # 2^24 periods out the reduction still keeps over 26 bits of the cell
    far = z + 2 ** 24 * (2 * lat.K + 2j * lat.K_prime)
    assert reduce_to_cell(ctx, far) == pytest.approx(z, abs=2 ** -26)
    zs = reduce_to_cell(ctx, np.array([z, far]))
    assert zs[0] == reduce_to_cell(ctx, z) and zs[1] == reduce_to_cell(ctx, far)


@pytest.mark.parametrize("z", [1e16, 1e17, 1e300, -1e17, 1e17j, 0.3 - 1e300j,
                               complex(1.7e308, -1.7e308)])
def test_huge_z_is_a_domain_error(z, context_for):
    # z - 2K round(z / 2K) has no digits of the cell left here: at k = 0.5
    # it put 1e16 at 2, outside [-K, K], and took 1e17 for a lattice point
    ctx = context_for(0.5)
    for arg in (z, np.array([0.3 + 0.2j, z])):
        with pytest.raises(DomainError, match="2\\^26 periods"):
            reduce_to_cell(ctx, arg)
        with pytest.raises(DomainError):
            wp(ctx, arg)
        with pytest.raises(DomainError):
            q_with_prime(ctx, arg)


ENTRY_POINTS = {
    "wp": lambda ctx, x: wp(ctx, x),
    "wp_imag": lambda ctx, x: wp(ctx, complex(0.3, x)),
    "wp_prime": lambda ctx, x: wp_prime(ctx, x),
    "wp_with_prime": lambda ctx, x: wp_with_prime(ctx, x),
    "phi_of_u": lambda ctx, x: phi_of_u(ctx.k, x),
    "scd_real": lambda ctx, x: scd_real(ctx.k, x),
    "u_of_phi": lambda ctx, x: u_of_phi(ctx.k, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_argument_is_a_domain_error(entry, value, context_for):
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](context_for(0.5), value)
