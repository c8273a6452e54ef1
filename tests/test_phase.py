import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shenell import (POLE_EXCLUSION, ConvergenceError, DomainError, RangeError,
                     derivative_residuals, f_series, phase_speed, phi_of_u, scd_real, u_max,
                     u_of_phi)
from helpers import phi_oracle, u_oracle, u_oracle_t_form

# frozen from two independent scipy quadratures of the defining integral
# (theta form and original t form agree to 1e-15)
U_HALF_PI6 = 0.5287789943860387

# frozen from scipy quadrature + Brent inversion at k = 1/2, u = 0.4
SCD_HALF_04 = (0.38730253506904117, 0.9219526811768022, 0.9831440894598401)


PHASE_PHIS = (0.0, 0.3, 1.0, 1.5, 1.57, math.pi / 2.0 - 1e-5, math.pi / 2.0)


@pytest.mark.parametrize("one_minus_k", [0.5, 1e-2, 1e-4, 1e-6, 1e-9])
def test_phase_speed_against_mpmath(one_minus_k):
    # F grows like (1 - k |sin phi|)^(-1/2), so any rounding in 1 - y is
    # magnified by 1 / (1 - y) near phi = pi/2 as k -> 1
    k = 1.0 - one_minus_k
    for phi in PHASE_PHIS:
        with mp.workdps(40):
            exact = mp.hyp2f1(mp.mpf(1) / 3, mp.mpf(2) / 3, mp.mpf(1) / 2,
                              (mp.mpf(k) * mp.sin(mp.mpf(phi))) ** 2)
            assert abs(phase_speed(k, phi) / exact - 1) <= 2e-15, phi


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99])
def test_phase_speed_matches_series(k):
    # the series itself drifts from mpmath by up to 4e-14 as x -> 0.98,
    # over its ~1700 terms there
    for phi in np.linspace(0.0, math.pi / 2.0, 33):
        x = (k * math.sin(phi)) ** 2
        if x <= 0.98:
            rel = 1e-14 if x <= 0.9 else 1e-13
            assert phase_speed(k, phi) == pytest.approx(f_series(x), rel=rel, abs=0)


@pytest.mark.parametrize("k", [1.0, 0.0, -0.5, 1.5])
def test_phase_speed_refuses_a_modulus_outside_the_interval(k):
    with pytest.raises(DomainError, match="modulus"):
        phase_speed(k, 0.3)
    with pytest.raises(DomainError, match="modulus"):
        phase_speed(k, np.array([0.0, 0.3]))


def test_phase_speed_even_and_pi_periodic():
    for k in (0.3, 0.999):
        assert phase_speed(k, 0.0) == 1.0
        for phi in (0.2, 1.1, 1.5, math.pi / 2.0):
            value = phase_speed(k, phi)
            assert phase_speed(k, -phi) == value
            assert phase_speed(k, phi + math.pi) == pytest.approx(value, rel=1e-13)
            assert phase_speed(k, phi - 3.0 * math.pi) == pytest.approx(value, rel=1e-13)


def test_u_vanishes_at_origin():
    for k in (0.2, 0.5, 0.8):
        assert u_of_phi(k, 0.0) == 0.0


def test_u_linear_for_tiny_phi():
    for k in (0.2, 0.9):
        assert abs(u_of_phi(k, 1e-8) - 1e-8) < 1e-15


def test_u_frozen_oracle_value():
    assert u_of_phi(0.5, math.pi / 6.0) == pytest.approx(U_HALF_PI6, abs=1e-13)


def test_u_against_runtime_oracles():
    for k, phi in ((0.2, 0.7), (0.5, math.pi / 6.0), (0.8, 1.3)):
        value = u_of_phi(k, phi)
        assert value == pytest.approx(u_oracle(k, phi), abs=1e-12)
        assert value == pytest.approx(u_oracle_t_form(k, phi), abs=1e-10)


def test_u_odd_bitwise():
    for k in (0.3, 0.6):
        for phi in (0.1, 0.9, 1.5):
            assert u_of_phi(k, -phi) == -u_of_phi(k, phi)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=-math.pi / 2, max_value=math.pi / 2))
def test_u_odd_property(k, phi):
    assert u_of_phi(k, -phi) == -u_of_phi(k, phi)


def test_u_strictly_increasing():
    phis = np.linspace(0.0, math.pi / 2.0, 40)
    for k in (0.1, 0.5, 0.9):
        values = [u_of_phi(k, float(p)) for p in phis]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_u_domain_errors():
    with pytest.raises(DomainError):
        u_of_phi(0.5, 2.0)
    with pytest.raises(DomainError):
        u_of_phi(1.5, 0.3)


def test_inversion_fixes_zero():
    assert phi_of_u(0.5, 0.0) == 0.0


@pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("phi", [0.1, 0.5, 1.0])
def test_round_trip(k, phi):
    assert phi_of_u(k, u_of_phi(k, phi)) == pytest.approx(phi, abs=1e-11)


def test_inversion_is_identity_below_pole_exclusion():
    # phi(u) = u - (4/27) k^2 u^3 + ..., and the cubic term is below an ulp
    for k in (0.3, 0.99):
        assert phi_of_u(k, 1e-12) == 1e-12
        assert phi_of_u(k, -1e-12) == -1e-12


def test_inverse_derivative_at_origin():
    # dphi/du(0) = 1 since F(...; 0) = 1
    h = 1e-6
    for k in (0.3, 0.7):
        assert phi_of_u(k, h) / h == pytest.approx(1.0, abs=1e-10)


def test_inversion_odd_and_monotone():
    k = 0.6
    us = np.linspace(-0.9, 0.9, 11) * u_max(k)
    phis = [phi_of_u(k, float(u)) for u in us]
    assert all(b > a for a, b in zip(phis, phis[1:]))
    assert phi_of_u(k, -0.37) == -phi_of_u(k, 0.37)


def test_range_error_beyond_u_max():
    k = 0.4
    with pytest.raises(RangeError):
        phi_of_u(k, u_max(k) + 1e-6)
    # the endpoint itself is fine and maps to pi/2
    assert phi_of_u(k, u_max(k)) == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_scd_at_origin():
    assert scd_real(0.5, 0.0) == (0.0, 1.0, 1.0)


def test_scd_frozen_triple():
    s, c, d = scd_real(0.5, 0.4)
    assert s == pytest.approx(SCD_HALF_04[0], abs=1e-11)
    assert c == pytest.approx(SCD_HALF_04[1], abs=1e-11)
    assert d == pytest.approx(SCD_HALF_04[2], abs=1e-11)


@pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
def test_scd_relations(k):
    for u in np.linspace(-0.9, 0.9, 9) * u_max(k):
        s, c, d = scd_real(k, float(u))
        assert abs(s * s + c * c - 1.0) < 1e-13
        assert 0.0 < d <= 1.0
        # the (s, d) cubic relation
        assert abs(d ** 3 + 3.0 * d ** 2 - 4.0 * (1.0 - k * k * s * s)) < 1e-11


def test_derivative_residuals_at_origin():
    # below the square of the fixed step h = 1e-5
    rs, rc, rd = derivative_residuals(0.5, 0.0)
    assert rs < 1e-10
    assert rd < 1e-10


def test_derivative_residuals_generic_point():
    rs, rc, rd = derivative_residuals(0.7, 0.3)
    assert max(rs, rc, rd) < 1e-8


def test_real_ode_residual():
    # (d')^2 = (4/9)(1 - d)(d^3 + 3 d^2 + 4 k^2 - 4) with FD d'
    h = 1e-5
    pairs = [(k, u) for k in (0.2, 0.4, 0.6, 0.8) for u in (-0.8, -0.3, 0.15, 0.5, 0.9)]
    assert len(pairs) == 20
    for k, u in pairs:
        dp, dm = scd_real(k, u + h).d, scd_real(k, u - h).d
        d = scd_real(k, u).d
        lhs = ((dp - dm) / (2.0 * h)) ** 2
        rhs = (4.0 / 9.0) * (1.0 - d) * (d ** 3 + 3.0 * d ** 2 + 4.0 * k * k - 4.0)
        assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("one_minus_k", [1e-6, 1.4e-5, 2e-4, 3e-3])
def test_scd_near_k_one_against_mpmath(one_minus_k):
    # near k = 1 the phase speed peaks sharply at phi = pi/2 and e1, e2
    # nearly collide
    k = 1.0 - one_minus_k
    for u in np.array([-0.98, 0.5, 0.9]) * u_max(k):
        u = float(u)
        s, c, d = scd_real(k, u)
        phi = phi_oracle(k, u)
        z = mp.asin(k * mp.sin(phi))
        tol = 1e-13 * max(1.0, abs(u))
        assert abs(s - mp.sin(phi)) <= tol
        assert abs(c - mp.cos(phi)) <= tol
        assert abs(d - mp.cos(z) / mp.cos(z / 3)) <= tol


# The 22 moduli of the benchmark's certify workload.
CERTIFY_MODULI = tuple(float(k) for k in np.concatenate(
    [np.linspace(0.06, 0.85, 16), 1.0 - np.geomspace(0.12, 0.01, 6)]))


def _ulps(values, reference, scale=None):
    # |values - reference| in units in the last place of ``scale`` (default: the reference)
    scale = np.abs(reference if scale is None else scale)
    return np.abs(values - reference) / np.spacing(np.maximum(scale, np.finfo(float).tiny))


@pytest.mark.parametrize("k", CERTIFY_MODULI)
def test_arrays_match_numbers_within_4_ulp(k):
    top = u_max(k)
    phis = np.concatenate([[0.0, -0.0, 1e-12, math.pi / 2.0, -math.pi / 2.0, 1.57],
                           np.linspace(-1.5, 1.5, 13)])
    us = np.concatenate([[0.0, -0.0, 1e-12, -5e-9, POLE_EXCLUSION, top, -top],
                         np.linspace(-0.99, 0.99, 13) * top])
    for f, xs in ((phase_speed, phis), (u_of_phi, phis), (phi_of_u, us)):
        values = f(k, xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        numbers = np.array([f(k, float(x)) for x in xs])
        assert np.all(_ulps(values, numbers) <= 4.0), (f.__name__, xs, values - numbers)
    s, c, d = scd_real(k, us)
    numbers = np.array([scd_real(k, float(u)) for u in us])
    phi = np.array([phi_of_u(k, float(u)) for u in us])
    assert np.all(_ulps(d, numbers[:, 2]) <= 4.0)
    # s and c are the sine and cosine of phi: within 4 ulp of max(1, |phi|)
    for values, column in ((s, 0), (c, 1)):
        assert np.all(_ulps(values, numbers[:, column], np.maximum(np.abs(phi), 1.0)) <= 4.0)


@pytest.mark.parametrize("k, phis", [
    *[(k, np.concatenate([[-0.0, 1e-12], np.linspace(-math.pi / 2.0, math.pi / 2.0, 25)]))
      for k in CERTIFY_MODULI],
    (0.998317992620744, np.array([1.0651558848623712]))])
def test_a_number_phase_integral_is_its_one_entry_array(k, phis):
    for phi in phis:
        number = u_of_phi(k, float(phi))
        assert type(number) is float
        assert np.array(number).tobytes() == u_of_phi(k, np.array([phi])).tobytes(), phi


def test_arrays_keep_the_exact_points():
    k = 0.6
    top = u_max(k)
    assert np.all(u_of_phi(k, np.array([0.0, -0.0])) == 0.0)
    us = np.array([0.0, 1e-12, -3e-9])
    # below POLE_EXCLUSION phi = u, as for numbers
    assert np.array_equal(phi_of_u(k, us), us)
    assert phi_of_u(k, np.array([top]))[0] == phi_of_u(k, top)
    s, c, d = scd_real(k, np.array([0.0]))
    assert (s[0], c[0], d[0]) == (0.0, 1.0, 1.0)
    # phi - pi round(phi / pi) leaves the principal branch exact
    phis = np.array([math.pi / 2.0, -math.pi / 2.0, 1.5, 1e-300])
    assert np.array_equal(phase_speed(k, phis), [phase_speed(k, float(p)) for p in phis])


def test_arrays_are_refused_whole():
    k = 0.5
    top = u_max(k)
    for f, bad in ((phase_speed, math.nan), (phase_speed, math.inf),
                   (u_of_phi, math.nan), (u_of_phi, 1.6), (u_of_phi, -2.0)):
        with pytest.raises(DomainError):
            f(k, np.array([0.3, bad, 0.4]))
    for f in (phi_of_u, scd_real):
        for bad in (math.nan, top * (1.0 + 1e-9), -2.0 * top):
            with pytest.raises(RangeError):
                f(k, np.array([0.1, bad]))
    with pytest.raises(DomainError):
        u_of_phi(1.5, np.array([0.3]))


def test_array_phase_integral_stalls_where_the_number_one_does():
    # near k = 1 the integrand of u(phi) is noisy near pi/2, and the
    # quadrature raises ConvergenceError at some moduli; an array entry
    # must reach the same verdict as the number, and the same value
    stalled = 0
    for one_minus_k in np.geomspace(1e-7, 1e-3, 200):
        k = 1.0 - float(one_minus_k)
        for phi in (math.pi / 2.0, 1.5, 1.2):
            try:
                number = u_of_phi(k, phi)
            except ConvergenceError:
                with pytest.raises(ConvergenceError):
                    u_of_phi(k, np.array([phi]))
                stalled += 1
                continue
            assert u_of_phi(k, np.array([phi]))[0] == pytest.approx(number, rel=1e-15, abs=0)
    assert 0 < stalled < 600
