"""The array path of the wp kernel and the grid sampler against the scalar path.

The scalar functions are the per-point reference, and the 30-digit
Jacobi-sn oracle the independent one. Scalars and arrays run the same
theta quotients, so the pole flags must agree exactly; values differ only
by the rounding of numpy's complex sin, cos and exp against cmath's.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shenell import (D_POLE_TOL, DomainError, PoleError, ShenContext, c_squared,
                     cubic_relation_residual, d_complex, d_ode_residual, duplication_check,
                     phase_speed, phi_of_u, q_with_prime, reduce_to_cell, s_squared,
                     sc_product, scd_real, substitution_chain_check, u_of_phi, wp, wp_prime,
                     wp_with_prime)
from shenell.cli import MAX_GRID_POINTS, UsageError, build_sample_grid
from helpers import wp_oracle_factory

# relative error allowed against the scalar path and the oracle. Over 1800
# random points at k in [0.05, 0.95] the two paths agree to 7e-16; against
# the oracle the worst is 9e-14, near poles three periods out, where the
# rounded periods used to reduce z are magnified by |wp'|
_ROUNDING = 1e-12


def _wp_tolerances(ctx, z):
    """Allowed error of the array path's wp(z) and wp'(z)."""
    p, dp = wp_with_prime(ctx, z)
    return _ROUNDING * max(1.0, abs(p)), _ROUNDING * max(1.0, abs(dp))


def _d_tolerance(ctx, z):
    """Allowed |array - scalar| for d(z): the wp tolerance times |dd/dwp|."""
    try:
        q, _ = q_with_prime(ctx, z)
    except PoleError:
        return 0.0            # d is exactly 1 at lattice points on both paths
    tol_wp = _wp_tolerances(ctx, z)[0]
    return (4.0 / 9.0) * ctx.k ** 2 / abs(q) ** 2 * tol_wp


def _tolerance(ctx, fn, z, value):
    slack = _ROUNDING * max(1.0, abs(value))
    if fn == "wp":
        return _wp_tolerances(ctx, z)[0] + slack
    if fn == "d":
        return _d_tolerance(ctx, z) + slack
    if fn in ("s2", "c2"):
        d = d_complex(ctx, z)
        return 3.0 * abs(d * (2.0 + d)) / (4.0 * ctx.k ** 2) * _d_tolerance(ctx, z) + slack
    # sc = -(3 Q - a) wp' / (6 Q^3), a = (4/9) k^2, with Q at the edge of
    # the pole disc of d where it lies inside; 0 on both paths at lattice points
    try:
        q, dp = q_with_prime(ctx, z)
    except PoleError:
        return slack
    a = (4.0 / 9.0) * ctx.k ** 2
    q = max(abs(q), D_POLE_TOL * (8.0 / 27.0) * ctx.k ** 2)
    tol_wp, tol_dp = _wp_tolerances(ctx, z)
    return (abs(dp) * (2.0 * q + a) / (2.0 * q ** 4) * tol_wp
            + (3.0 * q + a) / (6.0 * q ** 3) * tol_dp + slack)


_SCALAR = {
    "d": d_complex,
    "s2": s_squared,
    "c2": c_squared,
    "sc": sc_product,
    "wp": lambda ctx, z: wp_with_prime(ctx, z)[0],
}

_OFFSETS = st.one_of(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),   # anywhere in the cell
    st.sampled_from([(0.0, 0.0),                              # a lattice point
                     (0.0, 2.0 / 3.0), (0.0, -2.0 / 3.0)]))   # a pole of d


@settings(max_examples=60, deadline=None)
@given(k=st.floats(0.05, 0.95),
       points=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), _OFFSETS),
                       min_size=1, max_size=12))
def test_batch_kernel_matches_scalar_wp(k, points):
    ctx = ShenContext.from_modulus(k)
    oracle = wp_oracle_factory(k)
    big_k, big_kp = ctx.lat.K, ctx.lat.K_prime
    zs = [complex((2 * m + u) * big_k, (2 * n + v) * big_kp) for m, n, (u, v) in points]
    p, dp = wp_with_prime(ctx, np.array(zs))
    pole = np.isnan(p)
    assert np.array_equal(pole, np.isnan(dp))
    for i, z in enumerate(zs):
        try:
            sp, sdp = wp_with_prime(ctx, z)
        except PoleError:
            assert pole[i], z
            continue
        assert not pole[i], z
        if abs(sp) <= 1e3:
            tol_p, tol_dp = _wp_tolerances(ctx, z)
            assert abs(p[i] - sp) <= tol_p, (z, p[i], sp)
            assert abs(dp[i] - sdp) <= tol_dp, (z, dp[i], sdp)
            assert abs(p[i] - oracle(z)) <= tol_p, (z, p[i], oracle(z))


def test_batch_kernel_is_chunk_independent():
    ctx = ShenContext.from_modulus(0.5)
    rng = np.random.default_rng(7)
    z = rng.uniform(-4.0, 4.0, 9000) + 1j * rng.uniform(-6.0, 6.0, 9000)
    whole = wp_with_prime(ctx, z)
    pieces = [wp_with_prime(ctx, part) for part in np.split(z, [100, 4200])]
    for got, parts in zip(whole, zip(*pieces)):
        assert np.array_equal(got, np.concatenate(parts), equal_nan=True)
    # the sampler evaluates in chunks: a 90 x 100 grid row by row and whole
    re_axis = [0.05 * i for i in range(90)]
    im_axis = [0.07 * j for j in range(100)]
    rows = build_sample_grid(0.5, "sc", re_axis, im_axis).rows
    assert rows == [row for im in im_axis
                    for row in build_sample_grid(0.5, "sc", re_axis, [im]).rows]


@pytest.mark.parametrize("k", (0.05, 0.3, 0.7))
@pytest.mark.parametrize("fn", sorted(_SCALAR))
def test_sample_grid_matches_scalar_functions(k, fn):
    """One full period cell, with its lattice points and +-(2/3) iK' on the grid."""
    ctx = ShenContext.from_modulus(k)
    re_axis = [i * (2.0 * ctx.lat.K / 24) for i in range(25)]
    im_axis = [j * (2.0 * ctx.lat.K_prime / 15) for j in range(16)]
    grid = build_sample_grid(k, fn, re_axis, im_axis)
    assert len(grid.rows) == len(re_axis) * len(im_axis)
    flagged = 0
    for re, im, ref, imf, pole in grid.rows:
        z = complex(re, im)
        try:
            expected = complex(_SCALAR[fn](ctx, z))
            scalar_pole = not (math.isfinite(expected.real) and math.isfinite(expected.imag))
        except PoleError:
            scalar_pole = True
        assert pole == int(scalar_pole), (fn, z)
        flagged += pole
        if not pole:
            value = complex(ref, imf)
            assert abs(value - expected) <= _tolerance(ctx, fn, z, expected), (fn, z, value, expected)
    # the cell corners are lattice points; rows 5 and 10 hold +-(2/3) iK' mod 2iK'
    assert flagged == {"wp": 4, "d": 4, "s2": 4, "c2": 4, "sc": 0}[fn]


def test_sample_sc_next_to_pole():
    # 1e-6 from the pole of d, outside its ~1e-10 disc: sc is of triple-pole
    # size and unflagged, and the grid agrees with sc_product
    ctx = ShenContext.from_modulus(0.5)
    im = (2.0 / 3.0) * ctx.lat.K_prime
    z = complex(1e-6, im)
    grid = build_sample_grid(0.5, "sc", [z.real], [im])
    (_, _, ref, imf, pole), = grid.rows
    expected = sc_product(ctx, z)
    assert pole == 0
    assert abs(expected) > 1e15
    assert abs(complex(ref, imf) - expected) <= _tolerance(ctx, "sc", z, expected)


@pytest.mark.parametrize("k", (0.05, 1e-3))
def test_sample_sc_matches_scalar_on_full_cell(k):
    """Scalar and array sc run one formula in Q and wp' on the 61 x 31 cell grid.

    Relative to max(1, |sc|): near the zeros of 2 + d, sc is only as
    accurate as Q relative to k^2.
    """
    ctx = ShenContext.from_modulus(k)
    re_axis = [i * (2.0 * ctx.lat.K / 60) for i in range(61)]
    im_axis = [j * (2.0 * ctx.lat.K_prime / 30) for j in range(31)]
    grid = build_sample_grid(k, "sc", re_axis, im_axis)
    for re, im, ref, imf, pole in grid.rows:
        expected = sc_product(ctx, complex(re, im))
        assert pole == 0
        assert abs(complex(ref, imf) - expected) <= 1e-13 * max(1.0, abs(expected)), (re, im)


def test_sc_huge_and_finite_where_q_rounds_to_zero():
    # this grid point of the pole row has Q == 0.0 exactly, where a bare
    # -(2 + d) wp' / (6 Q^2) would be inf or nan
    k = 0.2505
    ctx = ShenContext.from_modulus(k)
    im = 10 * (2.0 * ctx.lat.K_prime / 30)
    assert q_with_prime(ctx, complex(0.0, im))[0] == 0.0
    value = sc_product(ctx, complex(0.0, im))
    assert math.isfinite(value.real) and math.isfinite(value.imag)
    assert abs(value) >= 1e8
    (_, _, ref, imf, pole), = build_sample_grid(k, "sc", [0.0], [im]).rows
    assert pole == 0
    assert abs(complex(ref, imf)) >= 1e8


def test_sample_d_flags_only_the_poles_at_tiny_modulus():
    # the pole disc of d has radius ~D_POLE_TOL at every k: at k = 1e-6 the
    # line Im z = K' (where d ~ -2) has no pole, and Im z = (2/3) K' has
    # the two at the ends of the row, at 0 and 2K
    k = 1e-6
    ctx = ShenContext.from_modulus(k)
    re_axis = [i * (2.0 * ctx.lat.K / 10) for i in range(11)]
    rows = build_sample_grid(k, "d", re_axis, [ctx.lat.K_prime]).rows
    assert [row[4] for row in rows] == [0] * 11
    rows = build_sample_grid(k, "d", re_axis, [(2.0 / 3.0) * ctx.lat.K_prime]).rows
    assert [row[4] for row in rows] == [1] + [0] * 9 + [1]


@pytest.mark.parametrize("k", (1e-3, 0.05, 0.3, 0.7))
def test_field_functions_take_arrays_by_the_scalar_pole_rules(k):
    """d, sc and the residuals on an ndarray: nan exactly where a number raises PoleError."""
    ctx = ShenContext.from_modulus(k)
    re_axis = [i * (2.0 * ctx.lat.K / 24) for i in range(25)]
    im_axis = [j * (2.0 * ctx.lat.K_prime / 15) for j in range(16)]
    zs = np.array([complex(x, y) for y in im_axis for x in re_axis])
    d, sc = d_complex(ctx, zs), sc_product(ctx, zs)
    cubic, ode = cubic_relation_residual(ctx, zs), d_ode_residual(ctx, zs)
    assert d.shape == sc.shape == cubic.shape == ode.shape == zs.shape
    assert not np.isnan(sc).any()
    poles = lattice = 0
    for i, z in enumerate(zs):
        try:
            q_with_prime(ctx, z)
        except PoleError:
            lattice += 1
            assert d[i] == 1.0 and sc[i] == 0.0 and cubic[i] == 0.0 and ode[i] == 0.0, z
            continue
        try:
            expected_d = d_complex(ctx, z)
        except PoleError:
            poles += 1
            assert np.isnan(d[i]) and np.isnan(cubic[i]) and np.isnan(ode[i]), z
            with pytest.raises(PoleError):
                d_ode_residual(ctx, z)
            continue
        scale = 1e-13 * max(1.0, abs(expected_d) ** 4)
        assert abs(d[i] - expected_d) <= _tolerance(ctx, "d", z, expected_d), z
        assert abs(sc[i] - sc_product(ctx, z)) <= 1e-13 * max(1.0, abs(sc[i])), z
        assert abs(cubic[i] - cubic_relation_residual(ctx, z)) <= scale, z
        assert abs(ode[i] - d_ode_residual(ctx, z)) <= scale, z
    # the cell corners are lattice points; rows 5 and 10 hold +-(2/3) iK' mod 2iK'
    assert (lattice, poles) == (4, 4)


# f -> its values at the lattice point 0 and at the pole (2/3) iK' of d;
# None is a finite value (sc and wp are finite at the poles of d)
_TAILS = {
    d_complex: (1.0, math.nan),
    s_squared: (0.0, math.nan),
    c_squared: (1.0, math.nan),
    sc_product: (0.0, None),
    cubic_relation_residual: (0.0, math.nan),
    d_ode_residual: (0.0, math.nan),
    substitution_chain_check: (math.nan, math.nan),
    lambda ctx, z: wp_with_prime(ctx, z)[0]: (math.nan, None),
    lambda ctx, z: wp_with_prime(ctx, z)[1]: (math.nan, None),
}


def _is(value, expected):
    if expected is None:
        return bool(np.isfinite(value))
    return bool(np.isnan(value)) if math.isnan(expected) else value == expected


@pytest.mark.parametrize("k", (1e-3, 0.3, 0.99))
def test_pole_free_arrays_match_arrays_that_hold_poles_bitwise(k):
    """An array with no lattice point and no pole of d takes the values it has beside them.

    The tail is the lattice point 0 alone, the pole (2/3) iK' alone, or
    both: each kind of entry on its own sends an array down the masked path.
    """
    ctx = ShenContext.from_modulus(k)
    rng = np.random.default_rng(1919)
    zs = (rng.uniform(-0.95, 0.95, size=(40, 2)) * [ctx.lat.K, ctx.lat.K_prime]).view(complex)
    zs = zs.ravel()
    assert not np.isnan(d_complex(ctx, zs)).any()  # pole-free
    pole = (2.0 / 3.0) * 1j * ctx.lat.K_prime
    for tail, kinds in (([0.0], (0,)), ([pole], (1,)), ([0.0, pole], (0, 1))):
        with_poles = np.concatenate([zs, tail])
        for f, expected in _TAILS.items():
            alone, beside = f(ctx, zs), f(ctx, with_poles)
            assert alone.shape == zs.shape and beside.shape == with_poles.shape
            assert alone.tobytes() == beside[:zs.size].tobytes(), (f, tail)
            for value, kind in zip(beside[zs.size:], kinds):
                assert _is(value, expected[kind]), (f, tail)


@pytest.mark.parametrize("k", (1e-3, 0.3, 0.99))
def test_an_array_call_leaves_the_context_unchanged_as_a_value(k):
    """Number results, repr, equality and the lattice's hash are the same after an array call."""
    ShenContext.from_modulus.cache_clear()  # a context that has seen no array yet
    ctx = ShenContext.from_modulus(k)
    z, u = complex(0.3 * ctx.lat.K, 0.4 * ctx.lat.K_prime), 0.6 * ctx.lat.K

    def state():
        numbers = (wp_with_prime(ctx, z), q_with_prime(ctx, z), d_complex(ctx, z),
                   tuple(scd_real(k, u)))
        return (repr(numbers), repr(ctx), ctx == ShenContext(k=k, inv=ctx.inv, lat=ctx.lat),
                hash(ctx.lat))

    before = state()
    q_with_prime(ctx, np.array([z, 0.0, (2.0 / 3.0) * 1j * ctx.lat.K_prime]))
    phi_of_u(k, np.array([u]))
    assert state() == before
    assert before[2]


_SAMPLE_FUNCTIONS = (d_complex, s_squared, c_squared, sc_product, wp,
                     lambda ctx, z: wp_with_prime(ctx, z)[0],
                     lambda ctx, z: wp_with_prime(ctx, z)[1],
                     lambda ctx, z: q_with_prime(ctx, z)[0],
                     lambda ctx, z: q_with_prime(ctx, z)[1])


@pytest.mark.parametrize("k", (1e-3, 0.3, 0.99))
def test_0d_and_2d_arrays_keep_their_shape_and_complex_dtype(k):
    """The kernel and the sample functions keep z's shape and the values of the flat array.

    A 2-D array, with a lattice point and a pole of d, runs the loops of
    its flat copy, bitwise; a 0-d one runs as the one-entry array.
    """
    ctx = ShenContext.from_modulus(k)
    big_k, big_kp = ctx.lat.K, ctx.lat.K_prime
    plane = np.array([[0.3 * big_k + 0.4j * big_kp, 0.0, -0.7 * big_k + 0.1j * big_kp],
                      [(2.0 / 3.0) * 1j * big_kp, 0.9 * big_k - 0.8j * big_kp, 0.5 * big_k]])
    point = np.array(0.2 * big_k + 0.3j * big_kp)
    for f in _SAMPLE_FUNCTIONS:
        for z in (plane, point):
            value = f(ctx, z)
            assert np.shape(value) == z.shape and np.result_type(value) == np.complex128, f
        assert f(ctx, plane).tobytes() == f(ctx, plane.ravel()).tobytes(), f
        assert f(ctx, point).tobytes() == f(ctx, point.reshape(1)).tobytes(), f


@pytest.mark.parametrize("k", (1e-3, 0.3, 0.99))
def test_0d_arrays_follow_the_array_rules(k):
    """A 0-d z gives a 0-d ndarray, bitwise the entry of the one-entry array.

    That holds at a regular point and where a number raises: the lattice
    point (d is 1, s^2 is 0, the substitution degenerates), a pole of d
    and the half-periods, where the array rules give nan, with no warning.
    The phase functions of u and phi follow the same rule, each field of
    ``scd_real`` too, at u = 0 (where the number path of wp raises), inside
    the pole exclusion, at +-K and at regular points.
    """
    ctx = ShenContext.from_modulus(k)
    big_k, big_kp = ctx.lat.K, ctx.lat.K_prime
    pole, regular = (2.0 / 3.0) * 1j * big_kp, 0.2 * big_k + 0.3j * big_kp
    functions = (*_SAMPLE_FUNCTIONS, wp_prime, cubic_relation_residual, d_ode_residual,
                 substitution_chain_check, duplication_check, reduce_to_cell)
    for z in (0j, pole, complex(big_k), 1j * big_kp, big_k + 1j * big_kp, regular):
        for f in functions:
            value = f(ctx, np.array(z))
            assert type(value) is np.ndarray and value.shape == (), (f, z)
            assert value.tobytes() == f(ctx, np.array([z])).tobytes(), (f, z)
    assert d_complex(ctx, np.array(0j)) == 1.0 and s_squared(ctx, np.array(0j)) == 0.0
    assert np.isnan(d_complex(ctx, np.array(pole)))
    assert np.isnan(substitution_chain_check(ctx, np.array(0j)))
    assert np.isnan(duplication_check(ctx, np.array(big_k)))
    phase = [(phi_of_u, u) for u in (0.0, 1e-9, 0.3 * big_k, -0.7 * big_k, big_k)]
    phase += [(phase_speed, phi) for phi in (0.0, 0.4, 2.5, -7.0)]
    phase += [(u_of_phi, phi) for phi in (0.0, 0.4, -math.pi / 2.0)]
    for f, x in phase + [(scd_real, u) for _, u in phase[:5]]:
        value, entry = f(k, np.array(x)), f(k, np.array([x]))
        for field, entry_field in zip(value, entry) if f is scd_real else [(value, entry)]:
            assert type(field) is np.ndarray and field.shape == (), (f, x)
            assert field.tobytes() == entry_field.tobytes(), (f, x)
    assert phi_of_u(k, np.array(0.0)) == 0.0 and u_of_phi(k, np.array(0.0)) == 0.0


@pytest.mark.parametrize("huge", [1e16, 1e17, 1e300])
def test_numbers_and_arrays_too_far_out_raise_domain_error(context_for, huge):
    # the cell reduction has too few digits left to place such z: a number at
    # 1e17 was taken for a lattice point (d exactly 1), an array entry 1e300 too
    ctx = context_for(0.5)
    functions = [lambda z: wp_with_prime(ctx, z), lambda z: q_with_prime(ctx, z),
                 lambda z: d_complex(ctx, z), lambda z: sc_product(ctx, z),
                 lambda z: d_ode_residual(ctx, z), lambda z: cubic_relation_residual(ctx, z)]
    for z in (huge, complex(0.3, huge), np.array([0.3 + 0.2j, huge]),
              np.array([complex(0.7, -huge)])):
        for f in functions:
            with pytest.raises(DomainError):
                f(z)
    with pytest.raises(DomainError):
        build_sample_grid(0.5, "d", [0.3, huge], [0.2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_arrays_with_a_non_finite_entry_raise_domain_error(context_for, bad):
    # the kernel refuses the whole array before the cell reduction, with no
    # numpy warning, so nan in a result only ever marks a lattice point
    ctx = context_for(0.5)
    functions = [lambda z: wp_with_prime(ctx, z), lambda z: q_with_prime(ctx, z),
                 lambda z: d_complex(ctx, z), lambda z: sc_product(ctx, z),
                 lambda z: d_ode_residual(ctx, z)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zs in (np.array([0.3 + 0.2j, complex(bad, 0.1)]), np.array([complex(0.7, bad)])):
            for f in functions:
                with pytest.raises(DomainError):
                    f(zs)
        for re_axis, im_axis in (([0.3, bad], [0.2]), ([0.3], [0.2, bad])):
            with pytest.raises(DomainError):
                build_sample_grid(0.5, "d", re_axis, im_axis)


def test_sample_grid_caps_points():
    side = int(MAX_GRID_POINTS ** 0.5) + 1
    axis = [0.001 * i for i in range(side)]
    with pytest.raises(UsageError, match="cap"):
        build_sample_grid(0.5, "d", axis, axis)
    with pytest.raises(UsageError, match="unknown function"):
        build_sample_grid(0.5, "bogus", [0.3], [0.2])
