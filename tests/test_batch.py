"""The array path of the wp kernel and the grid sampler against the scalar path.

The scalar functions are the per-point reference, and the 30-digit
Jacobi-sn oracle the independent one. Scalars and arrays run the same
theta quotients, so the pole flags must agree exactly; values differ only
by the rounding of numpy's complex sin, cos and exp against cmath's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shenell import (D_POLE_TOL, PoleError, ShenContext, c_squared, d_complex,
                     q_with_prime, s_squared, sc_product, wp_with_prime)
from shenell.cli import build_sample_grid
from helpers import wp_oracle_factory

# relative error allowed against the scalar path and the oracle. Over 1800
# random points at k in [0.05, 0.95] the two paths agree to 7e-16; against
# the oracle the worst is 9e-14, near poles three periods out, where the
# rounded periods used to reduce z are magnified by |wp'|
_ROUNDING = 1e-12


def _wp_tolerances(ctx, z):
    """Allowed error of the array path's wp(z) and wp'(z)."""
    p, dp = wp_with_prime(z, ctx.inv, ctx.lat)
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
    "wp": lambda ctx, z: wp_with_prime(z, ctx.inv, ctx.lat)[0],
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
    p, dp = wp_with_prime(np.array(zs), ctx.inv, ctx.lat)
    pole = np.isnan(p)
    assert np.array_equal(pole, np.isnan(dp))
    for i, z in enumerate(zs):
        try:
            sp, sdp = wp_with_prime(z, ctx.inv, ctx.lat)
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
    whole = wp_with_prime(z, ctx.inv, ctx.lat)
    pieces = [wp_with_prime(part, ctx.inv, ctx.lat) for part in np.split(z, [100, 4200])]
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
