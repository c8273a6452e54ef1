import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shenell import DomainError, f_closed, f_series, triplication_residual
from helpers import hyp_oracle

GOLDEN = (1.0 + math.sqrt(3.0)) / 2.0  # cos(pi/12) / cos(pi/4)


def test_series_at_zero_is_one():
    assert f_series(0.0) == 1.0


def test_series_at_half_matches_closed_form_exactly():
    # cos(pi/12)/cos(pi/4) = (1 + sqrt 3)/2
    assert f_series(0.5) == pytest.approx(GOLDEN, abs=1e-14)
    assert f_closed(math.pi / 4.0) == pytest.approx(GOLDEN, abs=1e-15)


def test_series_at_sin_squared():
    x = math.sin(0.3) ** 2
    assert f_series(x) == pytest.approx(math.cos(0.1) / math.cos(0.3), abs=1e-13)


def test_closed_form_basics():
    assert f_closed(0.0) == 1.0
    assert f_closed(0.3) == pytest.approx(f_series(math.sin(0.3) ** 2), abs=1e-13)


def test_series_against_scipy_oracle():
    for x in np.linspace(0.0, 0.97, 40):
        assert f_series(float(x)) == pytest.approx(hyp_oracle(float(x)),
                                                   rel=1e-13, abs=1e-13)


def test_series_monotone_and_at_least_one():
    xs = np.linspace(0.0, 0.99, 100)
    values = [f_series(float(x)) for x in xs]
    assert all(v >= 1.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-math.pi / 2 + 0.06, max_value=math.pi / 2 - 0.06))
def test_series_equals_closed_form(z):
    # doubles certify the identity on the well-conditioned core; closer to
    # the ends the (1 - x)^{-1/2} growth eats the 1e-12 budget
    assert abs(f_series(math.sin(z) ** 2) - f_closed(z)) < 1e-12


def test_series_equals_closed_form_full_interval_extended():
    # at extended precision the 1e-12 identity bound holds over the whole
    # interval, interval ends included
    ld = np.longdouble
    zs = np.linspace(ld(-math.pi) / 2 + ld(0.01), ld(math.pi) / 2 - ld(0.01),
                     120, dtype=ld)
    for z in zs:
        assert abs(float(f_series(np.sin(z) ** 2) - f_closed(z))) < 1e-12


def test_longdouble_inputs_preserve_type():
    x = np.longdouble("0.5")
    assert isinstance(f_series(x), np.longdouble)
    assert isinstance(f_series(np.longdouble("0.995")), np.longdouble)


def test_triplication_trivial_points():
    assert triplication_residual(0.0) == 0.0
    assert abs(triplication_residual(math.pi)) < 1e-15
    assert abs(triplication_residual(1.234)) < 1e-15


@settings(max_examples=300)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_triplication_everywhere(z):
    assert abs(triplication_residual(z)) < 1e-14


def test_domain_errors():
    with pytest.raises(DomainError):
        f_series(-1e-9)
    with pytest.raises(DomainError):
        f_series(1.0)
    with pytest.raises(DomainError):
        f_closed(math.pi / 2.0)
    with pytest.raises(DomainError):
        f_closed(-2.0)


def test_delegation_region_still_accurate():
    # above the 0.98 cutoff the closed form takes over; the value must
    # still line up with the scipy oracle
    for x in (0.985, 0.995, 0.9999):
        assert f_series(x) == pytest.approx(hyp_oracle(x), rel=1e-12)
