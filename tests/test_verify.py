import math

import numpy as np
import pytest

from shenell import (SUITES, DomainError, available_suites, default_tolerance,
                     run_suite, run_suites)


@pytest.fixture
def pole_calls(monkeypatch):
    """The moduli at which the ``pole`` suite's runner has run, from now on."""
    calls = []
    runner, pinned = SUITES["pole"]

    def counted(ctx):
        calls.append(ctx.k)
        return runner(ctx)

    monkeypatch.setitem(SUITES, "pole", (counted, pinned))
    return calls


def test_every_suite_passes_at_default(tmp_path):
    for name in available_suites():
        report = run_suite(name, 0.5)
        assert report.passed, f"{name}: {report}"
        assert report.identity_name == name
        assert report.samples >= 1
        assert report.passed == (report.max_residual < report.tolerance)


def test_pole_suite_at_stated_tolerance():
    report = run_suite("pole", 0.5, tol=1e-10)
    assert report.passed


@pytest.mark.parametrize("k", [0.005, 0.01, 0.02, 0.03])
def test_pole_suite_at_small_modulus(k):
    # the root differences shrink like k^3, below the rounding of g2 and g3
    report = run_suite("pole", k)
    assert report.passed, report


def test_explicit_tolerance_can_fail():
    report = run_suite("pole", 0.5, tol=1e-30)
    assert not report.passed
    assert report.tolerance == 1e-30


def test_reports_sorted_by_identity_then_k():
    reports = run_suites(["pole", "factorization"], [0.7, 0.3])
    keys = [(r.identity_name, r.k) for r in reports]
    assert keys == sorted(keys)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("no-such", 0.5)
    with pytest.raises(DomainError):
        default_tolerance("no-such")


def test_unknown_suite_rejected_before_any_suite_runs(pole_calls):
    with pytest.raises(DomainError, match="bogus"):
        run_suites(["pole", "bogus"], [0.5])
    assert pole_calls == []
    run_suites(["pole"], [0.5])
    assert pole_calls == [0.5]


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_explicit_tolerance_must_be_finite_and_positive(pole_calls, tol):
    with pytest.raises(DomainError, match="tol"):
        run_suite("pole", 0.5, tol=tol)
    with pytest.raises(DomainError, match="tol"):
        run_suites(["pole"], [0.5], tol=tol)
    assert pole_calls == []


@pytest.mark.parametrize("names, ks, tol", [([], [0.5], math.inf), (["pole"], [], math.nan)])
def test_explicit_tolerance_checked_with_nothing_to_run(pole_calls, names, ks, tol):
    with pytest.raises(DomainError, match="tol"):
        run_suites(names, ks, tol=tol)
    assert run_suites(names, ks, tol=1e-3) == [] and pole_calls == []


def test_bad_modulus_rejected():
    with pytest.raises(DomainError):
        run_suite("pole", 1.5)


def test_every_suite_has_a_pinned_default_tolerance():
    assert default_tolerance("duplication") == 1e-9
    assert default_tolerance("cubic-relation") == 1e-9
    assert default_tolerance("pole") == 1e-10
    assert {name: default_tolerance(name) for name in available_suites()} == {
        name: pinned for name, (_, pinned) in SUITES.items()}


def test_a_nan_residual_fails():
    # at k = 1e-50 s^2 overflows on the pole-order radius sweep, so its slope
    # is nan; Python's max(a, nan) would return the finite slope deviation of d
    with pytest.warns(RuntimeWarning):
        report = run_suite("pole-order", 1e-50)
    assert math.isnan(report.max_residual)
    assert not report.passed


def test_full_suite_on_spec_k_grid():
    reports = run_suites(available_suites(), [0.1, 0.5, 0.9])
    failed = [r for r in reports if not r.passed]
    assert not failed, failed


# The 22 moduli of the benchmark's certify workload, and each suite's
# sample count there.
CERTIFY_MODULI = tuple(float(k) for k in np.concatenate(
    [np.linspace(0.06, 0.85, 16), 1.0 - np.geomspace(0.12, 0.01, 6)]))
SAMPLES = {"cubic-relation": 40, "d-ode": 20, "duplication": 20, "factorization": 1,
           "periodicity": 316, "pole": 2, "pole-order": 2, "pythagorean": 21,
           "substitution-chain": 20}


def test_every_suite_passes_at_certify_moduli():
    assert sorted(SAMPLES) == available_suites()
    for k in CERTIFY_MODULI:
        for name, samples in SAMPLES.items():
            report = run_suite(name, k)
            assert report.passed, report
            assert report.samples == samples, report


def test_substitution_chain_at_small_modulus():
    # rounding of d reaches p = (4k^2/9)/(1 - d) - 1/3 multiplied by
    # (9/(4k^2)) |wp + 1/3|^2, so the complex half needs |1 - d| > 1e-3 k
    report = run_suite("substitution-chain", 0.03)
    assert report.passed, report


# the whole-interval scan: 16 log-spaced k in [1e-6, 0.1], 8 log-spaced
# 1 - k in [1e-9, 1e-2]
SCAN_MODULI = tuple(float(k) for k in np.concatenate(
    [np.geomspace(1e-6, 0.1, 16), 1.0 - np.geomspace(1e-9, 1e-2, 8)]))


@pytest.mark.parametrize("k", SCAN_MODULI)
def test_pole_suite_across_the_interval(k):
    # Q((2/3) iK') is read off the kernel as Q3 plus the theta quotient,
    # never as wp + 1/3, so the 1e-10 bound holds down to k = 1e-6
    report = run_suite("pole", k)
    assert report.passed, report


def test_periodicity_at_small_modulus():
    # a modulus of the benchmark's certify sweep; near iK' wp is flat, and
    # an absolute wp error of ~1e-11 there read 1.48e-8 in d
    report = run_suite("periodicity", 0.010608008252159209)
    assert report.passed, report


@pytest.mark.parametrize("k", [float(k) for k in np.geomspace(1e-3, 5e-3, 17)])
def test_substitution_chain_real_half_at_small_modulus(k):
    # 1 - d is within (4/9) k^2 of 0 on the real axis; it is formed from the
    # phase angle, since rounding d = 1/F would cost ~2.5e-16 / (k^2 sin^4 phi)
    report = run_suite("substitution-chain", k)
    assert report.passed, report


@pytest.mark.parametrize("k", [k for k in SCAN_MODULI if k < 5e-3])
def test_pole_order_at_small_modulus(k):
    # the pole disc of d has radius ~1e-10 at every k, inside the sweep's
    # smallest radius of ~1e-5
    report = run_suite("pole-order", k)
    assert report.passed, report


def test_d_ode_across_the_moduli():
    # with d' = (4/9) k^2 wp' / Q^2 in closed form the residual is rounding,
    # ~2e-14 at worst; a central difference of step 1e-5 read up to 7e-9
    # here. k = 0.16866... once read 1.17e-7, over the pinned 1e-7
    for k in [*np.linspace(0.05, 0.99, 2000), 0.16866392716532072]:
        report = run_suite("d-ode", float(k))
        assert report.passed and report.max_residual < 1e-12, report
