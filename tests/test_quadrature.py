import math

import numpy as np
import pytest

from shenell import ConvergenceError, integrate


def test_exact_on_smooth_integrands():
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-13)
    assert integrate(lambda x: x ** 7, 0.0, 1.0) == pytest.approx(1.0 / 8.0, abs=1e-15)


def test_empty_interval():
    assert integrate(math.exp, 1.0, 1.0) == 0.0


def test_boundary_layer():
    # sharp but integrable peak; forces real adaptive work
    value = integrate(lambda x: 1.0 / math.sqrt(x * x + 1e-8), 0.0, 1.0)
    exact = math.asinh(1.0 / 1e-4)
    assert value == pytest.approx(exact, rel=1e-13)


def test_refinement_budget_enforced():
    # the peak at 0 is too sharp for 30 levels of bisection, but few panels
    # fail to converge, so the level cap stops the engine, not the panel budget
    with pytest.raises(ConvergenceError, match="stalled .* after 30 refinement levels"):
        integrate(lambda x: 1.0 / math.sqrt(abs(x) + 1e-14), -1.0, 1.0)


# The recursive integrator that the level-by-level engine replaced: the
# same rule, acceptance test and bisection tree, depth first.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _recursive_reference(f, a, b, abs_tol=1e-13, max_refinements=30):
    def panel(lo, hi):
        h, c = 0.5 * (hi - lo), 0.5 * (lo + hi)
        return h * sum(float(w) * f(c + h * float(x)) for x, w in zip(_NODES, _WEIGHTS))

    length = abs(b - a)

    def refine(lo, hi, coarse, depth):
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        est = abs(left + right - coarse)
        if est <= max(abs_tol * abs(hi - lo) / length, 3e-15 * (abs(left) + abs(right))):
            return left + right
        if depth >= max_refinements:
            raise ConvergenceError("stalled")
        return refine(lo, mid, left, depth + 1) + refine(mid, hi, right, depth + 1)

    return refine(a, b, panel(a, b), 1)


@pytest.mark.parametrize("f, a, b", [
    (math.sin, 0.0, math.pi),
    (math.cos, 2.0, -1.0),
    (lambda x: math.sin(50.0 * x), 0.0, 10.0),
    (lambda x: 1.0 / math.sqrt(x * x + 1e-6), -0.3, 1.0),
    (lambda x: math.exp(-x * x) * math.cos(3.0 * x), -4.0, 5.0),
])
def test_matches_the_recursive_bisection_bitwise(f, a, b):
    # level by level, each integral is summed over the same tree of panels
    # in the same order, so it is the same double
    assert integrate(f, a, b) == _recursive_reference(f, a, b)


def test_work_is_bounded_whatever_the_refinement_budget():
    # noise never converges: each level bisects every panel, so the panels
    # double per level until the engine's fixed panel budget stops them,
    # some 15 levels before the cap of 30 levels would
    rng = np.random.default_rng(11)
    calls = []

    def noise(x):
        calls.append(x)
        return rng.standard_normal()

    with pytest.raises(ConvergenceError, match="more than 16384 panels"):
        integrate(noise, 0.0, 1.0)
    assert 15 * 2 ** 10 < len(calls) <= 15 * 2 ** 14
