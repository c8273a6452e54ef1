"""Adaptive composite Gauss-Legendre quadrature on finite intervals.

One engine integrates many intervals at once: it refines the panels of
all of them a level at a time, and evaluates each level's nodes in one
call of a vectorised integrand. ``integrate`` is that engine on one
interval, with a scalar integrand mapped over the node array. Both aim
at an absolute error of 1e-13 within 30 levels of bisection; these are
fixed, like the panel budget.
"""

import math

import numpy as np

from .exceptions import ConvergenceError, DomainError

# 15-point Gauss-Legendre rule on [-1, 1]; exact through degree 29.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

# Each integral aims at this absolute error, shared out over its panels by
# length, and gives up after this many levels of bisection.
_ABS_TOL = 1e-13
_MAX_REFINEMENTS = 30

# Refinement stops once the split estimate falls below this multiple of
# the local magnitude; prevents infinite descent on boundary layers.
_REL_FLOOR = 3e-15

# Panels per interval that one engine call may evaluate. Refinement goes
# level by level, so an integrand that never converges doubles its panels
# at each level; this bounds its work to ~250 000 evaluations per interval.
_MAX_PANELS = 2 ** 14


def _panels(f, lo, hi):
    # the 15-point rule on every [lo, hi], all nodes in one call of f; the
    # weighted sum runs in node order, as a Python sum would
    h = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    values = f(nodes.ravel()).reshape(nodes.shape) * _WEIGHTS
    return h * np.cumsum(values, axis=1)[:, -1]


def _integrate_all(f, a, b) -> np.ndarray:
    """The integral of ``f`` over each interval [a[i], b[i]] of the 1-D arrays ``a``, ``b``.

    ``f`` maps a 1-D array of nodes to the array of its values. Each
    panel is bisected until the 15-point rule agrees with its own
    two-panel refinement: the split is kept when |left + right - coarse|
    <= max(1e-13 |hi - lo| / |b - a|, 3e-15 (|left| + |right|)). The
    panels of every interval that are not kept are bisected together at
    the next level, and each integral is summed back over its own tree
    of panels. Raises ConvergenceError if 30 levels do not suffice, or
    if the panels would exceed a fixed budget per interval. Empty
    intervals give 0.
    """
    live = np.flatnonzero(a != b)
    lo, hi = a[live], b[live]
    if not live.size:
        return np.zeros(a.shape)
    length = np.abs(hi - lo)
    coarse = _panels(f, lo, hi)
    budget, spent = _MAX_PANELS * live.size, live.size
    # (value of each panel of a level, mask of the split ones); the children
    # of the split panels of one level make up the next, in order
    levels = []
    for depth in range(1, _MAX_REFINEMENTS + 1):
        spent += 2 * lo.size
        if spent > budget:
            raise ConvergenceError(f"quadrature needs more than {_MAX_PANELS} panels "
                                   f"per interval (abs_tol={_ABS_TOL})")
        mid = 0.5 * (lo + hi)
        halves = _panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[:lo.size], halves[lo.size:]
        est = np.abs(left + right - coarse)
        split = ~(est <= np.maximum(_ABS_TOL * np.abs(hi - lo) / length,
                                    _REL_FLOOR * (np.abs(left) + np.abs(right))))
        levels.append((left + right, split))
        if not split.any():
            break
        if depth == _MAX_REFINEMENTS:
            raise ConvergenceError(
                f"quadrature stalled at error ~{est[split].max():.3e} after "
                f"{_MAX_REFINEMENTS} refinement levels (abs_tol={_ABS_TOL})")
        lo = np.column_stack([lo[split], mid[split]]).ravel()
        hi = np.column_stack([mid[split], hi[split]]).ravel()
        coarse = np.column_stack([left[split], right[split]]).ravel()
        length = np.repeat(length[split], 2)
    below = levels.pop()[0]  # the last level splits nothing
    for values, split in reversed(levels):
        values[split] = below[0::2] + below[1::2]
        below = values
    result = np.zeros(a.shape, dtype=below.dtype)
    result[live] = below
    return result


def integrate(f, a, b) -> float:
    """Integrate ``f`` over ``[a, b]`` to roughly 1e-13 absolute error.

    ``f`` takes and returns a number. It is mapped over the nodes of the
    array engine, whose refinement rule and errors apply: a panel is
    bisected until the 15-point rule agrees with its own two-panel
    refinement, the tolerance being distributed by subinterval length.
    Raises DomainError unless both ends are finite, and ConvergenceError
    if 30 levels of bisection do not suffice, or past a fixed panel
    budget.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    values = _integrate_all(lambda x: np.array([f(t) for t in x.tolist()]),
                            np.array([a], dtype=float), np.array([b], dtype=float))
    return values[0].item()
