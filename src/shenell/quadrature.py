"""Composite 15-point Gauss-Legendre quadrature on finite intervals.

``_panels`` is the fixed rule, which the phase integral of
:mod:`shenell.phase` runs on. ``integrate``, public API that no module of
the package calls, refines it adaptively on one interval.
"""

import math

import numpy as np

from .exceptions import ConvergenceError, DomainError

# 15-point Gauss-Legendre rule on [-1, 1]; exact through degree 29.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

# ``integrate`` aims at this absolute error, shared out over its panels by
# length; a split estimate below _REL_FLOOR of the local magnitude also
# stops it, which ends the descent on boundary layers. It gives up after
# this many levels, or this many panels: an integrand that never converges
# doubles its panels at each level, so its work stays below ~250 000 calls.
_ABS_TOL = 1e-13
_REL_FLOOR = 3e-15
_MAX_REFINEMENTS = 30
_MAX_PANELS = 2 ** 14


def _panels(f, lo, hi):
    # the 15-point rule on every [lo, hi], all nodes in one call of f; the
    # weighted sum runs in node order, as a Python sum would
    h = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    values = f(nodes.ravel()).reshape(nodes.shape) * _WEIGHTS
    return h * np.cumsum(values, axis=1)[:, -1]


def integrate(f, a, b) -> float:
    """Integrate ``f`` over ``[a, b]`` to roughly 1e-13 absolute error.

    ``f`` takes and returns a number. A panel is bisected until the 15-point
    rule agrees with its two halves: the split is kept when |left + right -
    coarse| <= max(1e-13 |hi - lo| / |b - a|, 3e-15 (|left| + |right|)).
    Each level's panels are evaluated together and the result is summed
    back over the tree, so it is the double that depth-first recursion
    gives. Raises DomainError unless both ends are finite, and
    ConvergenceError past 30 levels or a fixed budget of panels.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    if a == b:
        return 0.0

    def g(x):
        return np.array([f(t) for t in x.tolist()])

    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    length = np.abs(hi - lo)
    coarse = _panels(g, lo, hi)
    spent = 1
    # (value of each panel of a level, mask of the split ones); the children
    # of the split panels of one level make up the next, in order
    levels = []
    for depth in range(1, _MAX_REFINEMENTS + 1):
        spent += 2 * lo.size
        if spent > _MAX_PANELS:
            raise ConvergenceError(f"quadrature needs more than {_MAX_PANELS} panels")
        mid = 0.5 * (lo + hi)
        halves = _panels(g, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
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
    below = levels.pop()[0]  # the last level splits nothing
    for values, split in reversed(levels):
        values[split] = below[0::2] + below[1::2]
        below = values
    return below[0].item()
