"""The Gauss hypergeometric function F(1/3, 2/3; 1/2; x) on [0, 1).

The paper's starting point, as the power series with term recurrence
and as the closed form F(1/3, 2/3; 1/2; sin^2 z) = cos(z/3) / cos(z).
Both run at fixed settings and refuse an argument off their domain,
nan included, with DomainError. No other module calls them:
:mod:`shenell.phase` evaluates the phase speed from its own
rearrangement of the closed form.
"""

import math

import numpy as np

from .exceptions import ConvergenceError, DomainError

# Above this argument the series needs well over a thousand terms while
# the closed form is exact and cheap.
_SERIES_CUTOFF = 0.98

# The series stops once a term falls below this fraction of the partial
# sum. Below the cutoff that takes at most 1404 terms, so the cap on terms
# only bounds the work.
_TOL = 1e-15
_MAX_TERMS = 2000


def f_series(x: float) -> float:
    """Evaluate F(1/3, 2/3; 1/2; x) by its power series, for 0 <= x < 1.

    Terms follow the recurrence

        term_{n+1} = term_n * x * (n + 1/3)(n + 2/3) / ((n + 1/2)(n + 1))

    and summation stops once a term drops below 1e-15 relative to the
    partial sum, after adding one further guard term. Arguments above
    0.98 delegate to the closed form, where the series crawls.

    The arithmetic preserves the input type: passing ``np.longdouble``
    runs the whole computation at extended precision, which identity
    checks near x = 1 need (the value grows like (1 - x)^{-1/2}, so a
    double-rounded argument alone already costs ~1e-11 there).

    Raises DomainError outside [0, 1), nan included.
    """
    if not 0.0 <= x < 1.0:  # also rejects nan
        raise DomainError(f"series argument {x!r} outside [0, 1)")
    if x > _SERIES_CUTOFF:
        if isinstance(x, np.longdouble):
            return f_closed(np.arcsin(np.sqrt(x)))
        return f_closed(math.asin(math.sqrt(x)))
    term = 1.0
    total = 1.0
    n = 0
    while n < _MAX_TERMS:
        term *= x * (n + 1.0 / 3.0) * (n + 2.0 / 3.0) / ((n + 0.5) * (n + 1.0))
        total += term
        n += 1
        if abs(term) < _TOL * abs(total):
            term *= x * (n + 1.0 / 3.0) * (n + 2.0 / 3.0) / ((n + 0.5) * (n + 1.0))
            return total + term
    raise ConvergenceError(f"series at x={x!r} did not meet tol={_TOL} within {_MAX_TERMS} terms")


def f_closed(z: float) -> float:
    """Closed form cos(z/3) / cos(z), valid for |z| < pi/2.

    Type-preserving like :func:`f_series`. Raises DomainError elsewhere,
    nan included.
    """
    if not abs(z) < math.pi / 2.0:  # also rejects nan
        raise DomainError(f"closed form requires |z| < pi/2, got {z!r}")
    if isinstance(z, np.longdouble):
        return np.cos(z / 3.0) / np.cos(z)
    return math.cos(z / 3.0) / math.cos(z)


def triplication_residual(z: float) -> float:
    """Residual of the triplication formula 4 cos^3(z/3) - 3 cos(z/3) = cos z."""
    c = math.cos(z / 3.0)
    return 4.0 * c * c * c - 3.0 * c - math.cos(z)
