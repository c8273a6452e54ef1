"""The Gauss hypergeometric function F(1/3, 2/3; 1/2; x) on [0, 1).

The paper's starting point, as the power series with term recurrence
and as the closed form F(1/3, 2/3; 1/2; sin^2 z) = cos(z/3) / cos(z).
No other module calls them: :mod:`shenell.phase` evaluates the phase
speed from its own rearrangement of the closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DomainError

# Above this argument the series needs well over a thousand terms while
# the closed form is exact and cheap.
_SERIES_CUTOFF = 0.98


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the power series."""

    tol: float = 1e-15
    max_terms: int = 2000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


_DEFAULT = SeriesConfig()


def f_series(x: float, cfg: SeriesConfig = _DEFAULT) -> float:
    """Evaluate F(1/3, 2/3; 1/2; x) by its power series, for 0 <= x < 1.

    Terms follow the recurrence

        term_{n+1} = term_n * x * (n + 1/3)(n + 2/3) / ((n + 1/2)(n + 1))

    and summation stops once a term drops below ``cfg.tol`` relative to
    the partial sum, after adding one further guard term. Arguments above
    0.98 delegate to the closed form, where the series crawls.

    The arithmetic preserves the input type: passing ``np.longdouble``
    runs the whole computation at extended precision, which identity
    checks near x = 1 need (the value grows like (1 - x)^{-1/2}, so a
    double-rounded argument alone already costs ~1e-11 there).

    Raises DomainError outside [0, 1) and ConvergenceError if
    ``cfg.max_terms`` terms do not reach the tolerance.
    """
    if x < 0.0 or x >= 1.0:
        raise DomainError(f"series argument {x!r} outside [0, 1)")
    if x > _SERIES_CUTOFF:
        if isinstance(x, np.longdouble):
            return f_closed(np.arcsin(np.sqrt(x)))
        return f_closed(math.asin(math.sqrt(x)))
    term = 1.0
    total = 1.0
    n = 0
    while n < cfg.max_terms:
        term *= x * (n + 1.0 / 3.0) * (n + 2.0 / 3.0) / ((n + 0.5) * (n + 1.0))
        total += term
        n += 1
        if abs(term) < cfg.tol * abs(total):
            if n < cfg.max_terms:
                term *= x * (n + 1.0 / 3.0) * (n + 2.0 / 3.0) / ((n + 0.5) * (n + 1.0))
                total += term
            return total
    raise ConvergenceError(
        f"series at x={x!r} did not meet tol={cfg.tol} within {cfg.max_terms} terms")


def f_closed(z: float) -> float:
    """Closed form cos(z/3) / cos(z), valid for |z| < pi/2.

    Type-preserving like :func:`f_series`.
    """
    if abs(z) >= math.pi / 2.0:
        raise DomainError(f"closed form requires |z| < pi/2, got {z!r}")
    if isinstance(z, np.longdouble):
        return np.cos(z / 3.0) / np.cos(z)
    return math.cos(z / 3.0) / math.cos(z)


def triplication_residual(z: float) -> float:
    """Residual of the triplication formula 4 cos^3(z/3) - 3 cos(z/3) = cos z."""
    c = math.cos(z / 3.0)
    return 4.0 * c * c * c - 3.0 * c - math.cos(z)
