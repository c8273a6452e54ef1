"""Elliptic functions built from the hypergeometric function F(1/3, 2/3; 1/2; .).

The construction follows Li-Chien Shen's analogue of the Jacobi theory:
a phase map u(phi) defined by an incomplete integral of
F(1/3, 2/3; 1/2; k^2 t^2) yields functions s, c, d; d extends to an
elliptic function 1 - (4/9) k^2 (wp + 1/3)^{-1} of order two whose poles
sit at +-(2/3) i K', and the package certifies every identity involved
numerically or in exact rational arithmetic.
"""

from .exceptions import (ClassificationError, ConvergenceError, DegenerateError,
                         DomainError, PoleError, RangeError, ShenError)
from .field import (D_POLE_TOL, c_squared, cubic_relation_residual, d_complex,
                    d_ode_residual, pole_order_slope, s_squared, sc_product,
                    substitution_chain_check)
from .hypergeometric import f_closed, f_series, triplication_residual
from .phase import (Modulus, ScdTriple, derivative_residuals, phase_speed,
                    phi_of_u, scd_real, u_max, u_of_phi)
from .poles import (DiscriminantPair, RationalPoly, RootClassification,
                    certify_pole, classify_quartic_roots, cubic_discriminant,
                    cubic_factor, factorization_check, invariants_exact,
                    quartic_f)
from .quadrature import integrate
from .verify import (SUITES, VerificationReport, available_suites,
                     default_tolerance, run_suite, run_suites)
from .weierstrass import (POLE_EXCLUSION, Invariants, Lattice, ShenContext,
                          duplication_check, exact_invariants, invariants_of_modulus,
                          lattice_of_invariants, q_with_prime, reduce_to_cell, wp,
                          wp_prime, wp_with_prime)

__version__ = "0.1.0"

__all__ = [
    "ClassificationError", "ConvergenceError", "DegenerateError", "DomainError",
    "PoleError", "RangeError", "ShenError",
    "f_closed", "f_series", "triplication_residual", "integrate",
    "Modulus", "ScdTriple", "derivative_residuals", "phase_speed", "phi_of_u",
    "scd_real", "u_max", "u_of_phi",
    "POLE_EXCLUSION", "Invariants", "Lattice", "ShenContext", "duplication_check",
    "exact_invariants", "invariants_of_modulus", "lattice_of_invariants",
    "q_with_prime", "reduce_to_cell", "wp", "wp_prime", "wp_with_prime",
    "D_POLE_TOL", "c_squared", "cubic_relation_residual", "d_complex",
    "d_ode_residual", "pole_order_slope", "s_squared", "sc_product",
    "substitution_chain_check",
    "DiscriminantPair", "RationalPoly", "RootClassification", "certify_pole",
    "classify_quartic_roots", "cubic_discriminant", "cubic_factor",
    "factorization_check", "invariants_exact", "quartic_f",
    "SUITES", "VerificationReport", "available_suites", "default_tolerance",
    "run_suite", "run_suites",
    "__version__",
]
