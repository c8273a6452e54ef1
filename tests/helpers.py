"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own evaluation paths:
hypergeometric values come from scipy's hyp2f1, integrals from scipy's
QUADPACK or mpmath's tanh-sinh rule, wp values from the classical
Jacobi-sn representation in mpmath, and periods from Carlson symmetric
integrals over the roots of the exact rational invariants. The package
must agree with these, not the other way around.
"""

import math
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from scipy import integrate as scipy_integrate
from scipy.special import hyp2f1

mp.mp.dps = 30


def _quad(f, a, b, epsabs):
    # QUADPACK warns about roundoff when pushed near machine accuracy;
    # the returned error estimate is asserted by the callers instead
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy_integrate.IntegrationWarning)
        return scipy_integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsabs,
                                    limit=200)


def hyp_oracle(x):
    """F(1/3, 2/3; 1/2; x) via scipy."""
    return float(hyp2f1(1.0 / 3.0, 2.0 / 3.0, 0.5, x))


def u_oracle(k, phi):
    """The phase integral via scipy QUADPACK on the theta form."""
    value, err = _quad(lambda th: hyp_oracle(k * k * math.sin(th) ** 2),
                       0.0, phi, epsabs=1e-14)
    assert err < 1e-12
    return value


def u_oracle_t_form(k, phi):
    """The same integral in its original t form, singular endpoint and all."""
    value, err = _quad(lambda t: hyp_oracle(k * k * t * t) / math.sqrt(1.0 - t * t),
                       0.0, math.sin(phi), epsabs=1e-13)
    assert err < 1e-10
    return value


@lru_cache(maxsize=256)
def exact_cubic(k):
    """(g2, g3) and the roots of 4 t^3 - g2 t - g3, descending, for modulus k.

    The invariants are the exact rationals of the binary value of ``k``
    and the roots are found at 60 digits, so root differences of order
    k^3 (k -> 0) or sqrt(1 - k) (k -> 1) keep far more than double
    precision, unlike roots of the float-rounded g2 and g3.
    """
    k2 = Fraction(k) ** 2
    g2 = Fraction(4, 27) * (9 - 8 * k2)
    g3 = Fraction(8, 729) * (8 * k2 * k2 - 36 * k2 + 27)
    with mp.workdps(60):
        g2, g3 = (mp.mpf(x.numerator) / x.denominator for x in (g2, g3))
        roots = mp.polyroots([4, 0, -g2, -g3], maxsteps=200, extraprec=200)
        return (g2, g3), tuple(sorted((mp.re(r) for r in roots), reverse=True))


@lru_cache(maxsize=64)
def quartic_roots(k):
    """Roots of 12 z^4 - 6 g2 z^2 - 12 g3 z - g2^2/4 at 60 digits.

    The invariants are the exact rationals of the binary value of ``k``,
    so the three roots that close in on -1/3 as k -> 0 stay resolved.
    """
    (g2, g3), _ = exact_cubic(k)
    with mp.workdps(60):
        return tuple(mp.polyroots([12, 0, -6 * g2, -12 * g3, -g2 * g2 / 4],
                                  maxsteps=500, extraprec=300))


def mp_roots(k):
    """Roots of 4 t^3 - g2 t - g3 at 60 digits, descending."""
    return exact_cubic(k)[1]


def periods_carlson(k):
    """(K, K') from Carlson R_F on the exact-rational root differences."""
    e1, e2, e3 = mp_roots(k)
    with mp.workdps(60):
        return (float(mp.elliprf(0, e1 - e2, e1 - e3)),
                float(mp.elliprf(0, e1 - e3, e2 - e3)))


def periods_raw_quadrature(k):
    """(K, K') by tanh-sinh quadrature of the raw period integrals."""
    (g2, g3), (e1, e2, e3) = exact_cubic(k)
    # near the endpoint roots the cubic can round slightly negative; the
    # integrals are real, so keep the real part
    big_k = mp.quad(lambda t: mp.re(1 / mp.sqrt(mp.mpc(4 * t ** 3 - g2 * t - g3))),
                    [e1, e1 + 2, mp.inf])
    big_kp = mp.quad(lambda t: mp.re(1 / mp.sqrt(mp.mpc(-(4 * t ** 3 - g2 * t - g3)))),
                     [mp.ninf, e3 - 2, e3])
    return float(mp.re(big_k)), float(mp.re(big_kp))


def wp_oracle_factory(k):
    """wp via the Jacobi representation e3 + (e1 - e3) / sn^2(z sqrt(e1 - e3))."""
    e1, e2, e3 = mp_roots(k)
    m = (e2 - e3) / (e1 - e3)
    scale = mp.sqrt(e1 - e3)

    def oracle(z):
        sn = mp.ellipfun("sn", mp.mpc(z) * scale, m)
        return complex(e3 + (e1 - e3) / sn ** 2)

    return oracle


def q_oracle_factory(k):
    """Q = wp + 1/3 at 60 digits, by the Jacobi representation of wp_oracle_factory.

    Q is of order k^2 near the poles of d and in the band near iK', so the
    1/3 is added before the value is rounded to a double.
    """
    e1, e2, e3 = mp_roots(k)

    def oracle(z):
        with mp.workdps(60):
            sn = mp.ellipfun("sn", mp.mpc(z) * mp.sqrt(e1 - e3), (e2 - e3) / (e1 - e3))
            return complex(e3 + mp.mpf(1) / 3 + (e1 - e3) / sn ** 2)

    return oracle


def sc_oracle_factory(k):
    """s c = -(2 + d) wp' / (6 Q^2) at 60 digits, d = 1 - (4/9) k^2 / Q.

    Q and wp' = -2 (e1 - e3)^(3/2) cn dn / sn^3 come from the Jacobi
    representation of ``q_oracle_factory``.
    """
    e1, e2, e3 = mp_roots(k)

    def oracle(z):
        with mp.workdps(60):
            scale = mp.sqrt(e1 - e3)
            w, m = mp.mpc(z) * scale, (e2 - e3) / (e1 - e3)
            sn, cn, dn = (mp.ellipfun(name, w, m) for name in ("sn", "cn", "dn"))
            q = e3 + mp.mpf(1) / 3 + (e1 - e3) / sn ** 2
            dp = -2 * (e1 - e3) * scale * cn * dn / sn ** 3
            d = 1 - mp.mpf(4) / 9 * mp.mpf(k) ** 2 / q
            return complex(-(2 + d) * dp / (6 * q * q))

    return oracle


def phi_oracle(k, u):
    """The phi with u(phi) = u, by bracketed root finding on the defining integral.

    The integral is mpmath's tanh-sinh rule at 30 digits over the closed
    form F(1/3, 2/3; 1/2; sin^2 z) = cos(z/3) / cos(z), z = asin(k sin(theta)),
    and the root is bracketed by [0, pi/2].
    """
    k = mp.mpf(k)

    def speed(theta):
        z = mp.asin(k * mp.sin(theta))
        return mp.cos(z / 3) / mp.cos(z)

    phi = mp.findroot(lambda phi: mp.quad(speed, [0, phi]) - abs(u),
                      (mp.mpf(0), mp.pi / 2), solver="anderson")
    return phi if u >= 0 else -phi
