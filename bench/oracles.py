"""External oracles, run in the parent process after the measured child exits.

They use scipy and mpmath only, never the library: wp from the Jacobi sn
representation at 30 digits, and the phase integral from QUADPACK over
scipy's hyp2f1. Each returns the list of rejected outputs, as strings.
"""

import math
import random
import warnings
from fractions import Fraction

#: The library's wp is held to 1e-9 * max(1, |wp|) against this oracle, as
#: in its own tests; d, s2, c2 and sc may carry that error times their
#: sensitivity to wp, plus 1e-12 relative rounding.
WP_TOL = 1e-9
ROUNDING = 1e-12
#: sc is a central difference of (d + 2)^2 with this step, so the wp
#: error reaches it divided by the step; its truncation error gets a
#: relative margin of SC_TRUNCATION
SC_STEP = 1e-6
SC_TRUNCATION = 1e-6
#: points where |wp| or |d| is large sit in a pole's neighbourhood, which
#: the CSV pole pattern covers; the values there are not compared
NEAR_POLE = 0.05
U_TOL = 1e-10            # |u(phi) - u| from the phase integral, relative to max(1, |u|)
D_TOL = 1e-12            # |d F(k^2 s^2) - 1|

GRID_ROWS_PER_FUNCTION = 2
GRID_POINTS_PER_ROW = 3
REALAXIS_SAMPLES = 40


def _wp_oracle(k):
    """z -> (wp(z), wp'(z)) through e3 + (e1 - e3) / sn^2(z sqrt(e1 - e3) | m)."""
    import mpmath as mp
    mp.mp.dps = 30
    k2 = Fraction(k) ** 2
    g2 = Fraction(4, 27) * (9 - 8 * k2)
    g3 = Fraction(8, 729) * (8 * k2 * k2 - 36 * k2 + 27)
    coefficients = [mp.mpf(4), 0, -mp.mpf(g2.numerator) / g2.denominator,
                    -mp.mpf(g3.numerator) / g3.denominator]
    e1, e2, e3 = sorted((mp.re(r) for r in mp.polyroots(coefficients, maxsteps=200,
                                                         extraprec=100)), reverse=True)
    m = (e2 - e3) / (e1 - e3)
    scale = mp.sqrt(e1 - e3)

    def oracle(z):
        w = mp.mpc(z) * scale
        sn, cn, dn = (mp.ellipfun(name, w, m) for name in ("sn", "cn", "dn"))
        return (complex(e3 + (e1 - e3) / sn ** 2),
                complex(-2 * (e1 - e3) * scale * cn * dn / sn ** 3))

    return oracle


def _expected(fn, k, p, dp):
    d = 1.0 - (4.0 / 9.0) * k * k / (p + 1.0 / 3.0)
    s2 = (1.0 - d) * (2.0 + d) ** 2 / (4.0 * k * k)
    if fn == "wp":
        return p
    if fn == "d":
        return d
    if fn == "s2":
        return s2
    if fn == "c2":
        return 1.0 - s2
    d_prime = (4.0 / 9.0) * k * k * dp / (p + 1.0 / 3.0) ** 2
    return -(3.0 / (8.0 * k * k)) * (2.0 + d) * d_prime


def _allowed(fn, k, p, dp, want):
    """Error allowed for ``fn`` when the library's wp is off by WP_TOL."""
    eps = WP_TOL * max(1.0, abs(p))
    if fn == "sc":
        def square(q):
            return (3.0 - (4.0 / 9.0) * k * k / (q + 1.0 / 3.0)) ** 2
        noise = 3.0 / (16.0 * k * k) * abs(square(p + eps) - square(p)) / SC_STEP
        return noise + SC_TRUNCATION * max(1.0, abs(want))
    return abs(_expected(fn, k, p + eps, dp) - want) + ROUNDING * max(1.0, abs(want))


def check_grid(records, seed):
    """Compare sampled CSV values with the mpmath wp oracle."""
    pick = random.Random(seed)
    by_key = {}
    for k, fn, text in records:
        by_key.setdefault((k, fn), []).append(text)
    oracles = {}
    rejected = []
    for (k, fn), rows in sorted(by_key.items()):
        if k not in oracles:
            oracles[k] = _wp_oracle(k)
        oracle = oracles[k]
        for text in pick.sample(rows, GRID_ROWS_PER_FUNCTION):
            lines = text.splitlines()[1:]
            for line in pick.sample(lines, GRID_POINTS_PER_ROW):
                re, im, ref, imf, pole = line.split(",")
                if pole == "1":
                    continue
                p, dp = oracle(complex(float(re), float(im)))
                if abs(p) > 1.0 / NEAR_POLE or abs(p + 1.0 / 3.0) < NEAR_POLE:
                    continue
                want = _expected(fn, k, p, dp)
                got = complex(float(ref), float(imf))
                if not abs(got - want) <= _allowed(fn, k, p, dp, want):
                    rejected.append(f"{fn}({re}+{im}i) at k={k!r}: {got!r} vs oracle {want!r}")
    return rejected


def check_realaxis(records, seed):
    """u(phi(u)) by QUADPACK over scipy's hyp2f1, and d = 1 / F(k^2 s^2)."""
    from scipy import integrate
    from scipy.special import hyp2f1

    def hyp(x):
        return float(hyp2f1(1.0 / 3.0, 2.0 / 3.0, 0.5, x))

    rejected = []
    for k, u, s, c, d in random.Random(seed).sample(records, min(REALAXIS_SAMPLES, len(records))):
        phi = math.atan2(s, c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            value, _ = integrate.quad(lambda t: hyp(k * k * math.sin(t) ** 2), 0.0, abs(phi),
                                      epsabs=1e-14, epsrel=1e-14, limit=200)
        u_back = math.copysign(value, phi)
        if not abs(u_back - u) <= U_TOL * max(1.0, abs(u)):
            rejected.append(f"scd_real({k!r}, {u!r}): u(phi) = {u_back!r}")
        if not abs(d * hyp(k * k * s * s) - 1.0) <= D_TOL:
            rejected.append(f"scd_real({k!r}, {u!r}): d = {d!r} is not 1 / F(k^2 s^2)")
    return rejected


CHECKS = {"grid": check_grid, "realaxis": check_realaxis}
