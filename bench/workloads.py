"""Seeded inputs, operations and in-process output checks for each workload.

Imported by the child process only (``bench/child.py``), after the
library. Every call into the library goes through a module attribute
(``verify.run_suite``, not a name bound at import time), so that the
tracer's wrappers see the benchmark's own calls too.

A workload hands out passes: lists of ``Op``, each a zero-argument
callable with a ``label`` naming its input. Every pass but certify's draws
fresh inputs from the same strata, so a run averages over many draws and
its figures depend little on the seed. Inputs depend on the seed and the
pass index only; the library sees nothing but the generated values. ``check``
judges one output in-process; ``record`` keeps what the external
oracles in ``oracles.py`` need.
"""

import json
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from shenell import cli, field, phase, poles, verify

#: The pole bound that ``certify_pole`` is certified against.
POLE_BOUND = 1e-10


class Op(NamedTuple):
    label: tuple
    call: Callable


PASS, SWEEP = 0, 1           # stream tags: inputs of a timed pass, of the sweep


def _rng(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _jittered(centers, spacing, rng, share=0.1):
    """One value per center, moved by at most ``share`` of ``spacing``."""
    return [c + spacing * rng.uniform(-share, share) for c in centers]


def _log_k(lo, hi, count, rng):
    """``count`` moduli log-spaced in k over [lo, hi], each jittered within its stratum."""
    step = (math.log(hi) - math.log(lo)) / count
    centers = [math.log(lo) + step * (i + 0.5) for i in range(count)]
    return [math.exp(x) for x in _jittered(centers, step, rng)]


def _log_one_minus_k(lo, hi, count, rng):
    """``count`` moduli with 1 - k log-spaced over [lo, hi], each jittered."""
    return [1.0 - q for q in _log_k(lo, hi, count, rng)]


def agm(a, b):
    for _ in range(64):      # converges quadratically; the cap only guards rounding cycles
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def half_periods(k):
    """(K, K') of Shen's lattice, independent of the library.

    The cubic's root differences come from the trigonometric solution with
    the angle taken from the exact discriminant, and the periods from the
    Jacobi complete integral by the arithmetic-geometric mean.
    """
    k2 = Fraction(k) ** 2
    g2 = float(Fraction(4, 27) * (9 - 8 * k2))
    g3 = float(Fraction(8, 729) * (8 * k2 * k2 - 36 * k2 + 27))
    delta = float(Fraction(4096, 19683) * k2 ** 3 * (1 - k2))
    third = math.atan2(math.sqrt(delta), 3.0 * math.sqrt(3.0) * g3) / 3.0
    scale = math.sqrt(3.0) * 2.0 * math.sqrt(g2 / 12.0)
    d13 = scale * math.sin(math.pi / 3.0 + third)
    d23 = scale * math.sin(third)
    m = d23 / d13
    root = math.sqrt(d13)
    return (math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - m))) / root,
            math.pi / (2.0 * agm(1.0, math.sqrt(m))) / root)


def u_max(k):
    """Largest real u of the principal branch, (pi/2) F(1/3, 2/3; 1; k^2).

    Computed with Borwein's cubic AGM, 1 / AG3(1, s) = F(1/3, 2/3; 1; 1 - s^3),
    independent of the library.
    """
    a, b = 1.0, (1.0 - k * k) ** (1.0 / 3.0)
    for _ in range(64):      # converges cubically; the cap only guards rounding cycles
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = (a + 2.0 * b) / 3.0, (b * (a * a + a * b + b * b) / 3.0) ** (1.0 / 3.0)
    return 0.5 * math.pi / a


class Certify:
    """Every suite over two dozen moduli, then the JSON report: ``shenell verify``."""

    name = "certify"
    # Fixed moduli: 16 spread over [0.06, 0.85], where the suites are cheap,
    # which keeps the latency percentiles inside groups of similar ops, and
    # 6 with 1 - k log-spaced down to 0.01, which carry most of the time.
    # They are fixed because any modulus changes the suites' own samples,
    # and random moduli in [0.10, 0.21] fail ``d-ode`` about once in 250;
    # the seed shuffles the order of the ops. The sweep carries the
    # failures: ``pole`` below 0.036, a modulus where ``d-ode`` fails, and
    # random moduli over [0.05, 0.9] (see README).
    MODULI = tuple(float(k) for k in np.concatenate(
        [np.linspace(0.06, 0.85, 16), 1.0 - np.geomspace(0.12, 0.01, 6)]))
    SWEEP_K = (0.01, 0.02, 0.03, 0.04)
    D_ODE_FAILS_AT = 0.16866392716532072
    SWEEP_RANDOM = (0.05, 0.9, 6)

    def __init__(self, seed):
        self.seed = seed

    @staticmethod
    def _ops(moduli, with_json):
        reports = []

        def suite(name, k):
            def call():
                report = verify.run_suite(name, k)
                reports.append(report)
                return report
            return Op(("suite", name, k), call)

        ops = [suite(name, k) for k in moduli for name in verify.available_suites()]
        if with_json:
            ops.append(Op(("json", len(ops)), lambda: cli.reports_to_json(reports)))
        return ops

    def pass_ops(self, index):
        ops = self._ops(self.MODULI, with_json=True)
        order = _rng(self.seed, 1, PASS, index).permutation(len(ops) - 1)
        return [ops[i] for i in order] + ops[-1:]

    def sweep_ops(self):
        rng = _rng(self.seed, 1, SWEEP)
        lo, hi, count = self.SWEEP_RANDOM
        moduli = (_jittered(self.SWEEP_K, 0.01, rng) + [self.D_ODE_FAILS_AT]
                  + list(rng.uniform(lo, hi, count)))
        return self._ops([float(k) for k in moduli], with_json=False)

    def warmup(self):
        verify.run_suite("pole", 0.5)

    @staticmethod
    def record(label, out):
        return None

    @staticmethod
    def check(label, out):
        if label[0] == "suite":
            _, name, k = label
            if (out.identity_name, out.k) != (name, k):
                return f"report for {out.identity_name}@{out.k} under {name}@{k}"
            if not out.passed:
                return (f"{name} at k={k!r} FAILS: residual {out.max_residual:.3e} "
                        f">= {out.tolerance:.1e}")
            return None
        items = json.loads(out)
        if len(items) != label[1] or not all(item["passed"] for item in items):
            return "reports_to_json lost a report or a PASS"
        return None


class Grid:
    """Rows of ``shenell sample`` for all five functions over a full period cell."""

    name = "grid"
    FUNCTIONS = ("d", "s2", "c2", "sc", "wp")
    RE_POINTS = 61           # 0 .. 2K, lattice points at both ends
    IM_STEPS = 30            # 0 .. 2K'; a multiple of 3, so rows hit (2/3) K', (4/3) K'
    MODULI = (0.3, 0.7)

    def __init__(self, seed):
        self.seed = seed
        self.re_axes = {}        # k -> real axis, for the checks of the current pass

    def pass_ops(self, index):
        ops = []
        self.re_axes = {}
        for k in _jittered(self.MODULI, 0.5, _rng(self.seed, 2, PASS, index)):
            k = float(k)
            big_k, big_kp = half_periods(k)
            re_axis = [i * (2.0 * big_k / (self.RE_POINTS - 1)) for i in range(self.RE_POINTS)]
            im_axis = [j * (2.0 * big_kp / self.IM_STEPS) for j in range(self.IM_STEPS + 1)]
            self.re_axes[k] = re_axis
            for fn in self.FUNCTIONS:
                for j, im in enumerate(im_axis):
                    def call(k=k, fn=fn, re_axis=re_axis, im=im):
                        return cli.sample_grid_to_csv(
                            cli.build_sample_grid(k, fn, re_axis, [im]))
                    ops.append(Op(("row", k, fn, j, im), call))
        return ops

    def sweep_ops(self):
        return []

    def warmup(self):
        cli.sample_grid_to_csv(cli.build_sample_grid(0.5, "d", [0.1, 0.2], [0.3]))

    @staticmethod
    def record(label, out):
        """The modulus, the function and the CSV, for the external oracle."""
        return [label[1], label[2], out]

    def expected_poles(self, fn, j):
        """Indices on row ``j`` where ``fn`` has a pole that the CSV must flag.

        wp: the lattice points (both ends of rows 0 and IM_STEPS). d, s2,
        c2: +-(2/3) i K' and their translates (both ends of rows IM_STEPS/3
        and 2 IM_STEPS/3). sc flags none (see ``check``).
        """
        ends = {0, self.RE_POINTS - 1}
        if fn == "wp":
            return ends if j in (0, self.IM_STEPS) else set()
        if fn in ("d", "s2", "c2"):
            return ends if j in (self.IM_STEPS // 3, 2 * self.IM_STEPS // 3) else set()
        return set()

    def check(self, label, out):
        _, k, fn, j, im = label
        re_axis = self.re_axes[k]
        where = f"{fn} row {j} at k={k!r}"
        lines = out.splitlines()
        if lines[0] != "re_z,im_z,re_f,im_f,is_pole" or len(lines) != len(re_axis) + 1:
            return f"{where}: bad CSV shape"
        flagged = set()
        d_poles = self.expected_poles("d", j)
        for i, line in enumerate(lines[1:]):
            re, im_text, ref, imf, pole = line.split(",")
            if float(re) != re_axis[i] or float(im_text) != im:
                return f"{where}: coordinates do not round-trip at {i}"
            if pole == "1":
                flagged.add(i)
            elif fn == "sc" and i in d_poles and abs(complex(float(ref), float(imf))) < 1e8:
                # sc is a central difference of (d + 2)^2 and never raises
                # PoleError at the pole; the pole must at least show as a
                # huge value there
                return f"{where}: sc at the pole of d is only {ref}"
        if flagged != self.expected_poles(fn, j):
            return f"{where}: is_pole at {sorted(flagged)}"
        return None


class RealAxis:
    """s, c, d at real u, moduli log-spaced in k and in 1 - k."""

    name = "realaxis"
    # more moduli above 0.5 than below, so the median op lies inside the
    # upper group rather than on the edge between the two
    LOW_K = (1e-6, 0.5, 16)
    HIGH_ONE_MINUS_K = (0.5, 3e-3, 24)
    U_PER_K = 4
    U_SHARE = 0.98           # |u| <= 0.98 u_max
    SWEEP_ONE_MINUS_K = (3e-3, 1e-6, 12)

    def __init__(self, seed):
        self.seed = seed

    def _u_values(self, k, count, rng):
        # one |u| per stratum of [0, U_SHARE u_max), random sign
        top = self.U_SHARE * u_max(k)
        return [float(top * (j + rng.uniform(0.0, 1.0)) / count * rng.choice((-1.0, 1.0)))
                for j in range(count)]

    @staticmethod
    def _ops(inputs):
        return [Op(("scd", k, u), lambda k=k, u=u: phase.scd_real(k, u)) for k, u in inputs]

    def pass_ops(self, index):
        rng = _rng(self.seed, 3, PASS, index)
        moduli = _log_k(*self.LOW_K, rng) + _log_one_minus_k(*self.HIGH_ONE_MINUS_K, rng)
        return self._ops([(k, u) for k in moduli for u in self._u_values(k, self.U_PER_K, rng)])

    def sweep_ops(self):
        rng = _rng(self.seed, 3, SWEEP)
        moduli = _log_one_minus_k(*self.SWEEP_ONE_MINUS_K, rng)
        return self._ops([(k, self._u_values(k, 1, rng)[0]) for k in moduli])

    def warmup(self):
        phase.scd_real(0.5, 0.3)

    @staticmethod
    def record(label, out):
        """k, u, s, c, d, for the external oracle."""
        return [label[1], label[2], *out]

    @staticmethod
    def check(label, out):
        s, c, d = out
        if not (abs(s * s + c * c - 1.0) < 1e-13 and 0.0 < d <= 1.0
                and math.copysign(1.0, s) == math.copysign(1.0, label[2])):
            return f"scd_real{label[1:]} = {tuple(out)}"
        return None


def pole_op(k):
    """One fresh modulus: its lattice, the pole, the exact factorization, the roots."""
    ctx = field.ShenContext.from_modulus(k)
    residual = poles.certify_pole(ctx)
    exact = poles.factorization_check(Fraction(k) ** 2)
    roots = poles.classify_quartic_roots(k)
    return residual, exact, roots


class PoleSweep:
    """The paper's headline theorem at fresh moduli across the whole interval."""

    name = "pole-sweep"
    LOW_K = (0.05, 0.5, 60)
    HIGH_ONE_MINUS_K = (0.5, 1e-9, 60)
    # below 0.036 the seed commit raises ValueError or misses the bound
    SWEEP_K = (1e-6, 0.05, 40)

    def __init__(self, seed):
        self.seed = seed

    @staticmethod
    def _ops(moduli):
        return [Op(("pole", k), lambda k=k: pole_op(k)) for k in moduli]

    def pass_ops(self, index):
        rng = _rng(self.seed, 4, PASS, index)
        return self._ops(_log_k(*self.LOW_K, rng) + _log_one_minus_k(*self.HIGH_ONE_MINUS_K, rng))

    def sweep_ops(self):
        return self._ops(_log_k(*self.SWEEP_K, _rng(self.seed, 4, SWEEP)))

    def warmup(self):
        pole_op(0.5)

    @staticmethod
    def record(label, out):
        return None

    @staticmethod
    def check(label, out):
        residual, exact, roots = out
        k = label[1]
        if not residual < POLE_BOUND:
            return f"|wp((2/3) i K') + 1/3| = {residual:.3e} at k={k!r}"
        if exact is not True:
            return f"factorization_check is {exact!r} at k={k!r}"
        low, high = roots.complex_pair
        if not (roots.minus_one_third == -1.0 / 3.0 and roots.real_positive > 0.0
                and high == low.conjugate() and low.imag != 0.0):
            return f"root pattern {roots.roots!r} at k={k!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (Certify, Grid, RealAxis, PoleSweep)}
