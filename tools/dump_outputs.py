"""Hash the package's outputs, one sha256 per section, for a before/after comparison.

    python3 tools/dump_outputs.py SRC_DIR
    python3 tools/dump_outputs.py OLD_SRC NEW_SRC

SRC_DIR is the ``src`` directory whose ``shenell`` is imported, so one copy
of this script measures two checkouts: run it on each and compare the
lines. The compare form imports both in turn and prints, per section,
``same`` or the number of lines that differ; for ``verify`` it also
prints every verdict that flips and, per suite, the largest relative
change of ``max_residual``. The sections are

* ``sample``: the ``sample`` CSV of d, s2, c2, sc and wp on a 61 x 31 grid
  over the period cell [-K, K] x [-K', K'] at k = 0.05, 0.3, 0.7, 0.99;
* ``verify``: the ``verify --json`` text of all suites at 41 moduli: the
  22 of the benchmark's ``certify`` workload, 12 log-spaced in
  [1e-6, 0.05] and 7 more with 1 - k log-spaced in [5e-5, 1e-2] (the
  eighth, 0.99, is the last certify modulus);
* one section per number path, ``scd_real``, ``phi_of_u``, ``u_of_phi``,
  ``wp_with_prime`` and ``duplication_check``, at 100 seeded points (k
  drawn from the 41 moduli) plus a few fixed ones: phi = +-0 at the
  first 5 moduli and u(1.0651558848623712) at k = 0.998317992620744, a
  point where the integral is sensitive to the order of its sums, for
  ``u_of_phi``; the three half-periods at the first 5 moduli for
  ``duplication_check``;
* ``constants``: what a context derives from k, at the 41 moduli (both
  lattice orientations): the ``repr`` of ``lattice_of_invariants``, the
  Q roots, and ``q_with_prime`` and ``reduce_to_cell`` at 7 fixed points
  of the cell and beyond it, as numbers and as one 1-D array;
* ``fixed_settings``: the functions that run at a fixed tolerance, budget
  or step, at 40 seeded points each: ``f_series`` on [0, 1) (as double
  and as long double), ``f_closed`` on (-pi/2, pi/2), ``integrate`` of
  three integrands over seeded intervals, and ``derivative_residuals``
  at k drawn from the 41 moduli; plus the edges: the series cutoff
  0.98, the integrand that stalls the quadrature, and nan and inf.

A value is written as its repr, an exception as its type name, so a
section hashes the same exactly when every double and every error does.
``sections`` returns the texts for a closer look at a differing section.
"""

import ast
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

CERTIFY_MODULI = [float(k) for k in np.concatenate(
    [np.linspace(0.06, 0.85, 16), 1.0 - np.geomspace(0.12, 0.01, 6)])]
# 0.99 ends both the certify moduli and the near-one ones; it is run once
MODULI = list(dict.fromkeys(CERTIFY_MODULI + [float(k) for k in np.geomspace(1e-6, 0.05, 12)]
                            + [1.0 - float(q) for q in np.geomspace(5e-5, 1e-2, 8)]))
SAMPLE_MODULI = (0.05, 0.3, 0.7, 0.99)
SAMPLE_FUNCTIONS = ("d", "s2", "c2", "sc", "wp")
POINTS = 100
# (x, y) of the points x K + i y K' of the constants section: the cell, a
# lattice point, a pole of d, a corner and a point two periods out
CELL_POINTS = ((0.3, 0.4), (-0.7, 0.1), (0.9, -0.8), (0.0, 0.0), (0.0, 2.0 / 3.0), (1.0, 1.0),
               (3.3, 2.7))


def _value(call):
    try:
        value = call()
    except Exception as exc:  # the type of any failure is part of the output
        return type(exc).__name__
    return repr(tuple(value) if isinstance(value, tuple) else value)


def _sample(sh, cli):
    parts = []
    for k in SAMPLE_MODULI:
        lat = sh.ShenContext.from_modulus(k).lat
        re_axis = np.linspace(-lat.K, lat.K, 61).tolist()
        im_axis = np.linspace(-lat.K_prime, lat.K_prime, 31).tolist()
        for fn in SAMPLE_FUNCTIONS:
            grid = cli.build_sample_grid(k, fn, re_axis, im_axis)
            parts.append(f"# k={k!r} fn={fn}\n{cli.sample_grid_to_csv(grid)}")
    return "".join(parts)


def _verify(sh, cli):
    names = sh.available_suites()
    return "".join(_value(lambda: cli.reports_to_json(sh.run_suites(names, [k]))) + "\n"
                   for k in MODULI)


def _number_paths(sh):
    rng = np.random.default_rng(20261019)
    lines = {name: [] for name in ("scd_real", "phi_of_u", "u_of_phi", "wp_with_prime",
                                   "duplication_check")}
    for _ in range(POINTS):
        k = MODULI[rng.integers(len(MODULI))]
        ctx = sh.ShenContext.from_modulus(k)
        u = float(rng.uniform(-1.0, 1.0)) * ctx.lat.K
        phi = float(rng.uniform(-1.0, 1.0)) * (math.pi / 2.0)
        z = complex(*(rng.uniform(-0.95, 0.95, 2) * [ctx.lat.K, ctx.lat.K_prime]))
        lines["scd_real"].append((k, u, _value(lambda: sh.scd_real(k, u))))
        lines["phi_of_u"].append((k, u, _value(lambda: sh.phi_of_u(k, u))))
        lines["u_of_phi"].append((k, phi, _value(lambda: sh.u_of_phi(k, phi))))
        lines["wp_with_prime"].append((k, z, _value(lambda: sh.wp_with_prime(ctx, z))))
        lines["duplication_check"].append((k, z, _value(lambda: sh.duplication_check(ctx, z))))
    k, phi = 0.998317992620744, 1.0651558848623712
    lines["u_of_phi"].append((k, phi, _value(lambda: sh.u_of_phi(k, phi))))
    for k in MODULI[:5]:
        lines["u_of_phi"] += [(k, phi, _value(lambda: sh.u_of_phi(k, phi))) for phi in (0.0, -0.0)]
        ctx = sh.ShenContext.from_modulus(k)
        big_k, big_kp = ctx.lat.K, ctx.lat.K_prime
        for a in (complex(big_k), 1j * big_kp, big_k + 1j * big_kp):
            lines["duplication_check"].append((k, a, _value(lambda: sh.duplication_check(ctx, a))))
    return {name: "".join(f"{k!r} {x!r} {value}\n" for k, x, value in rows)
            for name, rows in lines.items()}


def _constants(sh):
    def listed(value):  # arrays as lists, so that repr shows every digit
        return tuple(map(listed, value)) if isinstance(value, tuple) else value.tolist()

    lines = []
    for k in MODULI:
        lat = sh.lattice_of_invariants(sh.invariants_of_modulus(k))
        ctx = sh.ShenContext.from_modulus(k)
        zs = [complex(x * ctx.lat.K, y * ctx.lat.K_prime) for x, y in CELL_POINTS]
        lines.append(f"{k!r} {lat!r} {ctx.q_roots!r}\n")
        for f in (sh.q_with_prime, sh.reduce_to_cell):
            numbers = [_value(lambda: f(ctx, z)) for z in zs]
            array = _value(lambda: listed(f(ctx, np.array(zs))))
            lines.append(f"{k!r} {f.__name__} {' '.join(numbers)} {array}\n")
    return "".join(lines)


# (name, integrand) pairs of the fixed_settings section: smooth, oscillating
# and peaked; the last stalls at the level cap
INTEGRANDS = (("sin", math.sin), ("exp_cos", lambda x: math.exp(-x * x) * math.cos(3.0 * x)),
              ("peak", lambda x: 1.0 / math.sqrt(x * x + 1e-8)),
              ("cusp", lambda x: 1.0 / math.sqrt(abs(x) + 1e-14)))


def _fixed_settings(sh):
    rng = np.random.default_rng(20261021)
    calls = []
    for _ in range(40):
        x = float(rng.uniform(0.0, 1.0))
        z = float(rng.uniform(-1.0, 1.0)) * (math.pi / 2.0)
        a, b = (float(t) for t in rng.uniform(-3.0, 3.0, 2))
        name, f = INTEGRANDS[rng.integers(3)]
        k = MODULI[rng.integers(len(MODULI))]
        u = float(rng.uniform(-0.9, 0.9)) * sh.u_max(k)
        calls += [("f_series", (x,)), ("f_series", (np.longdouble(x),)), ("f_closed", (z,)),
                  ("integrate", (name, a, b)), ("derivative_residuals", (k, u))]
    calls += [("f_series", (x,)) for x in (0.0, 0.98, 0.9800000000000001, math.nan)]
    calls += [("f_closed", (z,)) for z in (0.0, -1.5, math.nan, math.inf)]
    calls += [("integrate", ("cusp", -1.0, 1.0)), ("integrate", ("sin", 0.0, math.nan)),
              ("integrate", ("sin", 0.0, math.inf))]
    integrands = dict(INTEGRANDS)

    def call(name, args):
        if name == "integrate":
            return sh.integrate(integrands[args[0]], *args[1:])
        return getattr(sh, name)(*args)

    return "".join(f"{name} {args!r} {_value(lambda: call(name, args))}\n"
                   for name, args in calls)


def sections(src):
    """Section name -> output text, from the ``shenell`` under the directory ``src``."""
    path = str(Path(src).resolve())
    for name in [name for name in sys.modules if name.split(".")[0] == "shenell"]:
        del sys.modules[name]  # a second checkout is imported afresh
    sys.path.insert(0, path)
    try:
        import shenell as sh
        from shenell import cli

        return {"sample": _sample(sh, cli), "verify": _verify(sh, cli), **_number_paths(sh),
                "constants": _constants(sh), "fixed_settings": _fixed_settings(sh)}
    finally:
        sys.path.remove(path)


def _reports(text):
    # (suite, k) -> (max_residual, passed) from the lines of a verify section;
    # a line that holds an exception's type name has none
    reports = {}
    for line in text.splitlines():
        try:
            items = json.loads(ast.literal_eval(line))
        except (ValueError, SyntaxError):
            continue
        reports.update({(r["identity"], r["k"]): (r["max_residual"], r["passed"]) for r in items})
    return reports


def _relative_change(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def compare(old_src, new_src):
    """The lines the compare form prints, for the checkouts under ``old_src`` and ``new_src``."""
    old, new = sections(old_src), sections(new_src)
    lines = []
    for name, text in old.items():
        a, b = text.splitlines(), new[name].splitlines()
        differing = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        lines.append(f"{name:<18} {f'{differing} lines differ' if differing else 'same'}")
    before, after = _reports(old["verify"]), _reports(new["verify"])
    shared = [key for key in before if key in after]
    flips = [key for key in shared if before[key][1] != after[key][1]]
    lines.append(f"verify verdict flips: {len(flips)} of {len(shared)}")
    lines += [f"  {suite} k={k!r}: passed {before[suite, k][1]} -> {after[suite, k][1]}"
              for suite, k in flips]
    lines.append("verify largest relative change of max_residual:")
    for suite in sorted({suite for suite, _ in shared}):
        change = max(_relative_change(before[key][0], after[key][0])
                     for key in shared if key[0] == suite)
        lines.append(f"  {suite:<18} {change:.3g}")
    return lines


def main(argv):
    if len(argv) == 2:
        print("\n".join(compare(*argv)))
        return 0
    if len(argv) != 1:
        print("usage: python3 tools/dump_outputs.py SRC_DIR | OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    for name, text in sections(argv[0]).items():
        print(f"{name:<18} {hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
