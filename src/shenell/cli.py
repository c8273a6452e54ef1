"""Command line front end.

Usage:
    shenell invariants --k 0.5 [--json]
    shenell periods --k 0.5 [--json]
    shenell eval --k 0.5 --fn d --real 0.4 --imag 0.2 [--json]
    shenell verify --k 0.1,0.5,0.9 --suite all [--tol 1e-9] [--json]
    shenell sample --k 0.5 --fn d --real 0:0.1:1 [--imag 0:0.2:1] [--out grid.csv]

Grid specs are ``start:step:stop`` (inclusive) or a single number; specs
with a negative start need the ``--real=-1:0.5:1`` form so the shell
parser does not read them as flags. Numeric output uses the shortest
representation that round-trips a double, so re-emitting parsed output
reproduces it byte for byte. ``verify --json`` writes a residual that
is not finite as null, which reads back as nan, so its output is strict
JSON.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error:
the library checks every input, and main maps its errors to 2.
Each ``verify`` suite has a pinned default tolerance; an explicit --tol
overrides it for every selected suite.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import ShenError
from .field import BATCH_FUNCTIONS
from .verify import VerificationReport, available_suites, run_suites
from .weierstrass import ShenContext, invariants_of_modulus

#: Most points a grid spec, or a whole ``sample`` grid, may hold.
MAX_GRID_POINTS = 1_000_000

_CHUNK = 4096  # points per array pass of build_sample_grid: a few MB of work arrays

_CSV_HEADER = "re_z,im_z,re_f,im_f,is_pole\n"


class UsageError(ValueError):
    """Malformed command-line input; maps to exit code 2."""


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a double."""
    return repr(float(x))


def parse_k_list(text):
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"bad modulus list {text!r}") from exc
    if not values:
        raise UsageError("empty modulus list")
    return values


def parse_grid(spec):
    """``start:step:stop`` inclusive of both ends, or a single number.

    Every number must be finite and the grid may hold at most
    ``MAX_GRID_POINTS`` points; both are checked before the list is built.
    """
    if spec is None or spec == "":
        raise UsageError("empty grid spec")
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"grid spec {spec!r} is not start:step:stop")
    try:
        numbers = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad number in grid spec {spec!r}") from exc
    if not all(math.isfinite(x) for x in numbers):
        raise UsageError(f"non-finite number in grid spec {spec!r}")
    if len(numbers) == 1:
        return numbers
    start, step, stop = numbers
    if step == 0.0:
        if start == stop:
            return [start]
        raise UsageError(f"zero step in grid spec {spec!r}")
    span = (stop - start) / step + 1e-9
    if span < 0.0:
        raise UsageError(f"grid spec {spec!r} produces no points")
    if not span < MAX_GRID_POINTS:        # also an overflow to inf
        raise UsageError(f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(span) + 1)]


@dataclass
class SampleGrid:
    """Function samples over a separable complex grid.

    ``rows`` holds (re_z, im_z, re_f, im_f, is_pole) tuples in row-major
    order with the real axis fastest; pole rows carry None in the value
    slots. The row count always equals len(re_axis) * len(im_axis).
    """

    k: float
    function: str
    re_axis: list
    im_axis: list
    rows: list


def build_sample_grid(k, function, re_axis, im_axis) -> SampleGrid:
    """Sample ``function`` at every re + i im, in vectorised passes.

    The z-mesh is built once and passed in fixed-size chunks to the
    function itself, which takes arrays as it takes numbers; the context
    of ``k`` comes from ``ShenContext.from_modulus``. A row is a pole
    (``is_pole=1``) exactly where its value is not finite, which is where
    the function raises PoleError for a number: ``wp`` within
    POLE_EXCLUSION of a lattice point; ``d``, ``s2`` and ``c2`` where
    |Q| = |wp + 1/3| < D_POLE_TOL (8/27) k^2 (d is exactly 1 at lattice
    points); ``sc`` nowhere, so at +-(2/3) iK' it returns a huge finite
    value (and 0 at lattice points). An unknown ``function`` or more than
    MAX_GRID_POINTS points raise UsageError; a point that ``reduce_to_cell``
    refuses (non-finite, or 2^26 periods or more out) raises DomainError.
    """
    if function not in BATCH_FUNCTIONS:
        raise UsageError(f"unknown function {function!r}; choose from "
                         f"{', '.join(sorted(BATCH_FUNCTIONS))}")
    if len(re_axis) * len(im_axis) > MAX_GRID_POINTS:
        raise UsageError(f"grid of {len(re_axis)} x {len(im_axis)} points is over "
                         f"the cap of {MAX_GRID_POINTS}")
    re = np.asarray(re_axis, dtype=float)
    im = np.asarray(im_axis, dtype=float)
    ctx = ShenContext.from_modulus(k)
    z = np.empty((im.size, re.size), dtype=complex)
    z.real = re
    z.imag = im[:, None]
    z = z.ravel()
    values = np.empty_like(z)
    for i in range(0, z.size, _CHUNK):
        values[i:i + _CHUNK] = BATCH_FUNCTIONS[function](ctx, z[i:i + _CHUNK])
    pole = ~np.isfinite(values)
    coords = [(x, y) for y in im_axis for x in re_axis]
    rows = [(x, y, None, None, 1) if flag else (x, y, ref, imf, 0)
            for (x, y), ref, imf, flag in zip(coords, values.real.tolist(),
                                              values.imag.tolist(), pole.tolist())]
    return SampleGrid(k=k, function=function, re_axis=list(re_axis),
                      im_axis=list(im_axis), rows=rows)


def _csv_text(coords, rows):
    # rows as CSV, "re_z,im_z" from coords; a finite float's repr needs no quoting
    return _CSV_HEADER + "".join(
        f"{xy},,,1\n" if pole else f"{xy},{fmt(ref)},{fmt(imf)},0\n"
        for xy, (_, _, ref, imf, pole) in zip(coords, rows))


def sample_grid_to_csv(grid: SampleGrid) -> str:
    """The grid's rows as CSV, each axis value formatted once."""
    re_text = [fmt(x) for x in grid.re_axis]
    return _csv_text((f"{x},{y}" for y in map(fmt, grid.im_axis) for x in re_text), grid.rows)


def sample_grid_rows_from_csv(text: str):
    """Parse rows emitted by :func:`sample_grid_to_csv` back into numbers."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["re_z", "im_z", "re_f", "im_f", "is_pole"]:
        raise UsageError(f"unexpected CSV header {header!r}")
    rows = []
    for record in reader:
        re, im, ref, imf, pole = record
        if pole == "1":
            rows.append((float(re), float(im), None, None, 1))
        else:
            rows.append((float(re), float(im), float(ref), float(imf), 0))
    return rows


def rows_to_csv(rows) -> str:
    return _csv_text((f"{fmt(re)},{fmt(im)}" for re, im, *_ in rows), rows)


def sample_grid_to_json(grid: SampleGrid) -> str:
    payload = {
        "k": grid.k,
        "fn": grid.function,
        "re_axis": list(grid.re_axis),
        "im_axis": list(grid.im_axis),
        "rows": [list(row) for row in grid.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def sample_grid_from_json(text: str) -> SampleGrid:
    payload = json.loads(text)
    return SampleGrid(k=payload["k"], function=payload["fn"],
                      re_axis=payload["re_axis"], im_axis=payload["im_axis"],
                      rows=[tuple(row) for row in payload["rows"]])


def reports_to_json(reports) -> str:
    payload = [
        {
            "identity": r.identity_name,
            "k": r.k,
            "samples": r.samples,
            "max_residual": r.max_residual if math.isfinite(r.max_residual) else None,
            "tolerance": r.tolerance,
            "passed": r.passed,
        }
        for r in reports
    ]
    return json.dumps(payload, indent=2) + "\n"


def reports_from_json(text: str):
    return [
        VerificationReport(identity_name=item["identity"], k=item["k"],
                           samples=item["samples"],
                           max_residual=math.nan if item["max_residual"] is None
                           else item["max_residual"],
                           tolerance=item["tolerance"], passed=item["passed"])
        for item in json.loads(text)
    ]


def reports_to_text(reports) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.identity_name:<20} k={fmt(r.k):<22} "
                     f"samples={r.samples:<4} max_residual={fmt(r.max_residual)} "
                     f"tol={fmt(r.tolerance)}")
    return "\n".join(lines) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _single_k(args):
    ks = parse_k_list(args.k)
    if len(ks) != 1:
        raise UsageError("this subcommand takes exactly one --k value")
    return ks[0]


def cmd_invariants(args) -> int:
    k = _single_k(args)
    inv = invariants_of_modulus(k)
    if args.json:
        text = json.dumps({"g2": inv.g2, "g3": inv.g3, "delta": inv.delta},
                          indent=2) + "\n"
    else:
        text = (f"g2    = {fmt(inv.g2)}\n"
                f"g3    = {fmt(inv.g3)}\n"
                f"delta = {fmt(inv.delta)}\n")
    _emit(text, args.out)
    return 0


def cmd_periods(args) -> int:
    k = _single_k(args)
    lat = ShenContext.from_modulus(k).lat
    fields = {"K": lat.K, "K_prime": lat.K_prime,
              "e1": lat.e1, "e2": lat.e2, "e3": lat.e3}
    if args.json:
        text = json.dumps(fields, indent=2) + "\n"
    else:
        text = "".join(f"{name:<8}= {fmt(value)}\n" for name, value in fields.items())
    _emit(text, args.out)
    return 0


def cmd_eval(args) -> int:
    k = _single_k(args)
    re_axis = parse_grid(args.real if args.real is not None else "0")
    im_axis = parse_grid(args.imag if args.imag is not None else "0")
    if len(re_axis) != 1 or len(im_axis) != 1:
        raise UsageError("eval takes a single point; use sample for grids")
    grid = build_sample_grid(k, args.fn, re_axis, im_axis)
    re, im, ref, imf, pole = grid.rows[0]
    if args.json:
        text = json.dumps({"re_z": re, "im_z": im, "re_f": ref, "im_f": imf,
                           "is_pole": pole}, indent=2) + "\n"
    elif pole:
        text = f"{args.fn}({fmt(re)} + {fmt(im)}i) = pole\n"
    else:
        text = f"{args.fn}({fmt(re)} + {fmt(im)}i) = {fmt(ref)} + {fmt(imf)}i\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    ks = parse_k_list(args.k)
    names = available_suites() if args.suite == "all" else [p for p in args.suite.split(",") if p]
    if not names:
        raise UsageError(f"empty suite list {args.suite!r}")
    reports = run_suites(names, ks, tol=args.tol)
    text = reports_to_json(reports) if args.json else reports_to_text(reports)
    _emit(text, args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_sample(args) -> int:
    k = _single_k(args)
    if args.real is None and args.imag is None:
        raise UsageError("sample needs --real and/or --imag grid specs")
    re_axis = parse_grid(args.real if args.real is not None else "0")
    im_axis = parse_grid(args.imag if args.imag is not None else "0")
    grid = build_sample_grid(k, args.fn, re_axis, im_axis)
    text = sample_grid_to_json(grid) if args.json else sample_grid_to_csv(grid)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shenell",
        description="Shen's hypergeometric elliptic functions, modulus k in (0, 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn=False, tol=False, suite=False):
        p.add_argument("--k", required=True,
                       help="modulus in (0, 1); comma list for verify")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", default=None, help="write output to a file")
        if fn:
            p.add_argument("--fn", default="d",
                           help=f"function: {', '.join(BATCH_FUNCTIONS)}")
            p.add_argument("--real", default=None,
                           help="real axis: start:step:stop or a number")
            p.add_argument("--imag", default=None,
                           help="imaginary axis: start:step:stop or a number")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="tolerance override for every selected suite")
        if suite:
            p.add_argument("--suite", default="all",
                           help=f"all or a comma list of: {', '.join(available_suites())}")

    common(sub.add_parser("invariants", help="print g2, g3, delta"))
    common(sub.add_parser("periods", help="print K, K', e1, e2, e3"))
    common(sub.add_parser("eval", help="evaluate one function at one point"), fn=True)
    common(sub.add_parser("verify", help="run identity suites"), tol=True, suite=True)
    common(sub.add_parser("sample", help="sample a function over a grid"), fn=True)
    return parser


_COMMANDS = {
    "invariants": cmd_invariants,
    "periods": cmd_periods,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ShenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
