"""Spans around the library's public functions, recorded from outside the library.

``install`` wraps each function in ``LAYERS`` once and rebinds the wrapper
wherever the original is bound: in every ``shenell`` module namespace (the
package imports with ``from .x import y``, so ``field.wp`` and
``phase.integrate`` are separate bindings) and in module-level dicts such
as the CLI's function table. A span's self time is its duration minus the
time its child spans cover. Aggregates cover every span; the raw spans are
kept in memory up to a cap and written out once the run ends.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter

#: module -> public functions traced in it ("Class.method" for classmethods)
LAYERS = {
    "hypergeometric": ("f_series", "f_closed"),
    "quadrature": ("integrate",),
    "phase": ("phase_speed", "u_of_phi", "u_max", "phi_of_u", "scd_real"),
    "weierstrass": ("invariants_of_modulus", "lattice_of_invariants",
                    "wp_with_prime", "duplication_check"),
    "field": ("ShenContext.from_modulus", "d_complex", "s_squared", "c_squared",
              "sc_product", "cubic_relation_residual", "d_ode_residual",
              "substitution_chain_check", "pole_order_slope"),
    "poles": ("certify_pole", "factorization_check", "classify_quartic_roots"),
    "verify": ("run_suite",),
    "cli": ("build_sample_grid", "sample_grid_to_csv", "reports_to_json"),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

#: run_suite spans are also attributed to their suite: "verify.run_suite.<suite>"
SUITE_KEY = "verify.run_suite"
SUITES = ("cubic-relation", "d-ode", "duplication", "factorization", "periodicity",
          "pole", "pole-order", "pythagorean", "substitution-chain")

#: (ancestor, function): calls of the function made anywhere below the ancestor
NESTED = (("phase.phi_of_u", "quadrature.integrate"),)


class Tracer:
    def __init__(self, span_cap=20_000):
        self.stack = []           # open frames: [key, start, child_seconds, span_id]
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()
        self.error_types = Counter()   # (key, exception class name)
        self.edges = Counter()         # (parent key or None, key)
        self.nested = Counter()
        self.active = Counter()
        self.spans = []
        self.span_cap = span_cap
        self.next_id = 0
        self.op = -1

    def wrap(self, key, fn):
        stack, active, clock = self.stack, self.active, time.perf_counter
        watched = [ancestor for ancestor, inner in NESTED if inner == key]
        per_suite = key == SUITE_KEY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self.edges[(parent[0] if parent else None, key)] += 1
            for ancestor in watched:
                if active[ancestor]:
                    self.nested[(ancestor, key)] += 1
            span_id = self.next_id
            self.next_id += 1
            frame = [key, 0.0, 0.0, span_id]
            stack.append(frame)
            active[key] += 1
            failure = None
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failure = exc
                raise
            finally:
                end = clock()
                stack.pop()
                active[key] -= 1
                duration = end - frame[1]
                own = duration - frame[2]
                self.calls[key] += 1
                self.self_s[key] += own
                if per_suite:
                    suite = args[0] if args else kwargs.get("name")
                    self.self_s[f"{key}.{suite}"] += own
                if failure is not None:
                    self.errors[key] += 1
                    self.error_types[(key, type(failure).__name__)] += 1
                if parent is not None:
                    parent[2] += duration
                if len(self.spans) < self.span_cap:
                    self.spans.append((self.op, span_id, parent[3] if parent else None,
                                       key, frame[1], end))
        return traced

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, key, start, end in self.spans:
                handle.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                         "name": key, "start": start, "end": end}) + "\n")


def _rebind(original, wrapper):
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "shenell" or name.startswith("shenell.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for slot, item in list(value.items()):
                    if item is original:
                        value[slot] = wrapper


def install(tracer):
    """Wrap every function in ``LAYERS`` wherever the library binds it."""
    for module_name, names in LAYERS.items():
        module = importlib.import_module(f"shenell.{module_name}")
        for name in names:
            key = f"{module_name}.{name}"
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method].__func__
                setattr(cls, method, classmethod(tracer.wrap(key, original)))
            else:
                original = getattr(module, name)
                _rebind(original, tracer.wrap(key, original))
