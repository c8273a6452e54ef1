"""The public contract: tests and demos reach the package only through public names.

Everything behind ``shenell.__all__`` and the public names of its modules
is free to change, which holds only while no test or demo imports a
private name or reads one off a module. The demos run as tests too.
"""

import ast
import importlib
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import shenell

#: every function of the lattice variable z in ``shenell.__all__``
FUNCTIONS_OF_Z = ("wp", "wp_prime", "wp_with_prime", "q_with_prime", "reduce_to_cell",
                  "duplication_check", "d_complex", "s_squared", "c_squared", "sc_product",
                  "cubic_relation_residual", "d_ode_residual", "substitution_chain_check")

TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))
DEMO_FILES = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_module(name):
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def _dotted(node):
    # "a.b.c" for a chain of names and attributes, else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def private_uses(source):
    """Each private name that ``source`` imports from, or reads off, a shenell module."""
    tree = ast.parse(source)
    modules = {}  # local name -> dotted name of the shenell module bound to it
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "shenell":
                    modules[alias.asname or "shenell"] = alias.name if alias.asname else "shenell"
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "shenell"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
                elif _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base is None or base.split(".")[0] not in modules:
                continue
            root, _, rest = base.partition(".")
            module = modules[root] + (f".{rest}" if rest else "")
            if _is_module(module):
                found.append(f"{module}.{node.attr}")
    return found


def test_no_test_uses_a_private_name():
    assert len(TEST_FILES) > 5 and DEMO_FILES
    found = {path.name: private_uses(path.read_text()) for path in TEST_FILES + DEMO_FILES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_checker_sees_private_uses():
    source = ("import shenell\nimport shenell.verify as v\nfrom shenell import cli, field\n"
              "from shenell.field import _d_of_q, d_complex\n"
              "cli._CHUNK, v._suite, shenell.weierstrass._agm, field.__doc__, cli.main\n"
              "ctx = None\nctx._private\n")
    assert sorted(private_uses(source)) == ["shenell.cli._CHUNK", "shenell.field._d_of_q",
                                            "shenell.verify._suite",
                                            "shenell.weierstrass._agm"]


def test_all_names_resolve_once():
    assert len(set(shenell.__all__)) == len(shenell.__all__)
    missing = [name for name in shenell.__all__ if not hasattr(shenell, name)]
    assert missing == []


def test_functions_of_z_take_the_context_then_z():
    for name in FUNCTIONS_OF_Z:
        assert name in shenell.__all__
        params = list(inspect.signature(getattr(shenell, name)).parameters)
        assert params[:1] == ["ctx"] and params[1:2] in (["z"], ["a"]), (name, params)
    # the context carries the lattice: no public function takes one of its own
    functions = [getattr(shenell, name) for name in shenell.__all__]
    assert [f.__name__ for f in functions if inspect.isfunction(f)
            and "lat" in inspect.signature(f).parameters] == []


def test_every_suite_runner_takes_the_context():
    # run_suite turns k into a ShenContext once and hands it to the runner
    params = {name: list(inspect.signature(runner).parameters)
              for name, (runner, _) in shenell.SUITES.items()}
    assert params == {name: ["ctx"] for name in shenell.SUITES}


def test_no_public_function_takes_a_setting():
    # tolerances, budgets and steps are fixed in the modules; only the
    # suite runners take the tolerance that the CLI's --tol sets
    settings = {}
    for name in shenell.__all__:
        obj = getattr(shenell, name)
        if inspect.isfunction(obj):
            defaults = [p.name for p in inspect.signature(obj).parameters.values()
                        if p.default is not inspect.Parameter.empty]
            if defaults:
                settings[name] = defaults
    assert settings == {"run_suite": ["tol"], "run_suites": ["tol"]}
    assert [name for name in shenell.__all__ if name.endswith("Config")] == []


@pytest.mark.parametrize("f, args", [
    (shenell.phase_speed, (0.3, math.inf)),
    (shenell.phase_speed, (0.3, -math.inf)),
    (shenell.phase_speed, (0.3, math.nan)),
    (shenell.f_series, (math.nan,)),
    (shenell.f_series, (np.longdouble(math.nan),)),
    (shenell.f_closed, (math.nan,)),
    (shenell.integrate, (math.sin, 0.0, math.nan)),
    (shenell.integrate, (math.sin, 0.0, math.inf)),
    (shenell.integrate, (math.sin, -math.inf, 0.0)),
], ids=["phase_speed-inf", "phase_speed-minus-inf", "phase_speed-nan", "f_series-nan",
        "f_series-longdouble-nan", "f_closed-nan", "integrate-to-nan", "integrate-to-inf",
        "integrate-from-minus-inf"])
def test_non_finite_numbers_raise_domain_error(f, args):
    # refused up front, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(shenell.DomainError):
            f(*args)
