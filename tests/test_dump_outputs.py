"""tools/dump_outputs.py compares a checkout with itself as unchanged."""

import importlib.util
import sys
from pathlib import Path

from shenell import available_suites

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("dump_outputs", _ROOT / "tools" / "dump_outputs.py")
dump_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dump_outputs)

SECTIONS = ("sample", "verify", "scd_real", "phi_of_u", "u_of_phi", "wp_with_prime",
            "duplication_check", "constants", "fixed_settings")


def test_compare_of_a_checkout_with_itself_reads_same():
    # the tool imports each checkout afresh; the package the other tests
    # imported is put back afterwards
    imported = {name: module for name, module in sys.modules.items()
                if name.split(".")[0] == "shenell"}
    try:
        lines = dump_outputs.compare(_ROOT / "src", _ROOT / "src")
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "shenell"]:
            del sys.modules[name]
        sys.modules.update(imported)
    assert lines[:len(SECTIONS)] == [f"{name:<18} same" for name in SECTIONS]
    assert lines[len(SECTIONS)] == f"verify verdict flips: 0 of {9 * len(dump_outputs.MODULI)}"
    assert lines[len(SECTIONS) + 2:] == [f"  {suite:<18} 0" for suite in available_suites()]
