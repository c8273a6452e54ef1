import os
from pathlib import Path

import pytest

from shenell import ShenContext

# CLI subprocesses import the package from this tree, not an installed copy
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

_CACHE = {}


@pytest.fixture(scope="session")
def context_for():
    """Session-cached ShenContext factory; lattices are expensive enough to share."""
    def get(k):
        if k not in _CACHE:
            _CACHE[k] = ShenContext.from_modulus(k)
        return _CACHE[k]
    return get
