"""The demos and the README's library tour run to completion against this tree's library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_python_block_runs():
    # the library tour's documented calls, run as the demos are, with
    # warnings as errors as in the test suite
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1 and "sh.wp(ctx, " in blocks[0]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    result = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
