"""Every example under ``examples/`` runs to completion.

The examples are the paper paths a public capability is reached from
(catch-up after a late subscription, a restriction carved out of a grant,
the XSD a browsing consumer reads), and each asserts its own outcome, so a
run that exits 0 is the check.  Each runs in its own interpreter, in an
empty working directory, exactly as a reader would start it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_exits_cleanly(example, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(example)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-4000:]
