"""Every demo runs cleanly and prints exactly its recorded output.

The recorded outputs live in ``tests/demo_output/<demo name>.txt``.  The
demos run in fresh interpreters with a fixed hash seed, so a change in
any printed count, verdict or order shows up as a byte difference.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_recorded_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stderr == b""
    assert run.stdout == (ROOT / "tests" / "demo_output" / (demo.stem + ".txt")).read_bytes()
