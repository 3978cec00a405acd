"""Each narrative demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import biaxial

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("run_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    src = str(Path(biaxial.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
