import glob
import os
import subprocess
import sys

import pytest

import cml_lab as cl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cl.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, demo], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
