"""Each demo script runs to completion against the public API."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_0(path, tmp_path):
    src = os.path.join(ROOT, "src") + os.pathsep + os.environ.get("PYTHONPATH", "")
    # The demos write their corpora under the temp directory and must remove them.
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == []
