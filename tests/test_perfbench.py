"""The benchmark's own self-test passes against this checkout: its
Rota–Stein oracle agrees with ``clifford_product`` and its span arithmetic
holds."""

import os
import subprocess
import sys

from conftest import child_env

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, env=dict(child_env(), PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
