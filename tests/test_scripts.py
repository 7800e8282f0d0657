"""Smoke tests of the experiment scripts: each runs to exit 0 on a small grid."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("oscillator_cross_check.py", ["--gammas", "0.5", "--omega-ds", "5.0"]),
    ("steady_state_comparison.py", []),
    ("oracle_scaling.py", ["--halvings", "1", "--n-modes", "2", "--fock-cutoff", "3"]),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
