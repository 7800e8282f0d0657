"""Smoke tests of the experiment scripts and of the CLI runs that replace them."""

import os
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import pytest

from mfgkit import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("oscillator_cross_check.py", ["--gammas", "0.5", "--omega-ds", "5.0"]),
    ("steady_state_comparison.py", []),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_oracle_lambda_ladder_runs_as_cli_scenario(tmp_path):
    # the lambda^4 scaling study: oracle.lambdas is the halving ladder, and
    # each halving ratio is a quotient of two rows of oracle.csv
    cfg = deepcopy(cli.PRESETS["oracle_spin_boson"])
    cfg["oracle"].update(n_modes=2, fock_cutoff=3, lambdas=[0.4, 0.2])
    assert cli.run_scenario(cfg, tmp_path) == cli.EXIT_OK
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0] == ["lambda", "dist_exact_vs_weak", "dist_exact_vs_gibbs"]
    assert [float(r[0]) for r in rows[1:]] == [0.4, 0.2]
    for _, weak, free in rows[1:]:
        assert float(weak) < float(free)
