"""The CLI runs that replace the former experiment scripts."""

from copy import deepcopy

import pytest

from mfgkit import cli


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


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("omega_d", [2.0, 5.0, 10.0])
def test_oscillator_routes_agree_over_the_damping_grid(gamma, omega_d, tmp_path):
    # the (gamma, omega_D) grid of the damped-oscillator cross-check: the
    # ln Z route and the correlator route to <x^2> agree within 1e-4
    # (measured worst residual 2.4e-7)
    cfg = deepcopy(cli.PRESETS["oscillator_drude"])
    cfg["oscillator"].update(gamma=gamma, omega_d=omega_d)
    assert cli.run_scenario(cfg, tmp_path) == cli.EXIT_OK
    lines = (tmp_path / "oscillator.csv").read_text().splitlines()
    values = dict(line.split(",") for line in lines if not line.startswith("#"))
    assert float(values["cross_route_residual"]) < 1e-4
