from copy import deepcopy

import numpy as np
import pytest
import yaml

from mfgkit import bath, cli, mfstatics
from mfgkit.opcore import gibbs

K_B = 1.380649e-23


def _read_rows(path):
    """Data rows of an artifact CSV, split on commas."""
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]


def _write_scenario(tmp_path, cfg, name="scenario.yaml"):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


class TestSchema:
    def test_presets_validate_clean(self, capsys):
        for preset in cli.PRESETS:
            code = cli.main(["validate", "--scenario", preset])
            assert code == cli.EXIT_OK
            assert "ok" in capsys.readouterr().out

    def test_validate_issue_exits_2(self, tmp_path, capsys):
        cfg = dict(cli.PRESETS["spin_boson"])
        cfg["bath"] = dict(cfg["bath"], beta=-1)
        path = _write_scenario(tmp_path, cfg)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_SCHEMA
        assert "beta must be positive" in capsys.readouterr().out

    @pytest.mark.parametrize("preset, section, bad", [
        ("oracle_spin_boson", "oracle", {"n_modes": "abc"}),
        ("fig1_weak", "dynamics", {"points": "many"}),
    ])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_bad_task_section_exits_2(self, tmp_path, capsys, preset, section, bad, verb):
        # a bad task field is a schema error before anything runs, not a
        # numerical failure of the run
        cfg = deepcopy(cli.PRESETS[preset])
        cfg[section] = {**cfg.get(section, {}), **bad}
        path = _write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli.main([verb, "--scenario", path, "--out", str(out)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert f"{section}.{next(iter(bad))} must be" in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("section, bad", [
        ("oracle", {"fock_cutoff": 0}), ("oracle", {"omega_max": -1.0}),
        ("oracle", {"scheme": "simpson"}), ("oracle", {"lambdas": [0.1, -0.1]}),
        ("oracle", {"lambdas": 0.1}), ("dynamics", {"points": 1}),
        ("dynamics", {"t_max": 0.0}), ("dynamics", {"initial": [[1.0]]}),
    ])
    def test_task_section_bounds(self, section, bad):
        cfg = deepcopy(cli.PRESETS["oracle_spin_boson"])
        cfg["task"] = section
        cfg[section] = {**cfg.get(section, {}), **bad}
        with pytest.raises(cli.SchemaError, match=f"{section}\\."):
            cli._build_scenario(cfg)

    def test_task_section_defaults(self):
        sc = cli.Scenario({**deepcopy(cli.PRESETS["spin_boson"]), "task": "oracle",
                           "oracle": {}})
        assert (sc.n_modes, sc.fock_cutoff, sc.scheme) == (4, 5, "linear")
        assert sc.omega_max == 3 * sc.J.scale()
        assert sc.lambdas == [sc.lam, sc.lam / 2, sc.lam / 4]
        sc = cli.Scenario({**deepcopy(cli.PRESETS["spin_boson"]), "task": "dynamics"})
        assert (sc.t_max, sc.points) == (None, 200)
        ground = np.linalg.eigh(sc.H_S)[1][:, 0]
        assert np.allclose(sc.rho0, np.outer(ground, ground.conj()))

    def test_unknown_scenario_exits_2(self):
        assert cli.main(["validate", "--scenario", "no_such_thing"]) == cli.EXIT_SCHEMA

    def test_missing_task_exits_2(self, tmp_path):
        path = _write_scenario(tmp_path, {"name": "broken", "units": "natural"})
        assert cli.main(["run", "--scenario", path,
                         "--out", str(tmp_path / "out")]) == cli.EXIT_SCHEMA

    def test_negative_temperature_rejected(self, tmp_path):
        cfg = dict(cli.PRESETS["spin_boson"])
        cfg["bath"] = dict(cfg["bath"], temperature=-5.0, beta=None)
        path = _write_scenario(tmp_path, cfg)
        assert cli.main(["run", "--scenario", path,
                         "--out", str(tmp_path / "out")]) == cli.EXIT_SCHEMA

    def test_tabulated_nan_row_exits_2(self, tmp_path, capsys):
        table = tmp_path / "j.csv"
        table.write_text("0.5, 0.1\n1.0, nan\n2.0, 0.3\n4.0, 0.1\n8.0, 0.0\n")
        cfg = dict(cli.PRESETS["spin_boson"])
        cfg["bath"] = {"kind": "tabulated", "path": str(table), "beta": 1.0}
        path = _write_scenario(tmp_path, cfg)
        assert cli.main(["validate", "--scenario", path]) == cli.EXIT_SCHEMA
        assert "schema:" in capsys.readouterr().out

    def test_named_and_literal_operators(self):
        assert np.array_equal(cli._as_matrix("sigma_x"),
                              np.array([[0, 1], [1, 0]], dtype=complex))
        m = cli._as_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(m, np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(cli.SchemaError):
            cli._as_matrix("sigma_w")
        with pytest.raises(cli.SchemaError):
            cli._as_matrix([[1.0, 2.0, 3.0]])


class TestUnitConversion:
    def test_si_round_trip(self):
        sc = cli.Scenario(cli.PRESETS["fig1_strong"])
        # beta_nat = E_ref/(k_B T); back-conversion reproduces the kelvin input
        t_back = sc.e_ref / (K_B * sc.beta)
        assert abs(t_back - 317.0) / 317.0 < 1e-12
        gap_nat = sc.energy(2.0e-21)
        assert abs(gap_nat * sc.e_ref - 2.0e-21) / 2.0e-21 < 1e-12

    def test_fig1_reorganization_energy_mapping(self):
        sc = cli.Scenario(cli.PRESETS["fig1_strong"])
        from mfgkit.bath import reorganization_energy

        ell_nat = reorganization_energy(sc.J, sc.lam)
        assert ell_nat * sc.e_ref == pytest.approx(4.0e-21, rel=1e-10)

    def test_natural_scenario_passes_through(self):
        sc = cli.Scenario(cli.PRESETS["spin_boson"])
        assert sc.beta == 1.0
        assert sc.energy(5.0) == 5.0


class TestRun:
    def test_oscillator_task_artifacts(self, tmp_path):
        out = tmp_path / "osc"
        assert cli.main(["run", "--scenario", "oscillator_drude",
                         "--out", str(out)]) == cli.EXIT_OK
        text = (out / "oscillator.csv").read_text()
        assert text.startswith("# mfgkit")
        assert "# config_hash:" in text
        assert "cross_route_residual" in text
        assert (out / "expanded_config.yaml").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["run", "--scenario", "oscillator_drude",
                             "--out", str(out)]) == cli.EXIT_OK
        assert (out1 / "oscillator.csv").read_bytes() == (
            out2 / "oscillator.csv"
        ).read_bytes()

    def test_steady_compare_artifacts(self, tmp_path):
        out = tmp_path / "sc"
        assert cli.main(["run", "--scenario", "spin_boson",
                         "--out", str(out)]) == cli.EXIT_OK
        rows = [line for line in (out / "steady_compare.csv").read_text().splitlines()
                if not line.startswith("#")]
        header = rows[0].split(",")
        assert header == ["generator", "reference", "trace_distance"]
        generators = {r.split(",")[0] for r in rows[1:]}
        assert {"davies", "brme", "brme_real_only", "secular_full"} <= generators


    def test_statics_all_computes_weak_state_once(self, tmp_path, monkeypatch):
        calls = []
        decompose = mfstatics.decompose

        def counting(*args, **kwargs):
            calls.append(1)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(mfstatics, "decompose", counting)
        out = tmp_path / "st"
        assert cli.run_scenario(deepcopy(cli.PRESETS["fig1_strong"]), out) == cli.EXIT_OK
        assert len(calls) == 1
        diag = dict(_read_rows(out / "diagnostics.csv"))
        assert "validity_lambda_max" not in diag
        lam_max = diag["weak_validity_lambda_max"]
        assert list(diag.values()).count(lam_max) == 1

    def test_run_builds_one_scenario(self, tmp_path, monkeypatch):
        table = tmp_path / "j.csv"
        w = np.linspace(0.0, 60.0, 200)
        table.write_text("".join(f"{wk:.17g},{jk:.17g}\n"
                                 for wk, jk in zip(w, 0.1 * w * np.exp(-w / 4.0))))
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg["task"] = "statics_all"
        cfg["bath"] = {"kind": "tabulated", "path": str(table), "beta": 1.0}
        built, loads = [], []
        load_tabulated = bath.load_tabulated

        class CountingScenario(cli.Scenario):
            def __init__(self, cfg):
                built.append(1)
                super().__init__(cfg)

        def counting_load(*args, **kwargs):
            loads.append(1)
            return load_tabulated(*args, **kwargs)

        monkeypatch.setattr(cli, "Scenario", CountingScenario)
        monkeypatch.setattr(bath, "load_tabulated", counting_load)
        assert cli.run_scenario(cfg, tmp_path / "st") == cli.EXIT_OK
        assert (len(built), len(loads)) == (1, 1)

    def test_statics_all_far_above_validity_bound_skips_weak(self, tmp_path):
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg["task"] = "statics_all"
        sc = cli.Scenario(cfg)
        lam_max = mfstatics.weak_validity_bound(sc.H_S, sc.X, sc.bath_params)
        cfg["coupling"]["lambda"] = 20.0 * lam_max
        out = tmp_path / "st"
        with pytest.warns(UserWarning, match="high-temperature"):
            assert cli.run_scenario(cfg, out) == cli.EXIT_OK
        diag = dict(_read_rows(out / "diagnostics.csv"))
        assert "exceeds the weak-coupling bound" in diag["weak_skipped"]
        assert not any(q.startswith("weak_validity") for q in diag)
        assert "mfg_weak" not in {r[0] for r in _read_rows(out / "states.csv")}

    def test_dynamics_four_level_relaxes_to_gibbs(self, tmp_path):
        h = np.diag([0.0, 0.7, 1.5, 2.6]) + 0.2 * (np.eye(4, k=1) + np.eye(4, k=-1))
        x = np.array([[0.0, 1.0, 0.3, 0.2], [1.0, 0.5, 1.0, 0.4],
                      [0.3, 1.0, -0.5, 1.0], [0.2, 0.4, 1.0, 0.0]])
        cfg = {
            "name": "four_level", "units": "natural", "task": "dynamics",
            "system": {"matrix": h.tolist()},
            "coupling": {"x": x.tolist(), "lambda": 0.3},
            "bath": {"kind": "drude_lorentz", "gamma": 0.1, "omega_d": 5.0,
                     "beta": 1.0},
            "dynamics": {"points": 60},
        }
        out = tmp_path / "dyn"
        assert cli.run_scenario(cfg, out) == cli.EXIT_OK
        rows = _read_rows(out / "trajectory.csv")
        assert {r[0] for r in rows} == {"davies", "brme"}
        final = float([r for r in rows if r[0] == "davies"][-1][2])
        top = np.linalg.eigh(h)[1][:, -1]
        gibbs_pop = float((top.conj() @ gibbs(h.astype(complex), 1.0) @ top).real)
        assert abs(final - gibbs_pop) < 1e-6
        assert max(float(r[4]) for r in rows) < 1e-12


class TestWarnings:
    def test_weak_validity_warning_reaches_caller(self, tmp_path):
        # lambda between the validity bound and 10x it: mfg_weak warns, still runs
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        sc = cli.Scenario(cfg)
        lam_max = mfstatics.weak_validity_bound(sc.H_S, sc.X, sc.bath_params)
        cfg["coupling"]["lambda"] = 3.0 * lam_max
        with pytest.warns(UserWarning, match="validity bound"):
            assert cli.run_scenario(cfg, tmp_path / "out") == cli.EXIT_OK


class TestExitCodes:
    def _run_with_task(self, tmp_path, monkeypatch, task):
        monkeypatch.setitem(cli._TASKS, "oscillator", task)
        return cli.run_scenario(dict(cli.PRESETS["oscillator_drude"]), tmp_path / "out")

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(sc, outdir):
            raise TypeError("not a numerical failure")

        with pytest.raises(TypeError):
            self._run_with_task(tmp_path, monkeypatch, broken)

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def unconverged(sc, outdir):
            raise bath.BathIntegrationError("did not converge")

        assert self._run_with_task(tmp_path, monkeypatch, unconverged) == cli.EXIT_NUMERICAL
        assert "error: numerical" in capsys.readouterr().err


class TestSweep:
    def test_partial_failure_exits_4(self, tmp_path):
        out = tmp_path / "sw"
        code = cli.main(["sweep", "--scenario", "oscillator_drude",
                         "--param", "oscillator.gamma",
                         "--grid", "0.5,-1.0", "--out", str(out)])
        assert code == cli.EXIT_PARTIAL
        sweep = (out / "sweep.csv").read_text()
        assert "ok" in sweep and "failed" in sweep

    def test_clean_sweep_exits_0(self, tmp_path):
        out = tmp_path / "sw"
        code = cli.main(["sweep", "--scenario", "oscillator_drude",
                         "--param", "oscillator.beta",
                         "--grid", "1.0,2.0", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "sweep.csv").exists()

    def test_empty_grid_exits_2(self, tmp_path):
        code = cli.main(["sweep", "--scenario", "oscillator_drude",
                         "--param", "oscillator.beta", "--grid", ",",
                         "--out", str(tmp_path / "sw")])
        assert code == cli.EXIT_SCHEMA
