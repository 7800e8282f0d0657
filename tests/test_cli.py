import functools
import hashlib
import os
import re
import subprocess
import sys
import warnings
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
import yaml

from mfgkit import bath, cli, eigenops, megen, mfstatics
from mfgkit.opcore import gibbs

from conftest import random_density_matrix, random_hermitian

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


# every kind of YAML value, most of them wrong for any given field
_ODD_VALUES = [None, [1.0], {"a": 1}, "abc", -1.0, 0.0, float("nan"), float("inf"),
               True, [[1, 2], [3, 4]]]


def _field_paths(cfg, prefix=()):
    """The key path of every field of cfg, sections and leaves alike."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


class TestSchema:
    @pytest.mark.parametrize("value", _ODD_VALUES, ids=repr)
    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_any_field_value_gives_a_scenario_or_a_schema_error(self, preset, value):
        leaks = []
        for path in _field_paths(cli.PRESETS[preset]):
            cfg = deepcopy(cli.PRESETS[preset])
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = deepcopy(value)
            try:
                cli.Scenario(cfg)
            except cli.SchemaError:
                pass
            except Exception as exc:  # any other error is a leak
                leaks.append(f"{'.'.join(path)}: {type(exc).__name__}: {exc}")
        assert not leaks

    @pytest.mark.parametrize("preset, path, value, message", [
        ("spin_boson", "coupling.lambda", float("nan"), "coupling.lambda must be"),
        ("spin_boson", "system.epsilon", float("inf"), "system.epsilon must be"),
        ("spin_boson", "coupling.x", [[0.0, 1.0], [0.0, 0.0]], "coupling.x must be"),
        ("spin_boson", "coupling.x", [[float("nan"), 0.0], [0.0, 1.0]], "coupling.x must be"),
        ("spin_boson", "system", {"matrix": [[1.0, 1.0], [0.0, -1.0]]},
         "system.matrix must be"),
        ("fig1_weak", "coupling.lambda", 0.0, "with coupling.lambda > 0"),
        ("oracle_spin_boson", "oracle.n_modes", float("inf"), "oracle.n_modes must be"),
        ("fig1_weak", "bath.relaxation_time_ps", -0.1, "bath.relaxation_time_ps must be"),
        ("fig1_weak", "bath.kind", ["drude_lorentz"], "bath.kind must be"),
        ("fig1_weak", "dynamics", {"initial": [[1.0, 1.0], [0.0, 0.0]]},
         "dynamics.initial must be"),
    ])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_bad_value_exits_2_naming_its_field(self, tmp_path, capsys, verb, preset, path,
                                                value, message):
        # validate runs the checks of run, so it cannot say "ok" to what run rejects
        cfg = deepcopy(cli.PRESETS[preset])
        section, _, key = path.rpartition(".")
        (cfg[section] if section else cfg)[key] = value
        out = tmp_path / "out"
        code = cli.main([verb, "--scenario", _write_scenario(tmp_path, cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_SCHEMA
        assert message in captured.out + captured.err
        assert not out.exists()

    def test_type_error_in_a_builder_propagates(self, tmp_path, monkeypatch):
        # a programming error is not a schema problem, on validate or on run
        def broken(*args, **kwargs):
            raise TypeError("a programming error")

        monkeypatch.setattr(bath, "DrudeLorentz", broken)
        with pytest.raises(TypeError, match="a programming error"):
            cli.Scenario(deepcopy(cli.PRESETS["spin_boson"]))
        with pytest.raises(TypeError, match="a programming error"):
            cli.run_scenario(deepcopy(cli.PRESETS["spin_boson"]), tmp_path / "out")

    def test_parse_required_default_and_optional_fields(self):
        cfg = {"bath": {"gamma": 0.1, "beta": None}}
        assert cli._parse(cfg, "bath.gamma", *cli._POSITIVE) == 0.1
        assert cli._parse(cfg, "bath.beta", *cli._POSITIVE, default=2) == 2.0
        assert cli._parse(cfg, "bath.beta", *cli._POSITIVE, default=None) is None
        with pytest.raises(cli.SchemaError, match="missing required field 'bath.beta'"):
            cli._parse(cfg, "bath.beta", *cli._POSITIVE)
        with pytest.raises(TypeError):  # a default is never taken by position
            cli._parse(cfg, "bath.beta", *cli._POSITIVE, 2.0)
        with pytest.raises(cli.SchemaError, match="bath.gamma must be positive"):
            cli._parse({"bath": {"gamma": "1/2"}}, "bath.gamma", *cli._POSITIVE)

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("text", [b"task: [statics_all\n", b"task: [\xff\n"],
                             ids=["unclosed", "not_utf8"])
    def test_malformed_yaml_exits_2(self, tmp_path, capsys, verb, text):
        path = tmp_path / "broken.yaml"
        path.write_bytes(text)
        out = tmp_path / "out"
        assert cli.main([verb, "--scenario", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "schema:" in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_unreadable_scenario_path_exits_2(self, tmp_path, capsys, verb):
        # a directory exists but cannot be opened as a file
        out = tmp_path / "out"
        assert cli.main([verb, "--scenario", str(tmp_path), "--out", str(out)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "schema:" in err and str(tmp_path) in err
        assert not out.exists()

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

    @pytest.mark.parametrize("section, bad, message", [
        ("system", {"preset": "spin_boson", "epsilon": [1.0], "delta": 0.5},
         "system.epsilon must be"),
        ("bath", 5, "bath must be a mapping"),
        ("coupling", [1.0], "coupling must be a mapping"),
    ])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_wrong_type_exits_2(self, tmp_path, capsys, section, bad, message, verb):
        # a list where a number belongs, or a number where a section belongs,
        # is a schema error, not a TypeError traceback
        cfg = {**deepcopy(cli.PRESETS["spin_boson"]), section: bad}
        path = _write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli.main([verb, "--scenario", path, "--out", str(out)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("section, bad", [
        ("oracle", {"fock_cutoff": 0}), ("oracle", {"omega_max": -1.0}),
        ("oracle", {"scheme": "simpson"}), ("oracle", {"lambdas": [0.1, -0.1]}),
        ("oracle", {"lambdas": 0.1}), ("dynamics", {"points": 1}),
        ("dynamics", {"t_max": 0.0}), ("dynamics", {"initial": [[1.0]]}),
        ("oracle", {"lambdas": []}),
    ])
    def test_task_section_bounds(self, section, bad):
        cfg = deepcopy(cli.PRESETS["oracle_spin_boson"])
        cfg["task"] = section
        cfg[section] = {**cfg.get(section, {}), **bad}
        with pytest.raises(cli.SchemaError, match=f"{section}\\."):
            cli.Scenario(cfg)

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

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("rows, message", [
        ("0.5, 0.1\n1.0\n2.0, 0.3\n4.0, 0.1\n", "j.csv, line 2"),  # one column
        (None, "cannot read"),  # no such file
    ])
    def test_bad_tabulated_file_exits_2(self, tmp_path, capsys, verb, rows, message):
        table = tmp_path / "j.csv"
        if rows is not None:
            table.write_text(rows)
        cfg = dict(cli.PRESETS["spin_boson"])
        cfg["bath"] = {"kind": "tabulated", "path": str(table), "beta": 1.0}
        path = _write_scenario(tmp_path, cfg)
        out = tmp_path / "out"
        assert cli.main([verb, "--scenario", path, "--out", str(out)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
        assert str(table) in captured.out + captured.err
        assert not out.exists()

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


    def test_one_decomposition_per_steady_compare_run(self, tmp_path, monkeypatch):
        # mfg_weak and the three Redfield generators share one memoized
        # Bohr decomposition of (H_S, X)
        computed = []
        compute = eigenops._decompose.__wrapped__

        def counting(*args):
            computed.append(args[2])
            return compute(*args)

        monkeypatch.setattr(eigenops, "_decompose", functools.lru_cache(counting))
        out = tmp_path / "out"
        assert cli.run_scenario(deepcopy(cli.PRESETS["spin_boson"]), out) == cli.EXIT_OK
        assert computed == [2]

    @pytest.mark.parametrize("name", sorted(cli.PRESETS))
    def test_libyaml_dump_is_byte_identical(self, name):
        cfg = deepcopy(cli.PRESETS[name])
        canonical, _ = cli._config_hash(cfg)
        assert canonical == yaml.dump(cfg, Dumper=yaml.SafeDumper, sort_keys=True)
        assert yaml.load(canonical, Loader=cli._YAML_LOADER) == cfg

    @pytest.mark.parametrize("text", ["task: [statics_all\n", "a: b: c\n", "a: &x 1\nb: *y\n",
                                      "a: !!python/object:os.system 1\n"])
    def test_libyaml_loader_raises_the_same_errors(self, text):
        def error(loader):
            with pytest.raises(yaml.YAMLError) as info:
                yaml.load(text, Loader=loader)
            return type(info.value)

        assert error(cli._YAML_LOADER) is error(yaml.SafeLoader)

    def test_one_yaml_dump_per_run(self, tmp_path, monkeypatch):
        # expanded_config.yaml and every CSV's hash come from one dump
        dumps = []
        dump = yaml.dump

        def counting(*args, **kwargs):
            dumps.append(kwargs.get("Dumper"))
            return dump(*args, **kwargs)

        monkeypatch.setattr(yaml, "dump", counting)
        out = tmp_path / "st"
        assert cli.run_scenario(deepcopy(cli.PRESETS["fig1_strong"]), out) == cli.EXIT_OK
        assert dumps == [cli._YAML_DUMPER]
        digest = hashlib.sha256((out / "expanded_config.yaml").read_bytes()).hexdigest()[:16]
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 4
        for path in csvs:
            assert f"# config_hash: {digest}\n" in path.read_text()

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


class TestArtifacts:
    def test_batched_observables_match_per_state_loop(self, rng):
        h = random_hermitian(rng, 3)
        states = np.array([random_density_matrix(rng, 3) for _ in range(7)])
        pop, coh = cli._energy_basis_observables(h, states)
        v = np.linalg.eigh(h)[1]
        for k, rho in enumerate(states):
            r = v.conj().T @ rho @ v
            assert abs(pop[k] - r[-1, -1].real) <= 1e-15
            assert abs(coh[k] - abs(r[-1, 0])) <= 1e-15

    def test_preset_csv_floats_have_at_most_12_digits(self, tmp_path):
        # a value that is not a Python float (a 0-d array) would skip the
        # %.12g format and print 17 digits; the oracle preset runs at a
        # smaller bath (its full size takes seconds), through the same code
        csvs = []
        for name, preset in cli.PRESETS.items():
            cfg = deepcopy(preset)
            if cfg["task"] == "oracle":
                cfg["oracle"].update(n_modes=2, fock_cutoff=3)
            assert cli.run_scenario(cfg, tmp_path / name) == cli.EXIT_OK
            csvs += sorted((tmp_path / name).glob("*.csv"))
        assert len(csvs) == 9
        for path in csvs:
            for row in _read_rows(path):
                for cell in row:
                    try:
                        float(cell)
                    except ValueError:
                        continue
                    mantissa = re.sub(r"[eE].*", "", cell).lstrip("+-").replace(".", "")
                    assert len(mantissa.lstrip("0")) <= 12, (path.name, cell)


class TestDynamicsHorizon:
    @staticmethod
    def _run(cfg, out):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            return cli.run_scenario(cfg, out)

    @pytest.mark.parametrize("bath_cfg", [{"kind": "none", "beta": 1.0}], ids=["no_bath"])
    def test_no_relaxation_time_exits_3_naming_t_max(self, tmp_path, capsys, bath_cfg):
        # without a bath L = -i[H_S, .]: its null space is degenerate, and no
        # gap sets 20/gap
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg["task"] = "dynamics"
        cfg["bath"] = bath_cfg
        assert self._run(cfg, tmp_path / "out") == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "no unique steady state" in err and "dynamics.t_max" in err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_no_positive_gap_exits_3_naming_t_max(self, tmp_path, capsys, monkeypatch):
        report = megen.SteadyStateReport(states=[np.eye(2) / 2], residual=0.0,
                                         spectral_gap=0.0, unique=True,
                                         clipped_negativity=0.0)
        monkeypatch.setattr(megen, "steady_state", lambda L: report)
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg["task"] = "dynamics"
        assert self._run(cfg, tmp_path / "out") == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "spectral gap 0" in err and "dynamics.t_max" in err

    def test_tiny_gap_drift_names_gap_and_t_max(self, tmp_path, capsys):
        # at lambda = 5e-5 the Davies gap is 4.2e-10: t_max = 20/gap = 4.8e10
        # puts the rounding of e^(L t) above the trace drift abort threshold
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg["task"] = "dynamics"
        cfg["coupling"]["lambda"] = 5e-5
        assert self._run(cfg, tmp_path / "out") == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "trace drift" in err and "exceeds the abort threshold" in err
        assert "t_max = 20/gap = 4.76e+10" in err and "Davies spectral gap 4.2e-10" in err
        assert err.rstrip().endswith("give dynamics.t_max")
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_no_bath_with_t_max_exits_0(self, tmp_path):
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg.update(task="dynamics", bath={"kind": "none", "beta": 1.0}, dynamics={"t_max": 50})
        assert self._run(cfg, tmp_path / "out") == cli.EXIT_OK
        rows = _read_rows(tmp_path / "out" / "trajectory.csv")
        assert float(rows[-1][1]) == 50.0


class TestWarnings:
    def test_weak_validity_warning_reaches_caller(self, tmp_path):
        # lambda between the validity bound and 10x it: mfg_weak warns, still runs
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        sc = cli.Scenario(cfg)
        lam_max = mfstatics.weak_validity_bound(sc.H_S, sc.X, sc.bath_params)
        cfg["coupling"]["lambda"] = 3.0 * lam_max
        with pytest.warns(UserWarning) as record:
            assert cli.run_scenario(cfg, tmp_path / "out") == cli.EXIT_OK
        messages = [str(w.message) for w in record]
        assert any("validity bound" in m for m in messages)
        # this far above the bound the BRME generator is unstable, and says so
        assert any(m.startswith("brme generator is unstable") for m in messages)

    def test_unstable_generator_warns_and_still_writes(self, tmp_path):
        # random d = 4 system (rng 0, entries rounded to 2 decimals) at lambda = 1:
        # the BRME generator has spectral gap -0.10 and clipped negativity 2.5
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg["system"] = {"matrix": [
            ["0.13", "-0.33-0.09j", "-0.03-0.25j", "-1.11+0.75j"],
            ["-0.33+0.09j", "0.36", "0.02-0.38j", "0.36+0.07j"],
            ["-0.03+0.25j", "0.02+0.38j", "-0.62", "-0.6+0.04j"],
            ["-1.11-0.75j", "0.36-0.07j", "-0.6-0.04j", "-0.73"]]}
        cfg["coupling"] = {"lambda": 1.0, "x": [
            ["-0.16", "-0.06+0.66j", "-0.52-0.04j", "0.31-0.39j"],
            ["-0.06-0.66j", "-0.13", "1.15-0.99j", "0.59+0.78j"],
            ["-0.52+0.04j", "1.15+0.99j", "1.35", "1.12-1.2j"],
            ["0.31+0.39j", "0.59-0.78j", "1.12+1.2j", "1.96"]]}
        cfg["bath"]["beta"] = 2.0
        with pytest.warns(UserWarning) as record:
            assert cli.run_scenario(cfg, tmp_path / "out") == cli.EXIT_OK
        unstable = [str(w.message) for w in record if "unstable" in str(w.message)]
        assert len(unstable) == 1 and unstable[0].startswith("brme generator")
        generators = {row[0] for row in _read_rows(tmp_path / "out" / "steady_compare.csv")}
        assert "brme" in generators


    @pytest.mark.parametrize("bath_cfg", [{"kind": "none", "beta": 1.0}], ids=["no_bath"])
    def test_degenerate_null_space_warns_not_unique(self, tmp_path, bath_cfg):
        # without a bath L = -i[H_S, .]: no unique steady state, and the
        # generator is not called unstable
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg["bath"] = bath_cfg
        with pytest.warns(UserWarning) as record:
            assert cli.run_scenario(cfg, tmp_path / "out") == cli.EXIT_OK
        assert [str(w.message) for w in record] == [
            f"{g} generator has no unique steady state (3 candidates)"
            for g in ("davies", "brme", "brme_real_only")]


    @pytest.mark.parametrize("lam", [1e-1, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_small_coupling_davies_is_gibbs_without_warning(self, tmp_path, lam):
        # ||L|| / gap grows as 1/lambda^2; the energy-basis slow/fast solve
        # keeps Davies = Gibbs (and real-only = Gibbs) at rounding for every lambda
        cfg = deepcopy(cli.PRESETS["spin_boson"])
        cfg["coupling"]["lambda"] = lam
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run_scenario(cfg, tmp_path / "out") == cli.EXIT_OK
        dist = {(g, r): float(v) for g, r, v in
                _read_rows(tmp_path / "out" / "steady_compare.csv")}
        for generator in ("davies", "secular_full", "brme_real_only"):
            assert dist[generator, "gibbs"] <= 1e-10, generator


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
        # a value that 6 significant digits already read back keeps its %.6g name
        assert (out / "oscillator_beta_1").is_dir() and (out / "oscillator_beta_2").is_dir()

    def test_close_grid_values_get_their_own_directories(self, tmp_path):
        # equal to 6 significant digits: each point is named by the shortest
        # string that reads back as its value, so neither overwrites the other
        out = tmp_path / "sw"
        code = cli.main(["sweep", "--scenario", "oscillator_drude",
                         "--param", "oscillator.beta",
                         "--grid", "2.0000001,2.0000002", "--out", str(out)])
        assert code == cli.EXIT_OK
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == ["oscillator_beta_2.0000001", "oscillator_beta_2.0000002"]
        rows = (out / "sweep.csv").read_text().splitlines()[4:]  # after the # lines and header
        assert sorted(Path(row.split(",")[-1]).name for row in rows) == dirs

    def test_empty_grid_exits_2(self, tmp_path):
        code = cli.main(["sweep", "--scenario", "oscillator_drude",
                         "--param", "oscillator.beta", "--grid", ",",
                         "--out", str(tmp_path / "sw")])
        assert code == cli.EXIT_SCHEMA

    def test_non_numeric_grid_exits_2(self, tmp_path, capsys):
        code = cli.main(["sweep", "--scenario", "oscillator_drude",
                         "--param", "oscillator.beta", "--grid", "0.1,abc",
                         "--out", str(tmp_path / "sw")])
        assert code == cli.EXIT_SCHEMA
        assert "abc" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()


# modules that a CLI run loads only when it calls what needs them
_DEFERRED = ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.optimize",
             "scipy.sparse", "concurrent.futures.process")


def _loaded_after(code, cwd):
    """The modules of _DEFERRED that a fresh interpreter holds after running code."""
    script = f"import sys\n{code}\nprint(*[m for m in {_DEFERRED!r} if m in sys.modules])"
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestColdStart:
    """A run imports numpy, yaml and scipy.linalg, and the rest only on first
    use, so that a later top-level import cannot undo the cold start."""

    def test_import_loads_none(self, tmp_path):
        assert _loaded_after("import mfgkit.cli", tmp_path) == []

    def test_presets_without_quadpack_load_none(self, tmp_path):
        runs = "; ".join(f"assert cli.main(['run', '--scenario', {p!r}, '--out', {p!r}]) == 0"
                         for p in ("spin_boson", "fig1_weak", "fig1_strong"))
        assert _loaded_after(f"from mfgkit import cli; {runs}", tmp_path) == []

    def test_spline_runs_load_no_interpolate(self, tmp_path):
        table = tmp_path / "j.csv"
        w = np.linspace(0.0, 60.0, 200)
        j = 0.1 * w * np.exp(-w / 4)
        table.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(w.tolist(), j.tolist())))
        cfg = dict(cli.PRESETS["spin_boson"], task="statics_all")
        cfg["bath"] = {"kind": "tabulated", "path": str(table), "beta": 1.0}
        path = _write_scenario(tmp_path, cfg)
        runs = "; ".join(f"assert cli.main(['run', '--scenario', {p!r}, '--out', {o!r}]) == 0"
                         for p, o in ((path, "tab"), ("oscillator_drude", "osc")))
        assert "scipy.interpolate" not in _loaded_after(f"from mfgkit import cli; {runs}", tmp_path)
