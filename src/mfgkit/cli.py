"""Configuration-driven command line frontend.

Scenarios are YAML files (or named presets) describing a system, a coupling,
a bath, and a task; `run` executes the task and writes CSV artifacts, each
with a `#`-prefixed metadata header; `validate` reports schema and physics
problems without running; `sweep` re-runs a scenario over a parameter grid.

All physics is computed in natural units (hbar = k_B = 1). SI scenarios
declare a reference energy E_ref in joules; energies convert as E/E_ref,
temperatures as beta = E_ref/(k_B T), and times in units of hbar/E_ref.

Exit codes: 0 success, 2 schema violation, 3 numerical failure,
4 partial sweep failure.
"""

import argparse
import csv
import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor
from copy import deepcopy
from pathlib import Path

import numpy as np
import yaml

from . import __version__, bath as bathmod, clexact, finitebath, megen, mfstatics
from .bath import HBAR
from .opcore import gibbs, trace_distance

K_BOLTZMANN = 1.380649e-23   # J/K

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

_NAMED_OPS = {
    "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sigma_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sigma_z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Qubit relaxing in a bath, weak and (moderately) strong coupling. The
# interaction strength is interpreted as the reorganization energy
# ell = lambda^2 int J/omega in joules; gap and temperature are quoted
# directly; the bath relaxation time sets the Drude frequency.
_FIG1_COMMON = {
    "units": "si",
    "reference_energy": 1.0e-21,
    "system": {"preset": "spin_boson", "epsilon": 1.6e-21, "delta": 1.2e-21},
    "coupling": {"x": "sigma_z", "lambda": 1.0},
    "bath": {
        "kind": "drude_lorentz",
        "relaxation_time_ps": 0.1,
        "temperature": 317.0,
        "reorganization_energy": None,  # filled per preset
    },
}

PRESETS = {
    "fig1_weak": {
        **deepcopy(_FIG1_COMMON),
        "name": "fig1_weak",
        "task": "dynamics",
        "bath": {**deepcopy(_FIG1_COMMON["bath"]),
                 "reorganization_energy": 0.4e-21},
    },
    "fig1_strong": {
        **deepcopy(_FIG1_COMMON),
        "name": "fig1_strong",
        "task": "statics_all",
        "bath": {**deepcopy(_FIG1_COMMON["bath"]),
                 "reorganization_energy": 4.0e-21},
    },
    "spin_boson": {
        "name": "spin_boson",
        "units": "natural",
        "task": "steady_compare",
        "system": {"preset": "spin_boson", "epsilon": 1.0, "delta": 0.5},
        "coupling": {"x": "sigma_z", "lambda": 0.1},
        "bath": {"kind": "drude_lorentz", "gamma": 0.1, "omega_d": 5.0,
                 "beta": 1.0},
    },
    "oracle_spin_boson": {
        "name": "oracle_spin_boson",
        "units": "natural",
        "task": "oracle",
        "system": {"preset": "spin_boson", "epsilon": 1.0, "delta": 0.5},
        "coupling": {"x": "sigma_z", "lambda": 0.16},
        "bath": {"kind": "drude_lorentz", "gamma": 0.3, "omega_d": 5.0,
                 "beta": 1.0},
        "oracle": {"n_modes": 4, "fock_cutoff": 5, "omega_max": 15.0,
                   "scheme": "linear", "lambdas": [0.16, 0.08, 0.04]},
    },
    "oscillator_drude": {
        "name": "oscillator_drude",
        "units": "natural",
        "task": "oscillator",
        "oscillator": {"omega_0": 1.0, "gamma": 0.5, "omega_d": 5.0,
                       "beta": 2.0},
    },
}


class SchemaError(ValueError):
    pass


def _load_scenario(path_or_preset: str) -> dict:
    if path_or_preset in PRESETS:
        return deepcopy(PRESETS[path_or_preset])
    p = Path(path_or_preset)
    if not p.exists():
        raise SchemaError(
            f"scenario {path_or_preset!r} is neither a file nor a preset "
            f"(presets: {', '.join(sorted(PRESETS))})"
        )
    with open(p) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise SchemaError("scenario file must contain a mapping")
    return cfg


def _require(cfg: dict, key: str, context: str = "scenario"):
    if key not in cfg or cfg[key] is None:
        raise SchemaError(f"{context} is missing required field {key!r}")
    return cfg[key]


def _section(cfg: dict, key: str) -> dict:
    fields = _require(cfg, key)
    if not isinstance(fields, dict):
        raise SchemaError(f"{key} must be a mapping, got {fields!r}")
    return fields


def _parse(cfg: dict, path: str, default, cast, valid, need: str):
    """cfg[section][key] for path "section.key", default when absent or null."""
    section, key = path.split(".")
    fields = cfg.get(section) or {}
    if not isinstance(fields, dict):
        raise SchemaError(f"{section} must be a mapping")
    raw = default if fields.get(key) is None else fields[key]
    try:
        value = cast(raw)
        if valid(value):
            return value
    except (TypeError, ValueError):
        pass
    raise SchemaError(f"{path} must be {need}, got {raw!r}")


_COUNT = (int, lambda n: n >= 1, "an integer >= 1")
_POSITIVE = (float, lambda x: 0 < x < np.inf, "positive and finite")


def _as_matrix(spec) -> np.ndarray:
    if isinstance(spec, str):
        if spec not in _NAMED_OPS:
            raise SchemaError(f"unknown named operator {spec!r}")
        return _NAMED_OPS[spec].copy()
    try:
        m = np.array(spec, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"operator is not a matrix literal: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"operator must be square, got shape {m.shape}")
    return m


class Scenario:
    """Validated scenario with everything converted to natural units."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.name = cfg.get("name", "unnamed")
        self.task = str(_require(cfg, "task")).lower()
        if self.task not in {"statics_all", "dynamics", "steady_compare",
                             "oracle", "oscillator"}:
            raise SchemaError(f"unknown task {self.task!r}")
        self.units = str(cfg.get("units", "natural")).lower()
        if self.units not in {"si", "natural"}:
            raise SchemaError(f"units must be 'si' or 'natural', got {self.units!r}")
        self.e_ref = None
        if self.units == "si":
            self.e_ref = float(_require(cfg, "reference_energy"))
            if self.e_ref <= 0:
                raise SchemaError("reference_energy must be positive (joules)")

        if self.task == "oscillator":
            osc = _section(cfg, "oscillator")
            self.cl_params = clexact.CLParams(
                omega_0=float(_require(osc, "omega_0", "oscillator")),
                gamma=float(_require(osc, "gamma", "oscillator")),
                omega_D=float(_require(osc, "omega_d", "oscillator")),
                beta=float(_require(osc, "beta", "oscillator")),
            )
            return

        self.H_S = self._build_system(_section(cfg, "system"))
        coupling = _section(cfg, "coupling")
        self.X = _as_matrix(_require(coupling, "x", "coupling"))
        if self.X.shape != self.H_S.shape:
            raise SchemaError("coupling operator dimension does not match H_S")
        self.lam = float(coupling.get("lambda", 1.0))
        if self.lam < 0:
            raise SchemaError("lambda must be nonnegative")
        self.J, self.beta = self._build_bath(_section(cfg, "bath"))
        self.bath_params = bathmod.BathParams(J=self.J, beta=self.beta,
                                              lam=self.lam)
        if self.task == "oracle":
            _require(cfg, "oracle")
            self.n_modes = _parse(cfg, "oracle.n_modes", 4, *_COUNT)
            self.fock_cutoff = _parse(cfg, "oracle.fock_cutoff", 5, *_COUNT)
            self.omega_max = _parse(cfg, "oracle.omega_max", 3 * self.J.scale(), *_POSITIVE)
            self.scheme = _parse(cfg, "oracle.scheme", finitebath.LINEAR, str.lower,
                                 lambda x: x in (finitebath.LINEAR, finitebath.GAUSS),
                                 "'linear' or 'gauss'")
            self.lambdas = _parse(cfg, "oracle.lambdas", [self.lam, self.lam / 2, self.lam / 4],
                                  lambda xs: [float(x) for x in xs],
                                  lambda xs: all(x >= 0 for x in xs), "nonnegative numbers")
        elif self.task == "dynamics":
            self.points = _parse(cfg, "dynamics.points", 200, int, lambda n: n >= 2,
                                 "an integer >= 2")
            dyn = cfg.get("dynamics") or {}  # a mapping, checked by _parse
            # no t_max: 20 relaxation times of the Davies generator, set when it runs
            self.t_max = None if dyn.get("t_max") is None else _parse(
                cfg, "dynamics.t_max", None, *_POSITIVE)
            self.rho0 = self._initial_state(dyn.get("initial"))

    def _initial_state(self, initial) -> np.ndarray:
        if initial in (None, "ground"):
            v = np.linalg.eigh(self.H_S)[1][:, 0]
            return np.outer(v, v.conj())
        if initial == "gibbs":
            return gibbs(self.H_S, self.beta)
        rho0 = _as_matrix(initial)
        if rho0.shape != self.H_S.shape:
            raise SchemaError(f"dynamics.initial has shape {rho0.shape}, H_S {self.H_S.shape}")
        return rho0

    # -- unit conversion -------------------------------------------------
    def energy(self, value: float) -> float:
        return float(value) / self.e_ref if self.units == "si" else float(value)

    def _beta_from(self, bath_cfg: dict) -> float:
        if self.units == "si":
            temp = float(_require(bath_cfg, "temperature", "bath"))
            if temp <= 0:
                raise SchemaError("temperature must be positive kelvin")
            return self.e_ref / (K_BOLTZMANN * temp)
        if "beta" in bath_cfg and bath_cfg["beta"] is not None:
            beta = float(bath_cfg["beta"])
        elif "temperature" in bath_cfg and bath_cfg["temperature"] is not None:
            beta = 1.0 / float(bath_cfg["temperature"])
        else:
            raise SchemaError("bath needs 'beta' or 'temperature'")
        if beta <= 0:
            raise SchemaError("beta must be positive")
        return beta

    # -- builders --------------------------------------------------------
    def _build_system(self, sys_cfg: dict) -> np.ndarray:
        if "matrix" in sys_cfg:
            m = _as_matrix(sys_cfg["matrix"])
            return self.energy(1.0) * m if self.units == "si" else m
        preset = str(_require(sys_cfg, "preset", "system")).lower()
        if preset != "spin_boson":
            raise SchemaError(f"unknown system preset {preset!r}")
        eps = self.energy(_require(sys_cfg, "epsilon", "system"))
        delta = self.energy(_require(sys_cfg, "delta", "system"))
        return (eps / 2) * _NAMED_OPS["sigma_z"] + (delta / 2) * _NAMED_OPS["sigma_x"]

    def _build_bath(self, bath_cfg: dict):
        beta = self._beta_from(bath_cfg)
        kind = str(_require(bath_cfg, "kind", "bath")).lower()
        if kind == "none":
            return bathmod.DrudeLorentz(gamma=0.0, omega_d=1.0), beta
        if kind == "tabulated":
            path = _require(bath_cfg, "path", "bath")
            return bathmod.load_tabulated(path, si_reference_energy=self.e_ref), beta
        if "relaxation_time_ps" in bath_cfg and bath_cfg["relaxation_time_ps"]:
            if self.units != "si":
                raise SchemaError("relaxation_time_ps requires SI units")
            t_rel = float(bath_cfg["relaxation_time_ps"]) * 1e-12
            cutoff = HBAR / (t_rel * self.e_ref)
        else:
            key = "omega_d" if kind == "drude_lorentz" else "omega_c"
            cutoff = self.energy(_require(bath_cfg, key, "bath"))
        if kind == "drude_lorentz":
            if bath_cfg.get("reorganization_energy") is not None:
                # ell = lambda^2 gamma omega_D for this J; solve for gamma
                ell = self.energy(bath_cfg["reorganization_energy"])
                gamma = ell / (max(self.lam, 1e-300) ** 2 * cutoff)
            else:
                gamma = self.energy(_require(bath_cfg, "gamma", "bath"))
            return bathmod.DrudeLorentz(gamma=gamma, omega_d=cutoff), beta
        if kind == "ohmic_exp":
            gamma = self.energy(_require(bath_cfg, "gamma", "bath"))
            return bathmod.OhmicExp(gamma=gamma, omega_c=cutoff), beta
        if kind == "super_ohmic_cubic":
            gamma = self.energy(_require(bath_cfg, "gamma", "bath"))
            return bathmod.SuperOhmicCubic(gamma=gamma, omega_c=cutoff), beta
        raise SchemaError(f"unknown bath kind {kind!r}")


# -- validation -------------------------------------------------------------

def _build_scenario(cfg: dict) -> Scenario:
    """The validated scenario; every schema problem raises SchemaError. Scenario
    converts fields with bare float(...), so a list or mapping where a number
    belongs raises TypeError, which is a schema problem here too."""
    try:
        return Scenario(cfg)
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid parameter value: {exc}") from exc


# -- output plumbing ------------------------------------------------------

def _config_hash(cfg: dict) -> str:
    canonical = yaml.safe_dump(cfg, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_csv(path: Path, cfg: dict, units: str, header: list, rows: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# mfgkit {__version__}\n")
        fh.write(f"# config_hash: {_config_hash(cfg)}\n")
        fh.write(f"# units: {units}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v
                             for v in row])


def _echo_config(outdir: Path, cfg: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "expanded_config.yaml", "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


def _state_rows(label: str, rho: np.ndarray):
    rows = []
    d = rho.shape[0]
    for i in range(d):
        for j in range(d):
            rows.append([label, i, j, float(rho[i, j].real), float(rho[i, j].imag)])
    return rows


def _energy_basis_observables(H_S, rho):
    """Excited-state population and absolute coherence in the H_S eigenbasis."""
    w, v = np.linalg.eigh(H_S)
    r = v.conj().T @ rho @ v
    return float(r[-1, -1].real), float(abs(r[-1, 0]))


def _high_t_inputs(sc: Scenario):
    """Map a single-bath traceless qubit coupling onto the projector-coupled
    dimer (one bath per pointer state) that the high-T formula expects.

    Exactness of the map: the pointer-projector combination coupled to the
    symmetric bath mode factorizes out, leaving per-projector reorganization
    energies ell_n = 2 lambda^2 int J/omega for X with eigenvalues +-1.
    """
    x_vals = np.sort(np.linalg.eigvalsh(sc.X))
    if sc.X.shape[0] != 2 or not np.allclose(x_vals, [-1.0, 1.0], atol=1e-9):
        return None
    w, u = np.linalg.eigh(sc.X)
    projectors = [np.outer(u[:, k], u[:, k].conj()) for k in range(2)]
    baths = [(sc.J, np.sqrt(2.0) * sc.lam)] * 2
    return projectors, baths


# -- tasks ----------------------------------------------------------------

def _task_statics_all(sc: Scenario, outdir: Path):
    tau = gibbs(sc.H_S, sc.beta)
    states = {"gibbs": tau}
    diag_rows = []

    try:
        weak = mfstatics.mfg_weak(sc.H_S, sc.X, sc.bath_params)
    except mfstatics.ValidityError as exc:
        diag_rows.append(["weak_skipped", str(exc)])
    else:
        states["mfg_weak"] = weak.state
        for k, v in weak.diagnostics.items():
            diag_rows.append([f"weak_{k}", v])
    try:
        states["mfg_ultrastrong"] = mfstatics.mfg_ultrastrong(
            sc.H_S, sc.X, sc.beta).state
    except ValueError as exc:
        diag_rows.append(["ultrastrong_skipped", str(exc)])
    ht = _high_t_inputs(sc)
    if ht is not None:
        res = mfstatics.mfg_high_t(sc.H_S, ht[0], ht[1], sc.beta)
        states["mfg_high_t"] = res.state
        diag_rows.append(["high_t_ell_beta", res.diagnostics["ell_beta"]])

    rows = []
    for label, rho in states.items():
        rows.extend(_state_rows(label, rho))
    _write_csv(outdir / "states.csv", sc.cfg, sc.units,
               ["state", "row", "col", "value_re", "value_im"], rows)

    labels = list(states)
    dist_rows = [[a, b, trace_distance(states[a], states[b])]
                 for i, a in enumerate(labels) for b in labels[i + 1:]]
    _write_csv(outdir / "distances.csv", sc.cfg, sc.units,
               ["state_a", "state_b", "trace_distance"], dist_rows)
    _write_csv(outdir / "diagnostics.csv", sc.cfg, sc.units,
               ["quantity", "value"], diag_rows)
    pop, coh = _energy_basis_observables(sc.H_S, tau)
    _write_csv(outdir / "gibbs_observables.csv", sc.cfg, sc.units,
               ["quantity", "value"],
               [["excited_population", pop], ["abs_coherence", coh]])


def _task_dynamics(sc: Scenario, outdir: Path):
    L = megen.davies_generator(sc.H_S, sc.X, sc.bath_params)
    t_max = sc.t_max or 20.0 / max(megen.steady_state(L).spectral_gap, 1e-12)
    t_grid = np.linspace(0.0, t_max, sc.points)

    rows = []
    for kind, gen in (("davies", L),
                      ("brme", megen.brme_generator(sc.H_S, sc.X, sc.bath_params))):
        traj = megen.evolve(gen, sc.rho0, t_grid)
        for k, t in enumerate(traj.times):
            pop, coh = _energy_basis_observables(sc.H_S, traj.states[k])
            rows.append([kind, float(t), pop, coh,
                         float(traj.trace_deviation[k]),
                         float(traj.hermiticity_deviation[k]),
                         float(traj.min_eigenvalue[k])])
    _write_csv(outdir / "trajectory.csv", sc.cfg, sc.units,
               ["generator", "time", "excited_population", "abs_coherence",
                "trace_deviation", "hermiticity_deviation", "min_eigenvalue"],
               rows)
    pop, coh = _energy_basis_observables(sc.H_S, gibbs(sc.H_S, sc.beta))
    _write_csv(outdir / "gibbs_observables.csv", sc.cfg, sc.units,
               ["quantity", "value"],
               [["excited_population", pop], ["abs_coherence", coh]])


def _task_steady_compare(sc: Scenario, outdir: Path):
    tau = gibbs(sc.H_S, sc.beta)
    references = {"gibbs": tau}
    references["mfg_weak"] = mfstatics.mfg_weak(sc.H_S, sc.X, sc.bath_params).state
    try:
        references["mfg_ultrastrong"] = mfstatics.mfg_ultrastrong(
            sc.H_S, sc.X, sc.beta).state
    except ValueError:
        pass

    generators = {
        "davies": megen.davies_generator(sc.H_S, sc.X, sc.bath_params),
        "brme": megen.brme_generator(sc.H_S, sc.X, sc.bath_params),
        "brme_real_only": megen.brme_real_only(sc.H_S, sc.X, sc.bath_params),
        "secular_full": megen.secular_filter(sc.H_S, sc.X, sc.bath_params, "full"),
    }
    steadies = {}
    for name, L in generators.items():
        steadies[name] = megen.steady_state(L).states[0]
    try:
        split = mfstatics.pointer_split(sc.H_S, sc.X)
        Lp = megen.pauli_ultrastrong(split, sc.bath_params)
        ss = megen.steady_state(Lp).states[0]
        u = split.pointer_basis
        steadies["pauli_ultrastrong"] = u @ ss @ u.conj().T
    except ValueError:
        pass

    rows = [[g, r, trace_distance(steadies[g], references[r])]
            for g in sorted(steadies) for r in sorted(references)]
    _write_csv(outdir / "steady_compare.csv", sc.cfg, sc.units,
               ["generator", "reference", "trace_distance"], rows)


def _task_oracle(sc: Scenario, outdir: Path):
    modes = finitebath.discretize(sc.J, sc.n_modes, sc.omega_max, sc.scheme)
    spec = finitebath.FiniteBathSpec(modes=tuple(modes), fock_cutoff=sc.fock_cutoff,
                                     counter_term=True)
    J_disc = bathmod.DiscreteModes(
        modes=tuple((w, abs(g) ** 2) for w, g in modes))

    rows = []
    for lam in sc.lambdas:
        model = finitebath.assemble(sc.H_S, sc.X, lam, spec)
        exact = finitebath.exact_mfg(model, sc.beta)
        weak = mfstatics.mfg_weak(
            sc.H_S, sc.X, bathmod.BathParams(J=J_disc, beta=sc.beta, lam=lam)).state
        rows.append([lam, trace_distance(exact, weak),
                     trace_distance(exact, gibbs(sc.H_S, sc.beta))])
    _write_csv(outdir / "oracle.csv", sc.cfg, sc.units,
               ["lambda", "dist_exact_vs_weak", "dist_exact_vs_gibbs"], rows)


def _task_oscillator(sc: Scenario, outdir: Path):
    p = sc.cl_params
    m = clexact.moments(p)
    J = bathmod.DrudeLorentz(gamma=p.gamma, omega_d=p.omega_D)
    x2 = clexact.position_correlation(J, p.beta, p.omega_0)
    xx_route2 = p.omega_0 * x2  # unit-free <x~^2> = omega_0 <x^2> at m = 1
    rows = [
        ["xx_logz_route", m.xx],
        ["pp_logz_route", m.pp],
        ["px_im", m.px.imag],
        ["xx_correlator_route", xx_route2],
        ["cross_route_residual", abs(m.xx - xx_route2) / m.xx],
        ["log_partition", clexact.log_partition(p)],
    ]
    _write_csv(outdir / "oscillator.csv", sc.cfg, sc.units,
               ["quantity", "value"], rows)


_TASKS = {
    "statics_all": _task_statics_all,
    "dynamics": _task_dynamics,
    "steady_compare": _task_steady_compare,
    "oracle": _task_oracle,
    "oscillator": _task_oscillator,
}


def run_scenario(cfg: dict, outdir: Path) -> int:
    try:
        sc = _build_scenario(cfg)
        _echo_config(outdir, cfg)
        _TASKS[sc.task](sc, outdir)
    except SchemaError as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, RuntimeError, ArithmeticError) as exc:  # numerical failures
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _set_by_path(cfg: dict, dotted: str, value):
    node = cfg
    parts = dotted.split(".")
    for key in parts[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[parts[-1]] = value


def _sweep_point(args):
    cfg, param, value, outdir = args
    point_cfg = deepcopy(cfg)
    _set_by_path(point_cfg, param, value)
    point_dir = Path(outdir) / f"{param.replace('.', '_')}_{value:.6g}"
    code = run_scenario(point_cfg, point_dir)
    return value, code, str(point_dir)


def sweep_scenario(cfg: dict, param: str, grid, outdir: Path, jobs: int = 1) -> int:
    tasks = [(cfg, param, float(v), str(outdir)) for v in grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    rows = [[v, code, "ok" if code == EXIT_OK else "failed", d]
            for v, code, d in results]
    _write_csv(Path(outdir) / "sweep.csv", cfg, cfg.get("units", "natural"),
               [param, "exit_code", "status", "artifact_dir"], rows)
    if any(code != EXIT_OK for _, code, _ in results):
        return EXIT_PARTIAL
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgkit",
        description="Mean force Gibbs states and master-equation generators",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "validate", "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("--scenario", required=True,
                       help="scenario YAML path or preset name")
        p.add_argument("--out", default="out", help="output directory")
        if verb == "sweep":
            p.add_argument("--param", required=True,
                           help="dotted config path, e.g. coupling.lambda")
            p.add_argument("--grid", required=True,
                           help="comma-separated values")
            p.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = _load_scenario(args.scenario)
    except SchemaError as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    if args.verb == "validate":
        try:
            _build_scenario(cfg)
        except SchemaError as exc:
            print(f"schema: {exc}")
            return EXIT_SCHEMA
        print("ok: no issues")
        return EXIT_OK
    if args.verb == "run":
        return run_scenario(cfg, Path(args.out))
    grid = [float(x) for x in args.grid.split(",") if x.strip()]
    if not grid:
        print("error: schema: empty --grid", file=sys.stderr)
        return EXIT_SCHEMA
    return sweep_scenario(cfg, args.param, grid, Path(args.out), jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
