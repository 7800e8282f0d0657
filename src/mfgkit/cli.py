"""Configuration-driven command line frontend.

Scenarios are YAML files (or named presets) describing a system, a coupling,
a bath, and a task; `run` executes the task and writes CSV artifacts, each
with a `#`-prefixed metadata header; `validate` runs the same field checks
as `run`, before any computation, and stops at the first problem; `sweep`
re-runs a scenario over a parameter grid.

All physics is computed in natural units (hbar = k_B = 1). SI scenarios
declare a reference energy E_ref in joules; energies convert as E/E_ref,
temperatures as beta = E_ref/(k_B T), and times in units of hbar/E_ref.

Exit codes: 0 success, 2 schema violation (the message names the field:
"bath.gamma must be nonnegative and finite, got -1.0"), 3 numerical failure,
4 partial sweep failure.
"""

import argparse
import csv
import hashlib
import reprlib
import sys
import warnings
from copy import deepcopy
from pathlib import Path

import numpy as np
import yaml

from . import __version__, bath as bathmod, clexact, finitebath, megen, mfstatics
from .bath import HBAR
from .opcore import HERMITICITY_TOL, PSD_FLOOR, gibbs, trace_distance

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


# libyaml's C emitter and parser when PyYAML was built with them: the same
# documents and errors as the pure-Python classes, several times faster
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
    try:
        with open(p) as fh:
            cfg = yaml.load(fh, Loader=_YAML_LOADER)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise SchemaError(f"cannot read scenario {path_or_preset}: {exc}") from None
    if not isinstance(cfg, dict):
        raise SchemaError("scenario file must contain a mapping")
    return cfg


_REQUIRED = object()  # the default of a field that must be given


def _parse(cfg: dict, path: str, cast, check, need: str, *, default=_REQUIRED):
    """cast(raw) of the field at a dotted path ("bath.gamma", "task"), if it
    passes check. An absent or null field takes `default` (None is returned as
    is). A cast raises ValueError for a value of the wrong kind, and failed
    arithmetic on a value (a temperature of 0 in 1/T) rejects it too."""
    *sections, key = path.split(".")
    node = cfg
    for depth, section in enumerate(sections, 1):
        node = {} if node.get(section) is None else node[section]
        if not isinstance(node, dict):
            raise SchemaError(f"{'.'.join(sections[:depth])} must be a mapping, "
                              f"got {reprlib.repr(node)}")
    raw = default if node.get(key) is None else node[key]
    if raw is _REQUIRED:
        raise SchemaError(f"missing required field {path!r} ({need})")
    if raw is None:
        return None
    try:
        value = cast(raw)
        if check(value):
            return value
    except (ValueError, ArithmeticError):
        pass
    raise SchemaError(f"{path} must be {need}, got {reprlib.repr(raw)}")


def _word(raw) -> str:
    return str(raw).lower()  # every caller checks it against a list of words


def _real(raw) -> float:
    """A number, or a numeric string: YAML reads 1e-21 (no dot) as a string."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ValueError(f"not a number: {raw!r}")
    return float(raw)


def _reals(raw) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"not a list: {raw!r}")
    return [_real(x) for x in raw]


def _integer(raw) -> int:
    """An integral number, 4.0 included: a sweep grid sets floats."""
    x = _real(raw)
    if not x.is_integer():
        raise ValueError(f"not an integer: {raw!r}")
    return int(x)


def _positive(x) -> bool:
    return 0 < x < np.inf


_COUNT = (_integer, lambda n: n >= 1, "an integer >= 1")
_POSITIVE = (_real, _positive, "positive and finite")
_NONNEGATIVE = (_real, lambda x: 0 <= x < np.inf, "nonnegative and finite")
_BATH_KINDS = ("drude_lorentz", "ohmic_exp", "super_ohmic_cubic", "tabulated", "none")


def _as_matrix(spec) -> np.ndarray:
    """A named operator, or a finite Hermitian square matrix literal (complex
    entries as strings such as "1j")."""
    if isinstance(spec, str):
        if spec not in _NAMED_OPS:
            raise SchemaError(f"unknown named operator {spec!r}")
        return _NAMED_OPS[spec].copy()
    m = np.asarray(spec)  # ValueError for a ragged literal
    if m.dtype.kind not in "iufcU" or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"operator must be a square matrix of numbers, got {spec!r}")
    m = m.astype(complex)  # ValueError for a string that is not a number
    if not np.isfinite(m).all() or (  # relative defect: the same in joules
            np.abs(m - m.conj().T).max() > HERMITICITY_TOL * np.abs(m).max()):
        raise SchemaError("operator must be finite and Hermitian")
    return m


class Scenario:
    """Validated scenario with everything converted to natural units. Every
    field is read and checked by `_parse` before a library object gets it."""

    def __init__(self, cfg: dict):
        self.config_hash = None  # of the run's one YAML dump, set by run_scenario
        self.task = _parse(cfg, "task", _word, lambda t: t in _TASKS,
                           f"one of {', '.join(_TASKS)}")
        self.units = _parse(cfg, "units", _word, lambda u: u in ("si", "natural"),
                            "'si' or 'natural'", default="natural")
        self.e_ref = _parse(cfg, "reference_energy", *_POSITIVE) if self.units == "si" else None

        if self.task == "oscillator":
            self.cl_params = clexact.CLParams(
                *(_parse(cfg, f"oscillator.{key}", *_POSITIVE)
                  for key in ("omega_0", "gamma", "omega_d", "beta")))
            return

        self.H_S = self._build_system(cfg)
        d = self.H_S.shape[0]
        self.X = _parse(cfg, "coupling.x", _as_matrix, lambda x: x.shape == (d, d),
                        f"a named operator or a finite Hermitian {d}x{d} matrix")
        self.lam = _parse(cfg, "coupling.lambda", *_NONNEGATIVE, default=1.0)
        self.J, self.beta = self._build_bath(cfg)
        self.bath_params = bathmod.BathParams(J=self.J, beta=self.beta, lam=self.lam)
        if self.task == "oracle":
            self.n_modes = _parse(cfg, "oracle.n_modes", *_COUNT, default=4)
            self.fock_cutoff = _parse(cfg, "oracle.fock_cutoff", *_COUNT, default=5)
            self.omega_max = _parse(cfg, "oracle.omega_max", *_POSITIVE,
                                    default=3 * self.J.scale())
            self.scheme = _parse(cfg, "oracle.scheme", _word,
                                 lambda x: x in (finitebath.LINEAR, finitebath.GAUSS),
                                 "'linear' or 'gauss'", default=finitebath.LINEAR)
            self.lambdas = _parse(cfg, "oracle.lambdas", _reals,
                                  lambda xs: len(xs) > 0 and all(0 <= x < np.inf for x in xs),
                                  "a non-empty list of nonnegative numbers",
                                  default=[self.lam, self.lam / 2, self.lam / 4])
        elif self.task == "dynamics":
            self.points = _parse(cfg, "dynamics.points", _integer, lambda n: n >= 2,
                                 "an integer >= 2", default=200)
            # no t_max: 20 relaxation times of the Davies generator, set when it runs
            self.t_max = _parse(cfg, "dynamics.t_max", *_POSITIVE, default=None)
            self.rho0 = _parse(cfg, "dynamics.initial",
                               lambda s: s if s in ("ground", "gibbs") else _as_matrix(s),
                               lambda s: isinstance(s, str) or s.shape == (d, d),
                               f"'ground', 'gibbs' or a Hermitian {d}x{d} matrix",
                               default="ground")
            if isinstance(self.rho0, str):  # the ground or the Gibbs state of H_S
                v = np.linalg.eigh(self.H_S)[1][:, 0]
                self.rho0 = (gibbs(self.H_S, self.beta) if self.rho0 == "gibbs"
                             else np.outer(v, v.conj()))

    # -- unit conversion -------------------------------------------------
    def energy(self, value: float) -> float:
        return float(value) / self.e_ref if self.units == "si" else float(value)

    def _beta_from(self, cfg: dict) -> float:
        if self.units == "si":
            return _parse(cfg, "bath.temperature",
                          lambda t: self.e_ref / (K_BOLTZMANN * _real(t)), _positive,
                          "positive kelvin")
        return _parse(cfg, "bath.beta", *_POSITIVE, default=None) or _parse(
            cfg, "bath.temperature", lambda t: 1.0 / _real(t), _positive,
            "positive and finite, when bath.beta is not given")

    # -- builders --------------------------------------------------------
    def _build_system(self, cfg: dict) -> np.ndarray:
        m = _parse(cfg, "system.matrix", _as_matrix, lambda m: True,
                   "a finite Hermitian square matrix", default=None)
        if m is not None:
            return self.energy(1.0) * m if self.units == "si" else m
        _parse(cfg, "system.preset", _word, lambda p: p == "spin_boson",
               "'spin_boson' (or give system.matrix)")
        eps, delta = (self.energy(_parse(cfg, f"system.{key}", _real, np.isfinite,
                                         "a finite number"))
                      for key in ("epsilon", "delta"))
        return (eps / 2) * _NAMED_OPS["sigma_z"] + (delta / 2) * _NAMED_OPS["sigma_x"]

    def _build_bath(self, cfg: dict):
        kind = _parse(cfg, "bath.kind", _word, lambda k: k in _BATH_KINDS,
                      f"one of {', '.join(_BATH_KINDS)}")
        beta = self._beta_from(cfg)
        if kind == "none":
            return bathmod.DrudeLorentz(gamma=0.0, omega_d=1.0), beta
        if kind == "tabulated":
            path = _parse(cfg, "bath.path", str, bool, "a file path")
            try:  # the file's contents are user input too
                return bathmod.load_tabulated(path, si_reference_energy=self.e_ref), beta
            except ValueError as exc:
                raise SchemaError(f"bath.path: {exc}") from None
        si = self.units == "si"  # without SI units the nan cutoff fails the check
        cutoff = _parse(cfg, "bath.relaxation_time_ps",
                        lambda t: HBAR / (_real(t) * 1e-12 * self.e_ref) if si else np.nan,
                        _positive, "positive picoseconds, with units: si", default=None)
        if cutoff is None:
            key = "omega_d" if kind == "drude_lorentz" else "omega_c"
            cutoff = self.energy(_parse(cfg, f"bath.{key}", *_POSITIVE))
        gamma = None
        if kind == "drude_lorentz":  # ell = lambda^2 gamma omega_D for this J; solve for gamma
            gamma = _parse(cfg, "bath.reorganization_energy",
                           lambda ell: self.energy(_real(ell)) / (self.lam ** 2 * cutoff),
                           lambda g: 0 <= g < np.inf,
                           "nonnegative and finite, with coupling.lambda > 0",
                           default=None)
        if gamma is None:
            gamma = self.energy(_parse(cfg, "bath.gamma", *_NONNEGATIVE))
        J = {"drude_lorentz": bathmod.DrudeLorentz, "ohmic_exp": bathmod.OhmicExp,
             "super_ohmic_cubic": bathmod.SuperOhmicCubic}[kind]
        return J(gamma, cutoff), beta


# -- output plumbing ------------------------------------------------------

def _config_hash(cfg: dict) -> tuple[str, str]:
    """The canonical YAML of cfg (the run's one dump) and its sha256 prefix."""
    canonical = yaml.dump(cfg, Dumper=_YAML_DUMPER, sort_keys=True)
    return canonical, hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_csv(path: Path, config_hash: str, units: str, header: list, rows: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# mfgkit {__version__}\n")
        fh.write(f"# config_hash: {config_hash}\n")
        fh.write(f"# units: {units}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v
                             for v in row])


def _state_rows(label: str, rho: np.ndarray):
    rows = []
    d = rho.shape[0]
    for i in range(d):
        for j in range(d):
            rows.append([label, i, j, float(rho[i, j].real), float(rho[i, j].imag)])
    return rows


def _energy_basis_observables(H_S, states):
    """Excited-state population and absolute coherence in the H_S eigenbasis,
    for a stack of states (n, d, d): two (n,) arrays, from one eigh of H_S."""
    v = np.linalg.eigh(H_S)[1]
    r = v.conj().T @ np.asarray(states) @ v
    return r[:, -1, -1].real, np.abs(r[:, -1, 0])


def _write_gibbs_observables(sc: Scenario, outdir: Path, tau: np.ndarray):
    pop, coh = _energy_basis_observables(sc.H_S, tau[None])
    _write_csv(outdir / "gibbs_observables.csv", sc.config_hash, sc.units,
               ["quantity", "value"],
               [["excited_population", float(pop[0])], ["abs_coherence", float(coh[0])]])


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
    _write_csv(outdir / "states.csv", sc.config_hash, sc.units,
               ["state", "row", "col", "value_re", "value_im"], rows)

    labels = list(states)
    dist_rows = [[a, b, trace_distance(states[a], states[b])]
                 for i, a in enumerate(labels) for b in labels[i + 1:]]
    _write_csv(outdir / "distances.csv", sc.config_hash, sc.units,
               ["state_a", "state_b", "trace_distance"], dist_rows)
    _write_csv(outdir / "diagnostics.csv", sc.config_hash, sc.units,
               ["quantity", "value"], diag_rows)
    _write_gibbs_observables(sc, outdir, tau)


def _task_dynamics(sc: Scenario, outdir: Path):
    L = megen.davies_generator(sc.H_S, sc.X, sc.bath_params)
    t_max = sc.t_max
    if t_max is None:  # 20 relaxation times of the Davies generator
        report = megen.steady_state(L)
        if not report.unique or report.spectral_gap <= 0:
            cause = (f"no unique steady state ({len(report.states)} candidates)"
                     if not report.unique else f"spectral gap {report.spectral_gap:.3g}")
            raise ValueError(f"the Davies generator has {cause}, so it sets no "
                             "relaxation time: give dynamics.t_max")
        t_max = 20.0 / report.spectral_gap
    t_grid = np.linspace(0.0, t_max, sc.points)

    rows = []
    for kind, gen in (("davies", L),
                      ("brme", megen.brme_generator(sc.H_S, sc.X, sc.bath_params))):
        try:
            traj = megen.evolve(gen, sc.rho0, t_grid)
        except RuntimeError as exc:  # the trace drift abort
            if sc.t_max is not None:
                raise
            raise RuntimeError(
                f"{exc} at t_max = 20/gap = {t_max:.3g} (Davies spectral gap "
                f"{report.spectral_gap:.3g}): give dynamics.t_max") from exc
        pop, coh = _energy_basis_observables(sc.H_S, traj.states)
        columns = (traj.times, pop, coh, traj.trace_deviation,
                   traj.hermiticity_deviation, traj.min_eigenvalue)
        rows.extend([kind, *row] for row in zip(*(c.tolist() for c in columns)))
    _write_csv(outdir / "trajectory.csv", sc.config_hash, sc.units,
               ["generator", "time", "excited_population", "abs_coherence",
                "trace_deviation", "hermiticity_deviation", "min_eigenvalue"],
               rows)
    _write_gibbs_observables(sc, outdir, gibbs(sc.H_S, sc.beta))


def _steady_state(name: str, L) -> np.ndarray:
    """The first steady state of L; warns when it is not unique, or when L is
    not a stable generator."""
    report = megen.steady_state(L)
    if not report.unique:
        warnings.warn(f"{name} generator has no unique steady state "
                      f"({len(report.states)} candidates)", stacklevel=2)
    elif report.spectral_gap <= 0 or report.clipped_negativity > PSD_FLOOR:
        warnings.warn(f"{name} generator is unstable (spectral gap {report.spectral_gap:.3g}, "
                      f"clipped negativity {report.clipped_negativity:.3g})", stacklevel=2)
    return report.states[0]


def _task_steady_compare(sc: Scenario, outdir: Path):
    tau = gibbs(sc.H_S, sc.beta)
    references = {"gibbs": tau}
    references["mfg_weak"] = mfstatics.mfg_weak(sc.H_S, sc.X, sc.bath_params).state
    try:
        references["mfg_ultrastrong"] = mfstatics.mfg_ultrastrong(
            sc.H_S, sc.X, sc.beta).state
    except ValueError:
        pass

    builders = {"davies": megen.davies_generator, "brme": megen.brme_generator,
                "brme_real_only": megen.brme_real_only}
    # one generator alive at a time
    steadies = {name: _steady_state(name, build(sc.H_S, sc.X, sc.bath_params))
                for name, build in builders.items()}
    steadies["secular_full"] = steadies["davies"]  # secular_filter(..., "full") is Davies
    try:
        split = mfstatics.pointer_split(sc.H_S, sc.X)
        ss = _steady_state("pauli_ultrastrong", megen.pauli_ultrastrong(split, sc.bath_params))
        u = split.pointer_basis
        steadies["pauli_ultrastrong"] = u @ ss @ u.conj().T
    except ValueError:
        pass

    rows = [[g, r, trace_distance(steadies[g], references[r])]
            for g in sorted(steadies) for r in sorted(references)]
    _write_csv(outdir / "steady_compare.csv", sc.config_hash, sc.units,
               ["generator", "reference", "trace_distance"], rows)


def _task_oracle(sc: Scenario, outdir: Path):
    modes = finitebath.discretize(sc.J, sc.n_modes, sc.omega_max, sc.scheme)
    spec = finitebath.FiniteBathSpec(modes=tuple(modes), fock_cutoff=sc.fock_cutoff,
                                     counter_term=True)
    J_disc = bathmod.DiscreteModes(
        modes=tuple((w, abs(g) ** 2) for w, g in modes))

    tau = gibbs(sc.H_S, sc.beta)
    rows = []
    for lam in sc.lambdas:
        exact = finitebath.ladder_mfg(sc.H_S, sc.X, lam, spec, sc.beta)
        weak = mfstatics.mfg_weak(
            sc.H_S, sc.X, bathmod.BathParams(J=J_disc, beta=sc.beta, lam=lam)).state
        rows.append([lam, trace_distance(exact, weak), trace_distance(exact, tau)])
    _write_csv(outdir / "oracle.csv", sc.config_hash, sc.units,
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
    _write_csv(outdir / "oscillator.csv", sc.config_hash, sc.units,
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
        sc = Scenario(cfg)
        canonical, sc.config_hash = _config_hash(cfg)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "expanded_config.yaml").write_text(canonical)
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


def _shortest(value: float) -> str:
    """The shortest %g string, of 6 digits or more, that reads back as value."""
    return next((s for s in (f"{value:.{n}g}" for n in range(6, 18)) if float(s) == value),
                repr(value))


def _sweep_point(args):
    cfg, param, value, outdir = args
    point_cfg = deepcopy(cfg)
    _set_by_path(point_cfg, param, value)
    point_dir = Path(outdir) / f"{param.replace('.', '_')}_{_shortest(value)}"
    code = run_scenario(point_cfg, point_dir)
    return value, code, str(point_dir)


def sweep_scenario(cfg: dict, param: str, grid, outdir: Path, jobs: int = 1) -> int:
    tasks = [(cfg, param, float(v), str(outdir)) for v in grid]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep needs it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    rows = [[v, code, "ok" if code == EXIT_OK else "failed", d]
            for v, code, d in results]
    _write_csv(Path(outdir) / "sweep.csv", _config_hash(cfg)[1], cfg.get("units", "natural"),
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
        if args.verb == "sweep":
            grid = _parse({"--grid": args.grid}, "--grid",
                          lambda s: _reals([x for x in s.split(",") if x.strip()]),
                          bool, "comma-separated numbers")
    except SchemaError as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    if args.verb == "validate":
        try:
            Scenario(cfg)
        except SchemaError as exc:
            print(f"schema: {exc}")
            return EXIT_SCHEMA
        print("ok: no issues")
        return EXIT_OK
    if args.verb == "run":
        return run_scenario(cfg, Path(args.out))
    return sweep_scenario(cfg, args.param, grid, Path(args.out), jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
