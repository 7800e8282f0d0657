"""Workload inputs, operations and output checks for the mfgkit benchmark.

A workload is a batch of operations made from a seed. An operation is one
scenario run through the CLI layer or one transient time point through the
library. Each operation returns an output that `check` judges on physics
invariants that hold on every seed and, at DEFAULT_SEED, against numbers
recorded in reference.json. The benchmark passes mfgkit only the inputs
made here, through its public calls.
"""

import copy
import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from mfgkit import bath, cli, megen
from mfgkit.opcore import gibbs, trace_distance

WORKLOADS = ("oracle", "redfield_d10", "transient", "cli_mix")
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Agreement with reference.json: absolute tolerances. Trace distances get
# the tighter one; the smallest recorded oracle distance is ~6e-8.
TD_ATOL = 1e-9
VALUE_ATOL = 1e-8

# Acceptance invariants that hold on any seed. Trajectories must also keep
# trace drift and Hermiticity deviation below megen.TRACE_DRIFT_ABORT.
GIBBS_TD_TOL = 1e-10        # Davies / secular / real-only steady state vs Gibbs
ULTRASTRONG_TD_TOL = 1e-12  # Pauli steady state vs the ultrastrong MFG state
DENSITY_TOL = 1e-10         # trace, Hermiticity and positivity of reported states

# Oracle: N=3 modes with Fock cutoff 7 gives D = 2*8^3 = 1024. The lambda
# ladder stays fixed; the seed moves only epsilon and Delta.
ORACLE_MODES = 3
ORACLE_FOCK_CUTOFF = 7
ORACLE_LAMBDAS = (0.16, 0.08, 0.04)
REDFIELD_DIM = 10
# fixed spectrum: level spacings above 0.3, all 90 nonzero Bohr frequencies distinct
REDFIELD_SPECTRUM = (np.linspace(-2.0, 2.0, REDFIELD_DIM)
                     + np.random.default_rng(2119).uniform(-0.1, 0.1, REDFIELD_DIM))
TRANSIENT_TIMES = (2.0,)
TRANSIENT_GRID = np.linspace(0.0, 50.0, 100)
CLI_PRESETS = ("fig1_weak", "fig1_strong", "spin_boson", "oscillator_drude")
TABULATED_POINTS = 200

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass
class Op:
    """One operation: a scenario run ("scenario" or "cli") or a transient point."""

    name: str
    kind: str
    payload: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _jitter(rng, value, rel):
    return float(value * (1.0 + rng.uniform(-rel, rel)))


def _write_scenario(inputs: Path, name: str, cfg: dict) -> tuple[Path, dict]:
    """Write cfg as a scenario file and load it back: the program sees the file."""
    path = inputs / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path, yaml.safe_load(path.read_text())


def make_inputs(workload: str, seed: int, inputs: Path) -> list[Op]:
    """Generate the workload's inputs from the seed; files go under `inputs`.

    Paths inside scenarios are relative to the parent of `inputs`, which is
    the working directory of the process that runs them.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    if workload == "oracle":
        cfg = copy.deepcopy(cli.PRESETS["oracle_spin_boson"])
        cfg["system"]["epsilon"] = _jitter(rng, 1.0, 0.05)
        cfg["system"]["delta"] = _jitter(rng, 0.5, 0.05)
        cfg["oracle"].update(n_modes=ORACLE_MODES, fock_cutoff=ORACLE_FOCK_CUTOFF,
                             lambdas=list(ORACLE_LAMBDAS))
        _, cfg = _write_scenario(inputs, "oracle", cfg)
        return [Op("oracle", "scenario", {"cfg": cfg})]
    if workload == "redfield_d10":
        # The seed draws the eigenbasis of H_S and the coupling X. The spectrum
        # of H_S is fixed, so every seed asks the bath for the same 91 Bohr
        # frequencies and the quadrature work does not depend on the seed.
        q, _ = np.linalg.qr(rng.normal(size=(REDFIELD_DIM, REDFIELD_DIM)))
        h = (q * REDFIELD_SPECTRUM) @ q.T
        x = rng.normal(size=(REDFIELD_DIM, REDFIELD_DIM))
        x = (x + x.T) / np.linalg.norm(x + x.T, 2)
        cfg = copy.deepcopy(cli.PRESETS["spin_boson"])
        cfg["name"] = "redfield_d10"
        cfg["system"] = {"matrix": ((h + h.T) / 2).tolist()}
        cfg["coupling"]["x"] = x.tolist()
        _, cfg = _write_scenario(inputs, "redfield_d10", cfg)
        return [Op("redfield_d10", "scenario", {"cfg": cfg})]
    if workload == "transient":
        eps, delta = _jitter(rng, 1.0, 0.05), _jitter(rng, 0.5, 0.05)
        H = 0.5 * eps * _SZ + 0.5 * delta * _SX
        bp = bath.BathParams(J=bath.DrudeLorentz(gamma=0.1, omega_d=5.0),
                             beta=1.0, lam=0.1)
        _, v = np.linalg.eigh(H)
        rho0 = np.outer(v[:, 0], v[:, 0].conj())
        return [Op(f"transient.t{t:g}", "transient",
                   {"H": H, "X": _SZ, "bath": bp, "time": t, "rho0": rho0,
                    "grid": TRANSIENT_GRID})
                for t in TRANSIENT_TIMES]
    if workload == "cli_mix":
        return _cli_mix_inputs(rng, inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _cli_mix_inputs(rng, inputs: Path) -> list[Op]:
    ops = []
    for preset in CLI_PRESETS:
        cfg = copy.deepcopy(cli.PRESETS[preset])
        section, keys = (("oscillator", ("omega_0", "gamma")) if preset == "oscillator_drude"
                         else ("system", ("epsilon", "delta")))
        for key in keys:
            cfg[section][key] = _jitter(rng, cfg[section][key], 0.02)
        path, cfg = _write_scenario(inputs, preset, cfg)
        ops.append(Op(preset, "cli", {"scenario": str(path.relative_to(inputs.parent)),
                                      "task": cfg["task"]}))
    # Ohmic J(w) = 0.1 w exp(-w/4) on a grid whose tail has decayed. The shape
    # is fixed, so the quadrature work does not depend on the seed.
    w = np.linspace(0.0, 60.0, TABULATED_POINTS)
    table = inputs / "tabulated_ohmic.csv"
    with open(table, "w") as fh:
        fh.write("# units: natural\n")
        for wk, jk in zip(w, 0.1 * w * np.exp(-w / 4.0)):
            fh.write(f"{float(wk)!r},{float(jk)!r}\n")
    cfg = {
        "name": "tabulated_ohmic",
        "units": "natural",
        "task": "statics_all",
        "system": {"preset": "spin_boson", "epsilon": _jitter(rng, 1.0, 0.02),
                   "delta": _jitter(rng, 0.5, 0.02)},
        "coupling": {"x": "sigma_z", "lambda": 0.1},
        "bath": {"kind": "tabulated", "path": str(table.relative_to(inputs.parent)),
                 "beta": 1.0},
    }
    path, cfg = _write_scenario(inputs, "tabulated_ohmic", cfg)
    ops.append(Op("tabulated_ohmic", "cli", {"scenario": str(path.relative_to(inputs.parent)),
                                             "task": "statics_all"}))
    return ops


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------


def run_op(op: Op, out: Path):
    """Run one operation; returns what `check` and `digest` need."""
    if op.kind == "scenario":
        code = cli.run_scenario(op.payload["cfg"], out)
        return {"code": code, "dir": out}
    if op.kind == "cli":
        code = cli.main(["run", "--scenario", op.payload["scenario"], "--out", str(out)])
        return {"code": code, "dir": out}
    p = op.payload
    L = megen.brme_generator(p["H"], p["X"], p["bath"], time=p["time"])
    traj = megen.evolve(L, p["rho0"], p["grid"])
    report = megen.steady_state(L)
    return {"L": L, "traj": traj, "steady": report}


def digest(op: Op, result) -> str:
    """SHA-256 over every output byte, to compare repetitions of one input."""
    h = hashlib.sha256()
    if "dir" in result:
        for path in sorted(Path(result["dir"]).rglob("*")):
            if path.is_file():
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()
    h.update(result["L"].matrix.tobytes())
    for rho in result["traj"].states:
        h.update(np.ascontiguousarray(rho).tobytes())
    for rho in result["steady"].states:
        h.update(np.ascontiguousarray(rho).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class CheckError(AssertionError):
    """An operation's output violates a physics invariant or the reference."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


def _check_density(label, rho):
    rho = np.asarray(rho, dtype=complex)
    _require(np.isfinite(rho).all(), f"{label}: non-finite entries")
    _require(abs(np.trace(rho).real - 1.0) < DENSITY_TOL, f"{label}: trace is not 1")
    _require(np.abs(rho - rho.conj().T).max() < DENSITY_TOL, f"{label}: not Hermitian")
    _require(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -DENSITY_TOL,
             f"{label}: not positive")


def _distance(value, label):
    _require(np.isfinite(value) and 0.0 <= value <= 1.0 + 1e-12,
             f"{label}: trace distance {value} outside [0, 1]")
    return value


def _check_oracle(d: Path):
    rows = read_csv(d / "oracle.csv")
    lams = [float(r["lambda"]) for r in rows]
    _require(np.allclose(lams, ORACLE_LAMBDAS, rtol=0, atol=1e-15), f"lambdas {lams}")
    weak = [_distance(float(r["dist_exact_vs_weak"]), "exact vs weak") for r in rows]
    free = [_distance(float(r["dist_exact_vs_gibbs"]), "exact vs gibbs") for r in rows]
    obs, diag = {}, {}
    for lam, w, g in zip(lams, weak, free):
        _require(0.0 < w < g, f"lambda={lam}: weak-coupling state no closer than Gibbs")
        obs[f"td.exact_vs_weak@{lam:g}"] = w
        obs[f"td.exact_vs_gibbs@{lam:g}"] = g
    for i in range(len(lams) - 1):
        # halving lambda: the O(lambda^2) shift from Gibbs falls ~4x; the
        # weak-coupling error is O(lambda^4) (~16x) down to the Fock floor
        free_ratio, weak_ratio = free[i] / free[i + 1], weak[i] / weak[i + 1]
        _require(3.5 < free_ratio < 4.5, f"Gibbs-distance halving ratio {free_ratio:.3g}")
        _require(weak_ratio > 8.0, f"weak-error halving ratio {weak_ratio:.3g} below 8")
        diag[f"lambda4_halving_ratio_{i + 1}"] = weak_ratio
    return obs, diag


def _check_steady_compare(d: Path):
    dist = {(r["generator"], r["reference"]): _distance(float(r["trace_distance"]),
                                                      f"{r['generator']} vs {r['reference']}")
            for r in read_csv(d / "steady_compare.csv")}
    for gen in ("davies", "secular_full", "brme_real_only"):
        _require(dist[(gen, "gibbs")] < GIBBS_TD_TOL,
                 f"{gen} steady state differs from Gibbs by {dist[(gen, 'gibbs')]:.3e}")
    pauli = dist[("pauli_ultrastrong", "mfg_ultrastrong")]
    _require(pauli < ULTRASTRONG_TD_TOL,
             f"Pauli steady state differs from the ultrastrong state by {pauli:.3e}")
    _require(len(dist) == 15, f"expected 15 generator/reference pairs, got {len(dist)}")
    return {f"td.{g}_vs_{r}": v for (g, r), v in dist.items()}, {}


def _check_statics(d: Path):
    states = {}
    for r in read_csv(d / "states.csv"):
        states.setdefault(r["state"], []).append(r)
    obs = {}
    for label, rows in states.items():
        dim = int(round(np.sqrt(len(rows))))
        rho = np.zeros((dim, dim), dtype=complex)
        for r in rows:
            rho[int(r["row"]), int(r["col"])] = complex(float(r["value_re"]),
                                                        float(r["value_im"]))
        _check_density(label, rho)
    _require({"gibbs", "mfg_weak", "mfg_ultrastrong"} <= set(states),
             f"missing states: {sorted(states)}")
    for r in read_csv(d / "distances.csv"):
        obs[f"td.{r['state_a']}_vs_{r['state_b']}"] = _distance(
            float(r["trace_distance"]), f"{r['state_a']} vs {r['state_b']}")
    for r in read_csv(d / "gibbs_observables.csv"):
        obs[r["quantity"]] = float(r["value"])
    return obs, {}


def _check_dynamics(d: Path):
    rows = read_csv(d / "trajectory.csv")
    gibbs_pop = {r["quantity"]: float(r["value"])
                 for r in read_csv(d / "gibbs_observables.csv")}["excited_population"]
    obs = {"gibbs_excited_population": gibbs_pop}
    for gen in ("davies", "brme"):
        traj = [r for r in rows if r["generator"] == gen]
        _require(len(traj) > 1, f"{gen}: empty trajectory")
        drift = max(float(r["trace_deviation"]) for r in traj)
        _require(drift < megen.TRACE_DRIFT_ABORT, f"{gen}: trace drift {drift:.3e}")
        herm = max(float(r["hermiticity_deviation"]) for r in traj)
        _require(herm < megen.TRACE_DRIFT_ABORT, f"{gen}: Hermiticity deviation {herm:.3e}")
        for k in (len(traj) // 4, len(traj) // 2):
            obs[f"{gen}.excited_population@{k}"] = float(traj[k]["excited_population"])
        obs[f"{gen}.final_excited_population"] = float(traj[-1]["excited_population"])
    # the run lasts 20 relaxation times: the Davies population has reached Gibbs
    final = obs["davies.final_excited_population"]
    _require(abs(final - gibbs_pop) < 1e-6,
             f"Davies final population {final} vs Gibbs {gibbs_pop}")
    return obs, {}


def _check_oscillator(d: Path):
    vals = {r["quantity"]: float(r["value"]) for r in read_csv(d / "oscillator.csv")}
    _require(vals["xx_logz_route"] > 0 and vals["pp_logz_route"] > 0, "moments not positive")
    _require(vals["xx_logz_route"] * vals["pp_logz_route"] >= 0.25, "Heisenberg violated")
    _require(abs(vals["px_im"] + 0.5) < 1e-12, f"px_im = {vals['px_im']}")
    _require(vals["cross_route_residual"] < 1e-6,
             f"cross-route residual {vals['cross_route_residual']:.3e}")
    return vals, {}


def _check_transient(result, op: Op):
    traj, report = result["traj"], result["steady"]
    drift = float(np.max(traj.trace_deviation))
    _require(drift < megen.TRACE_DRIFT_ABORT, f"trace drift {drift:.3e}")
    herm = float(np.max(traj.hermiticity_deviation))
    _require(herm < megen.TRACE_DRIFT_ABORT, f"Hermiticity deviation {herm:.3e}")
    _require(report.unique, "steady state is not unique")
    _require(report.residual < 1e-10 * max(1.0, np.linalg.norm(result["L"].matrix, 2)),
             f"steady-state residual {report.residual:.3e}")
    ss = report.states[0]
    _check_density("steady state", ss)
    p = op.payload
    tau = gibbs(p["H"], p["bath"].beta)
    w, v = np.linalg.eigh(p["H"])
    obs = {"td.steady_vs_gibbs": trace_distance(ss, tau),
           "spectral_gap": report.spectral_gap}
    for k in (len(traj.states) // 2, len(traj.states) - 1):
        obs[f"excited_population@{k}"] = float((v.conj().T @ traj.states[k] @ v)[1, 1].real)
    obs["steady.excited_population"] = float((v.conj().T @ ss @ v)[1, 1].real)
    return obs, {}


_CSV_CHECKS = {
    "oracle": _check_oracle,
    "steady_compare": _check_steady_compare,
    "statics_all": _check_statics,
    "dynamics": _check_dynamics,
    "oscillator": _check_oscillator,
}


def _task(op: Op) -> str:
    return op.payload["cfg"]["task"] if op.kind == "scenario" else op.payload["task"]


def observe(op: Op, result):
    """Invariant checks; returns (observables, diagnostics) or raises CheckError."""
    if op.kind == "transient":
        return _check_transient(result, op)
    _require(result["code"] == cli.EXIT_OK, f"exit code {result['code']}")
    return _CSV_CHECKS[_task(op)](Path(result["dir"]))


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def compare_reference(observed: dict, expected: dict):
    """Raise CheckError unless every recorded observable agrees within tolerance."""
    missing = sorted(set(expected) - set(observed))
    _require(not missing, f"observables missing: {missing}")
    for key, ref in expected.items():
        tol = TD_ATOL if key.startswith("td.") else VALUE_ATOL
        _require(abs(observed[key] - ref) <= tol,
                 f"{key} = {observed[key]!r}, reference {ref!r} (atol {tol:g})")


def check(op: Op, result, seed: int, reference: dict):
    """Full output check: invariants on any seed, the reference at DEFAULT_SEED."""
    obs, diag = observe(op, result)
    if seed == DEFAULT_SEED:
        _require(op.name in reference, f"no reference recorded for {op.name}")
        compare_reference(obs, reference[op.name])
    return obs, diag
