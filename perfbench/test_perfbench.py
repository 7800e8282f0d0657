"""Tests of the benchmark itself: deterministic inputs, checks that catch
corrupted outputs, span accounting, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mfgkit import megen, mfstatics  # noqa: E402


def _input_files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _payload_arrays(ops) -> list:
    return [np.asarray(v) for op in ops for k, v in sorted(op.payload.items())
            if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload, tmp_path, monkeypatch):
    made = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / label).mkdir()
        monkeypatch.chdir(tmp_path / label)
        ops = workloads.make_inputs(workload, seed, Path("inputs"))
        made[label] = ([op.name for op in ops], _input_files(Path("inputs")),
                       _payload_arrays(ops))
    (names_a, files_a, arrays_a), (names_b, files_b, arrays_b), (names_c, files_c, arrays_c) = (
        made["a"], made["b"], made["c"])
    assert names_a == names_b == names_c
    assert files_a == files_b
    assert all(np.array_equal(x, y) for x, y in zip(arrays_a, arrays_b))
    if files_a:
        assert files_a != files_c
    else:
        assert not all(np.array_equal(x, y) for x, y in zip(arrays_a, arrays_c))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_default_seed_operation(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = workloads.make_inputs(workload, workloads.DEFAULT_SEED, Path("inputs"))
    assert {op.name for op in ops} == set(workloads.load_reference()[workload])


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    """Every workload run once at the default seed: {workload: [(op, result)]}."""
    base = tmp_path_factory.mktemp("outputs")
    cwd = os.getcwd()
    os.chdir(base)
    try:
        runs = {}
        for w in workloads.WORKLOADS:
            ops = workloads.make_inputs(w, workloads.DEFAULT_SEED, Path("inputs"))
            runs[w] = [(op, workloads.run_op(op, base / "out" / op.name)) for op in ops]
        yield runs
    finally:
        os.chdir(cwd)


def _rewrite_cell(path: Path, row: int, column: str, fn):
    lines = path.read_text().splitlines(keepends=True)
    header = [ln for ln in lines if not ln.startswith("#")]
    cols = header[0].strip().split(",")
    data_start = lines.index(header[0]) + 1
    cells = lines[data_start + row].rstrip("\n").split(",")
    cells[cols.index(column)] = repr(fn(float(cells[cols.index(column)])))
    lines[data_start + row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _copy_result(result, tmp_path):
    copy = dict(result, dir=tmp_path / "corrupt")
    shutil.copytree(result["dir"], copy["dir"])
    return copy


# (workload, operation, a reference-checked cell to nudge, a cell to break with
# a value that violates an invariant on any seed); cells are (file, row, column)
CSV_CORRUPTIONS = [
    ("oracle", "oracle", ("oracle.csv", 2, "dist_exact_vs_weak"),
     ("oracle.csv", 2, "dist_exact_vs_weak", lambda v: 20 * v)),
    ("redfield_d10", "redfield_d10", ("steady_compare.csv", 6, "trace_distance"),
     ("steady_compare.csv", 6, "trace_distance", lambda v: v + 1e-6)),
    ("cli_mix", "fig1_weak", ("trajectory.csv", 100, "excited_population"),
     ("trajectory.csv", 5, "trace_deviation", lambda v: 1e-6)),
    ("cli_mix", "oscillator_drude", ("oscillator.csv", 5, "value"),
     ("oscillator.csv", 4, "value", lambda v: 1e-3)),
    ("cli_mix", "tabulated_ohmic", ("distances.csv", 0, "trace_distance"),
     ("states.csv", 0, "value_re", lambda v: v + 1e-3)),
]


@pytest.mark.parametrize("workload,name,nudge,breakage", CSV_CORRUPTIONS)
def test_check_fails_on_corrupted_csv(default_outputs, tmp_path, workload, name,
                                      nudge, breakage):
    reference = workloads.load_reference()[workload]
    op, result = next((op, r) for op, r in default_outputs[workload] if op.name == name)
    workloads.check(op, result, workloads.DEFAULT_SEED, reference)

    # a small change is caught by the reference at the default seed ...
    nudged = _copy_result(result, tmp_path / "nudged")
    csv_name, row, column = nudge
    _rewrite_cell(nudged["dir"] / csv_name, row, column, lambda v: v * 1.1 + 1e-8)
    with pytest.raises(workloads.CheckError):
        workloads.check(op, nudged, workloads.DEFAULT_SEED, reference)

    # ... and a physics violation by the invariants on any other seed
    broken = _copy_result(result, tmp_path / "broken")
    csv_name, row, column, corrupt = breakage
    _rewrite_cell(broken["dir"] / csv_name, row, column, corrupt)
    with pytest.raises(workloads.CheckError):
        workloads.check(op, broken, workloads.DEFAULT_SEED + 1, reference)


def test_check_fails_on_nonzero_exit(default_outputs):
    op, result = default_outputs["cli_mix"][0]
    with pytest.raises(workloads.CheckError):
        workloads.check(op, dict(result, code=3), workloads.DEFAULT_SEED + 1, {})


def test_transient_check_fails_on_corrupted_state(default_outputs):
    reference = workloads.load_reference()["transient"]
    op, result = default_outputs["transient"][0]
    workloads.check(op, result, workloads.DEFAULT_SEED, reference)

    ss = result["steady"].states[0]
    shift = 1e-4 * np.diag([1.0, -1.0])
    result["steady"].states[0] = ss + shift
    try:
        with pytest.raises(workloads.CheckError):
            workloads.check(op, result, workloads.DEFAULT_SEED, reference)
    finally:
        result["steady"].states[0] = ss

    traj = result["traj"]
    drifted = traj.trace_deviation.copy()
    drifted[-1] = 10 * megen.TRACE_DRIFT_ABORT
    bad = dict(result, traj=megen.Trajectory(traj.times, traj.states, drifted,
                                             traj.hermiticity_deviation,
                                             traj.min_eigenvalue))
    with pytest.raises(workloads.CheckError):
        workloads.check(op, bad, workloads.DEFAULT_SEED + 1, reference)


def _rep(digest="x"):
    """A worker result with one operation, as run.summarize receives it."""
    return {"problem": None, "traced": False, "wall_s": 1.0, "setup_s": 0.5,
            "cpu_s": 1.0, "peak_rss_kb": 1024, "machine": {},
            "probe_s": run.PROBE_REF_S, "probe_before_s": run.PROBE_REF_S,
            "ops": [{"name": "a", "ok": True, "error": None, "digest": digest,
                     "diagnostics": {}}]}


def test_repetitions_must_write_identical_bytes():
    same = run.summarize([_rep("x"), _rep("x")], trace=False)
    assert same["correct"] and same["failed"] == 0 and same["attempted"] == 2
    differ = run.summarize([_rep("x"), _rep("y")], trace=False)
    assert not differ["correct"] and differ["failed"] == 1


def _spans():
    # name, start, end, parent, info
    return [
        ["bench.op", 0.0, 10.0, -1, None],
        ["megen.brme_generator", 0.0, 9.95, 0, 16],
        ["bath.gamma_m", 2.0, 4.0, 1, ("J", 1.0, 0.5, "asymptotic")],
        ["bath.quad", 2.5, 3.0, 2, None],
        ["bath.gamma_m", 5.0, 6.0, 1, ("J", 1.0, 0.5, "asymptotic")],
        ["eigenops.decompose", 6.0, 7.0, 1, 3],
        ["bath.corr_fn", 7.0, 8.0, 1, None],
        ["bath.corr_fn", 7.2, 7.8, 6, None],
    ]


def test_trace_overhead_compares_the_repetitions_of_each_pair():
    reps = []
    for untraced_wall, traced_wall in ((1.0, 1.5), (2.0, 2.4), (1.2, 1.5)):
        reps.append(dict(_rep(), wall_s=untraced_wall))
        reps.append(dict(_rep(), wall_s=traced_wall, traced=True, layers={},
                         trace_problem=None))
    layers = run.summarize(reps, trace=True)["per_layer"]
    assert layers["trace.overhead_s"] == (pytest.approx(0.4), "s")


def test_layer_metrics_from_spans():
    spans = _spans()
    m = tracer.layer_metrics(spans, wall_s=10.5)
    assert m["megen.assemble_self_s"] == pytest.approx(9.95 - 2.0 - 1.0 - 1.0 - 1.0)
    assert m["bath.gamma_m.calls"] == 2 and m["bath.gamma_m.s"] == pytest.approx(3.0)
    assert m["bath.gamma_m.repeat_frac"] == pytest.approx(0.5)
    assert m["bath.gamma_m.repeat_s"] == pytest.approx(1.0)   # the second call
    assert m["bath.corr_fn.calls"] == 2 and m["bath.corr_fn.s"] == pytest.approx(1.0)
    assert m["bath.self_s"] == pytest.approx(4.0)
    assert m["eigenops.modes"] == 3 and m["megen.liouvillian_dim"] == 16
    # the benchmark's own 0.05 s in bench.op counts as unattributed
    assert m["trace.unattributed_s"] == pytest.approx(0.55)
    assert tracer.check_self_times(spans, 10.5) is not None   # 0.55 s unaccounted
    assert tracer.check_self_times(spans, 10.0) is None       # 0.5% unaccounted
    spans[3][2] = 4.5                                         # child outlives parent
    assert "not nested" in tracer.check_self_times(spans, 10.0)


def test_time_no_module_claims_fails_the_self_time_check():
    spans = _spans()
    spans[1][1:3] = [1.0, 9.0]    # 2 s inside bench.op but outside every module
    assert tracer.layer_metrics(spans, 10.0)["trace.unattributed_s"] == pytest.approx(2.0)
    assert "module self times" in tracer.check_self_times(spans, 10.0)


def test_tracer_wraps_every_alias_and_restores_it():
    originals = (megen.decompose, mfstatics.decompose, mfstatics.gibbs)
    t = tracer.Tracer()
    t.install()
    try:
        assert megen.decompose is mfstatics.decompose is not originals[0]
        h = np.diag([0.0, 1.0]).astype(complex)
        megen.decompose(h, np.array([[0, 1], [1, 0]], dtype=complex))
        mfstatics.gibbs(h, 1.0)
    finally:
        t.uninstall()
    assert (megen.decompose, mfstatics.decompose, mfstatics.gibbs) == originals
    assert [s[0] for s in t.spans] == ["eigenops.decompose", "opcore.gibbs"]
    assert t.spans[0][4] == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    e2e = run.summarize([_rep()], trace=False)["end_to_end"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
