"""Benchmark of mfgkit: time to solution, set-up time and memory per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from the root of a checkout. Each repetition runs in a fresh child
process (worker.py) so that no in-process state carries from one repetition
into the next; repetitions continue for about S seconds (and at least
MIN_REPS run). With --trace 0 the last line reports the medians of wall_s,
setup_s and peak_rss_mb over the repetitions and ok_frac over all
operations; with --trace 1 it alternates untraced and traced repetitions
and reports the per-layer metrics of tracer.LAYER_METRICS. Every repetition
checks its outputs, and repetitions of one seed must write identical bytes.

Times are scaled to a fixed host speed: each repetition runs a fixed
scipy/numpy probe (worker.probe) around its timed batch, and its times are
multiplied by PROBE_REF_S / (probe time). On a shared host whose speed
drifts by 1.5x over minutes this narrows the spread between runs
(measurements in README.md).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
RUN_LIMIT_S = 165.0     # a run must end within 180 s
BLAS_THREADS = 1        # pinned: at most nproc, and steadier on a shared machine
PROBE_REF_S = 0.40      # probe time that defines the reference host speed


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_rep(workload, seed, rep, traced, workdir, env, deadline) -> dict:
    """Start one worker process and return its result (or a failure record)."""
    result_path = workdir / f"result-{rep}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--result", result_path.name]
    if traced:
        cmd.append("--trace")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
        problem = None if proc.returncode == 0 else (
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    except subprocess.TimeoutExpired:
        problem = "worker timed out"
    if problem is None and not result_path.exists():
        problem = "worker wrote no result"
    if problem is not None:
        return {"traced": traced, "problem": problem, "elapsed": time.monotonic() - start}
    res = json.loads(result_path.read_text())
    res.update(traced=traced, problem=None, setup_s=res["ready"] - start,
               elapsed=time.monotonic() - start)
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """All repetitions of one run; returns the aggregate and the repetitions."""
    workdir = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(root)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    kinds = (False, True) if trace else (False,)
    reps = []
    try:
        while True:
            t0 = time.monotonic()
            for traced in kinds:
                reps.append(run_rep(workload, seed, len(reps), traced, workdir, env, deadline))
            now = time.monotonic()
            if any(r["problem"] for r in reps):
                break
            # another round only if it ends nearer to `seconds` than stopping now
            enough = sum(not r["traced"] for r in reps) >= MIN_REPS
            if enough and now - start + 0.5 * (now - t0) >= seconds:
                break
            if now + 1.5 * (now - t0) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(reps, trace)


def scaled_wall(r) -> float:
    """Wall time of the timed batch at the reference host speed."""
    return r["wall_s"] * PROBE_REF_S / r["probe_s"]


def scaled_setup(r) -> float:
    """Set-up time at the reference host speed, by the probe that follows set-up."""
    return r["setup_s"] * PROBE_REF_S / r["probe_before_s"]


def summarize(reps: list, trace: bool) -> dict:
    good = [r for r in reps if r["problem"] is None]
    untraced = [r for r in good if not r["traced"]]
    problems = [r["problem"] for r in reps if r["problem"]]
    attempted = failed = 0
    first_digest, errors = {}, []
    for r in good:
        for op in r["ops"]:
            attempted += 1
            ref = first_digest.setdefault(op["name"], op["digest"])
            if op["ok"] and op["digest"] != ref:
                op["ok"], op["error"] = False, "output bytes differ from the first repetition"
            if not op["ok"]:
                failed += 1
                errors.append(f"{op['name']}: {op['error']}")
    ops_per_rep = len(good[0]["ops"]) if good else 1
    attempted += ops_per_rep * len(problems)
    failed += ops_per_rep * len(problems)
    traced = [r for r in good if r["traced"]]
    trace_problems = [r["trace_problem"] for r in traced if r.get("trace_problem")]
    summary = {
        "correct": failed == 0 and not trace_problems and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "errors": problems + errors + trace_problems,
        "reps": len(untraced),
        "rep_walls": [r["wall_s"] for r in untraced],
        "rep_setups": [r["setup_s"] for r in good],
        "rep_probes": [r["probe_s"] for r in good],
        "traced_reps": len(traced),
        "machine": good[0]["machine"] if good else {},
        "diagnostics": {k: v for op in (good[0]["ops"] if good else ())
                        for k, v in op["diagnostics"].items()},
    }
    if not untraced:
        return summary
    med = statistics.median
    summary["end_to_end"] = {
        "wall_s": (med(scaled_wall(r) for r in untraced), "s"),
        "setup_s": (med(scaled_setup(r) for r in good), "s"),
        "peak_rss_mb": (med(r["peak_rss_kb"] for r in untraced) / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    if trace and traced:
        layers = {}
        for name, unit in LAYER_METRICS:
            vals = [r["layers"][name] for r in traced if name in r["layers"]]
            if vals:
                layers[name] = (med(vals), unit)
        layers["proc.cpu_s"] = (med(r["cpu_s"] for r in untraced), "s")
        layers["proc.wall_raw_s"] = (med(r["wall_s"] for r in untraced), "s")
        layers["proc.probe_s"] = (med(r["probe_s"] for r in good), "s")
        # reps alternate untraced, traced: compare the two of each pair
        pairs = [(a, b) for a, b in zip(reps[0::2], reps[1::2])
                 if a["problem"] is None and b["problem"] is None]
        layers["trace.overhead_s"] = (
            med(scaled_wall(b) - scaled_wall(a) for a, b in pairs), "s")
        summary["per_layer"] = layers
    return summary


def _metrics(pairs: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in pairs.items()}


def describe(workload: str, seed: int, s: dict) -> list:
    """Human-readable lines printed before the JSON result."""
    lines = [f"# {workload} seed={seed}: {s['reps']} untraced and {s['traced_reps']} "
             f"traced repetitions, machine {json.dumps(s['machine'], sort_keys=True)}"]
    e2e = s.get("end_to_end", {})
    if e2e:
        lines.append("# " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in e2e.items())
                     + f"  failed_frac={s['failed'] / s['attempted']:.6g} "
                     f"({s['failed']}/{s['attempted']} operations)")
    lines.append("# per repetition, unscaled: wall_s "
                 + " ".join(f"{w:.4f}" for w in s["rep_walls"])
                 + "  setup_s " + " ".join(f"{w:.4f}" for w in s["rep_setups"])
                 + "  probe_s " + " ".join(f"{w:.4f}" for w in s["rep_probes"]))
    if s["diagnostics"]:
        lines.append("# diagnostics: " + json.dumps(s["diagnostics"], sort_keys=True))
    lines += [f"# error: {e}" for e in s["errors"][:20]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mfgkit" / "__init__.py").is_file():
        print(f"error: {root} is not an mfgkit checkout (no src/mfgkit)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    results = {}
    for name in names:
        results[name] = measure(name, seed, args.seconds, bool(args.trace), root)
        print("\n".join(describe(name, seed, results[name])), flush=True)
    if not all("end_to_end" in s for s in results.values()):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    key = "per_layer" if args.trace else "end_to_end"
    if len(names) == 1:
        metrics = _metrics(results[names[0]][key])
    else:
        metrics = {f"{n}/{k}": m for n in names for k, m in _metrics(results[n][key]).items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in results.values()),
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
