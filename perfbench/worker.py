"""One repetition of a workload in a fresh process: set up, run timed, check.

    python3 perfbench/worker.py --workload NAME --seed N --rep K --result FILE [--trace]

run.py starts it with the working directory set to the run's scratch
directory and the checkout's src/ on PYTHONPATH. The set-up time is measured
by the parent from before this process starts until `ready` below. The timed
batch sits between two runs of the host-speed probe (`probe`). Writes one
JSON object to FILE. With --record-reference it instead stores the
observables of the default seed in reference.json.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import quad

import tracer as tracing
import workloads

PROBE_ROUNDS = 150
_PROBE_MATRIX = np.random.default_rng(0).normal(size=(120, 120))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T


def _probe_integrand(x, k):
    return np.exp(-0.05 * x) * np.cos(k * x) / (1.0 + x * x)


def probe() -> float:
    """Seconds for a fixed batch of scipy quadratures and small eigh calls.

    The same kind of work as the workloads, but independent of mfgkit, so
    it measures the speed of the host at the time of the repetition.
    """
    start = time.perf_counter()
    for k in range(PROBE_ROUNDS):
        quad(_probe_integrand, 0.0, 200.0, args=(1.0 + 0.01 * k,), limit=400)
        np.linalg.eigh(_PROBE_MATRIX)
    return time.perf_counter() - start


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _csv_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*.csv"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.make_inputs(args.workload, args.seed, Path("inputs"))
    ready = time.monotonic()
    probe_before = probe()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    out = Path(f"out-{args.rep}")
    outputs = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for op in ops:
        try:
            if tracer:
                res = tracer.span("bench.op", workloads.run_op, op, out / op.name)
            else:
                res = workloads.run_op(op, out / op.name)
            outputs.append((res, None))
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            outputs.append((None, f"raised {type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    probe_after = probe()

    reference = workloads.load_reference().get(args.workload, {})
    records, observed = [], {}
    for op, (res, error) in zip(ops, outputs):
        rec = {"name": op.name, "ok": False, "error": error, "digest": None,
               "diagnostics": {}}
        if res is not None:
            rec["digest"] = workloads.digest(op, res)
            try:
                if args.record_reference:
                    observed[op.name], rec["diagnostics"] = workloads.observe(op, res)
                else:
                    _, rec["diagnostics"] = workloads.check(op, res, args.seed, reference)
                rec["ok"] = True
            except (workloads.CheckError, KeyError, ValueError) as exc:
                rec["error"] = f"check failed: {exc}"
        records.append(rec)

    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_kb": peak_kb,
              "probe_s": 0.5 * (probe_before + probe_after), "probe_before_s": probe_before,
              "ops": records, "machine": machine_facts()}
    if tracer:
        layers = tracing.layer_metrics(tracer.spans, wall)
        layers["cli.csv_bytes"] = float(_csv_bytes(out)) if out.exists() else 0.0
        result["layers"] = layers
        result["trace_problem"] = tracing.check_self_times(tracer.spans, wall)
    shutil.rmtree(out, ignore_errors=True)

    if args.record_reference:
        if args.seed != workloads.DEFAULT_SEED or not all(r["ok"] for r in records):
            print(f"not recorded: seed {args.seed}, ops {records}", file=sys.stderr)
            return 1
        ref = workloads.load_reference()
        ref[args.workload] = observed
        workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        return 0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
