"""Spans recorded from outside mfgkit, and the per-layer metrics derived from them.

`Tracer.install` replaces the module attributes that callers resolve (for
example `megen.decompose`, `finitebath.partial_trace`, `bath.quad`) with
wrappers that record a span (name, start, end, parent, info). Spans stay in
memory; `layer_metrics` turns them into self times and counts when the run
ends. A span's module is the part of its name before the first dot.
"""

import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "bath", "eigenops", "mfstatics", "megen", "finitebath",
           "clexact", "opcore")

GENERATORS = ("megen.davies_generator", "megen.brme_generator", "megen.secular_filter",
              "megen.brme_real_only", "megen.pauli_ultrastrong")


def _args_key(n):
    """Info: the first n arguments, to measure how often inputs repeat."""
    return lambda args, kwargs, result: tuple(args[:n]) + tuple(sorted(kwargs.items()))


def _global_model(args, kwargs, result):
    return (result.H_tot.shape[0], result.H_tot.nbytes)


def _liouvillian_dim(args, kwargs, result):
    return result.matrix.shape[0]


def _nfev(args, kwargs, result):
    return result.nfev


def _n_modes(args, kwargs, result):
    return len(result.modes)


# (span name, owner inside mfgkit, attribute, info). An mfgkit function is
# wrapped in every mfgkit module that imported it by name, so
# "eigenops.decompose" also covers megen.decompose and mfstatics.decompose.
# Foreign functions (scipy's quad, solve_ivp) are wrapped only in the owner.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("cli.run_scenario", "cli", "run_scenario", None),
    ("bath.gamma_m", "bath", "gamma_m", _args_key(4)),
    ("bath.d_beta", "bath", "d_beta", _args_key(3)),
    ("bath.d_beta_deriv", "bath", "d_beta_deriv", None),
    ("bath.corr_fn", "bath", "corr_fn", None),
    ("bath.quad", "bath", "quad", None),
    ("bath.principal_value", "bath", "principal_value", None),
    ("bath.reorganization_energy", "bath", "reorganization_energy", None),
    ("bath.load_tabulated", "bath", "load_tabulated", None),
    ("bath.tabulated_spline", "bath.Tabulated", "_spline", None),
    ("eigenops.decompose", "eigenops", "decompose", _n_modes),
    ("mfstatics.mfg_weak", "mfstatics", "mfg_weak", None),
    ("mfstatics.weak_validity_bound", "mfstatics", "weak_validity_bound", None),
    ("mfstatics.mfg_ultrastrong", "mfstatics", "mfg_ultrastrong", None),
    ("mfstatics.mfg_high_t", "mfstatics", "mfg_high_t", None),
    ("mfstatics.pointer_split", "mfstatics", "pointer_split", None),
    ("clexact.moments", "clexact", "moments", None),
    ("clexact.position_correlation", "clexact", "position_correlation", None),
    ("clexact.log_partition", "clexact", "log_partition", None),
    *((name, "megen", name.split(".")[1], _liouvillian_dim) for name in GENERATORS),
    ("megen.evolve", "megen", "evolve", None),
    ("megen.solve_ivp", "megen", "solve_ivp", _nfev),
    ("megen.steady_state", "megen", "steady_state", None),
    ("finitebath.discretize", "finitebath", "discretize", None),
    ("finitebath.assemble", "finitebath", "assemble", _global_model),
    ("finitebath.eig", "finitebath.GlobalModel", "eig", None),
    ("finitebath.exact_mfg", "finitebath", "exact_mfg", None),
    ("opcore.gibbs", "opcore", "gibbs", None),
    ("opcore.partial_trace", "opcore", "partial_trace", None),
    ("opcore.trace_distance", "opcore", "trace_distance", None),
)

# Per-layer metrics in the order they are reported: (name, unit).
LAYER_METRICS = (
    ("finitebath.assemble.s", "s"),
    ("finitebath.eig.s", "s"),
    ("finitebath.reduce_self_s", "s"),
    ("finitebath.dense_bytes", "bytes"),
    ("finitebath.dim", "count"),
    ("megen.assemble_self_s", "s"),
    ("megen.generator.calls", "count"),
    ("megen.liouvillian_dim", "count"),
    ("megen.steady_state.s", "s"),
    ("megen.evolve.s", "s"),
    ("megen.evolve.nfev", "count"),
    ("bath.gamma_m.calls", "count"),
    ("bath.gamma_m.s", "s"),
    ("bath.gamma_m.repeat_frac", "frac"),
    ("bath.gamma_m.repeat_s", "s"),
    ("bath.d_beta.calls", "count"),
    ("bath.d_beta.s", "s"),
    ("bath.d_beta.repeat_frac", "frac"),
    ("bath.d_beta.repeat_s", "s"),
    ("bath.d_beta_deriv.calls", "count"),
    ("bath.corr_fn.calls", "count"),
    ("bath.corr_fn.s", "s"),
    ("bath.quad.calls", "count"),
    ("bath.tabulated_spline.calls", "count"),
    ("bath.self_s", "s"),
    ("eigenops.decompose.calls", "count"),
    ("eigenops.decompose.s", "s"),
    ("eigenops.modes", "count"),
    ("mfstatics.mfg_weak.calls", "count"),
    ("mfstatics.mfg_weak.s", "s"),
    ("mfstatics.self_s", "s"),
    ("clexact.moments.s", "s"),
    ("clexact.position_correlation.s", "s"),
    ("cli.self_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("cli.scenarios", "count"),
    ("opcore.partial_trace.s", "s"),
    ("opcore.gibbs.calls", "count"),
    ("proc.cpu_s", "s"),
    ("proc.wall_raw_s", "s"),
    ("proc.probe_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)


def _resolve(owner: str):
    head, _, cls = owner.partition(".")
    mod = importlib.import_module(f"mfgkit.{head}")
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Records spans as lists [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def install(self):
        modules = [_resolve(m) for m in MODULES]
        for name, owner, attr, info in TARGETS:
            target = _resolve(owner)
            fn = getattr(target, attr)
            wrapper = self._wrap(name, fn, info)
            holders = [target]
            if getattr(fn, "__module__", "").startswith("mfgkit") and not isinstance(target, type):
                holders = [m for m in modules if getattr(m, attr, None) is fn]
            for holder in holders:
                self._patches.append((holder, attr, fn))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        while self._patches:
            holder, attr, fn = self._patches.pop()
            setattr(holder, attr, fn)


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics from the spans of one traced batch of wall time wall_s.

    Self time of a span is its duration minus its children's durations. A
    name's time (`.s`) counts only spans with no same-name ancestor, so
    recursion is not counted twice; `.calls` counts every span.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    parent = [s[3] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    self_t = dur - child

    def ancestors(i):
        p = parent[i]
        while p >= 0:
            yield p
            p = parent[p]

    calls = Counter(names)
    total = defaultdict(float)
    module_self = defaultdict(float)
    for i, name in enumerate(names):
        module_self[name.split(".", 1)[0]] += self_t[i]
        if all(names[a] != name for a in ancestors(i)):
            total[name] += dur[i]

    def infos(name):
        return [spans[i][4] for i in range(n) if names[i] == name]

    def repeats(name):
        """(share of calls, seconds in calls) whose arguments repeat an earlier call."""
        seen, count, secs = set(), 0, 0.0
        for i in range(n):
            if names[i] == name:
                if spans[i][4] in seen:
                    count, secs = count + 1, secs + dur[i]
                seen.add(spans[i][4])
        return (count / calls[name] if calls[name] else 0.0), secs

    in_generator = [any(names[a] in GENERATORS for a in (i, *ancestors(i)))
                    for i in range(n)]
    models = infos("finitebath.assemble")
    eig_in_reduce = sum(dur[i] for i in range(n) if names[i] == "finitebath.eig"
                        and any(names[a] == "finitebath.exact_mfg" for a in ancestors(i)))
    out = {
        "finitebath.assemble.s": total["finitebath.assemble"],
        "finitebath.eig.s": total["finitebath.eig"],
        "finitebath.reduce_self_s": total["finitebath.exact_mfg"] - eig_in_reduce,
        "finitebath.dense_bytes": max((b for _, b in models), default=0),
        "finitebath.dim": max((d for d, _ in models), default=0),
        "megen.assemble_self_s": float(sum(self_t[i] for i in range(n) if in_generator[i]
                                           and names[i].startswith("megen."))),
        "megen.generator.calls": sum(calls[g] for g in GENERATORS),
        "megen.liouvillian_dim": max((d for g in GENERATORS for d in infos(g)), default=0),
        "megen.steady_state.s": total["megen.steady_state"],
        "megen.evolve.s": total["megen.evolve"],
        "megen.evolve.nfev": sum(infos("megen.solve_ivp")),
        "bath.gamma_m.calls": calls["bath.gamma_m"],
        "bath.gamma_m.s": total["bath.gamma_m"],
        "bath.gamma_m.repeat_frac": repeats("bath.gamma_m")[0],
        "bath.gamma_m.repeat_s": repeats("bath.gamma_m")[1],
        "bath.d_beta.calls": calls["bath.d_beta"],
        "bath.d_beta.s": total["bath.d_beta"],
        "bath.d_beta.repeat_frac": repeats("bath.d_beta")[0],
        "bath.d_beta.repeat_s": repeats("bath.d_beta")[1],
        "bath.d_beta_deriv.calls": calls["bath.d_beta_deriv"],
        "bath.corr_fn.calls": calls["bath.corr_fn"],
        "bath.corr_fn.s": total["bath.corr_fn"],
        "bath.quad.calls": calls["bath.quad"],
        "bath.tabulated_spline.calls": calls["bath.tabulated_spline"],
        "bath.self_s": module_self["bath"],
        "eigenops.decompose.calls": calls["eigenops.decompose"],
        "eigenops.decompose.s": total["eigenops.decompose"],
        "eigenops.modes": max(infos("eigenops.decompose"), default=0),
        "mfstatics.mfg_weak.calls": calls["mfstatics.mfg_weak"],
        "mfstatics.mfg_weak.s": total["mfstatics.mfg_weak"],
        "mfstatics.self_s": module_self["mfstatics"],
        "clexact.moments.s": total["clexact.moments"],
        "clexact.position_correlation.s": total["clexact.position_correlation"],
        "cli.self_s": module_self["cli"],
        "cli.scenarios": calls["cli.run_scenario"],
        "opcore.partial_trace.s": total["opcore.partial_trace"],
        "opcore.gibbs.calls": calls["opcore.gibbs"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(module_self[m] for m in MODULES),
    }
    return {k: float(v) for k, v in out.items()}


def check_self_times(spans, wall_s: float, rel_tol: float = 0.01) -> str | None:
    """None if spans nest in their parents and the self times of the MODULES
    cover all but rel_tol of wall_s. Time in the benchmark's own spans
    ("bench.op") that no wrapped function claims counts as unattributed."""
    for s in spans:
        p = s[3]
        if p >= 0 and not spans[p][1] <= s[1] <= s[2] <= spans[p][2]:
            return f"span {s[0]} is not nested in its parent {spans[p][0]}"
    gap = layer_metrics(spans, wall_s)["trace.unattributed_s"]
    if not -1e-9 <= gap <= rel_tol * wall_s:
        return (f"module self times add up to {wall_s - gap:.6f} s of the traced "
                f"{wall_s:.6f} s (unattributed {gap:.3e} s)")
    return None
