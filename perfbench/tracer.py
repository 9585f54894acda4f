"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each `bdsvi` module from outside:
every module attribute that is bound to one of the traced functions (the
defining module, the package namespace and every `from .x import y`
re-binding) is replaced by a timing wrapper while the tracer is installed and
restored afterwards.  Objects returned by `make_convex` and `make_domain` get
counting `evaluate` / `level` callables, so lattice and projection work is
counted as points evaluated.  Spans are kept in memory and written out once,
at the end of the run.
"""
from __future__ import annotations

import dataclasses
import gzip
import importlib
import os
import time
from collections import Counter

import numpy as np

# (module, function) pairs timed as spans; names in metrics are "<module>.<function>"
TRACED = (
    ("convex", "prox"),
    ("convex", "yosida_gradient"),
    ("convex", "grid_prox_oracle"),
    ("convex", "prox_property_suite"),
    ("drivers", "generate_paths"),
    ("reflected", "simulate_reflected"),
    ("solver", "solve_penalized"),
    ("solver", "cauchy_study"),
    ("flow", "flow"),
    ("flow", "flow_inverse"),
    ("flow", "transform_penalized"),
    ("field", "sample_field"),
    ("cli", "run"),
    ("scenarios", "load_scenario"),
)
MODULES = ("convex", "drivers", "reflected", "solver", "flow", "field", "scenarios", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(x):
    """Batch size of an array of shape (..., k)."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if shape else 1


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file()) if os.path.isdir(path) else 0


# Per-function counters: fn(args, kwargs, result) -> {counter: amount}
def _count_prox(a, k, r):
    return {"points": _points(_arg(a, k, 2, "x"))}


def _count_generate_paths(a, k, r):
    n_paths = int(_arg(a, k, 2, "n_paths"))
    shared = bool(k.get("shared_backward", a[5] if len(a) > 5 else False))
    return {"path_steps": n_paths * _arg(a, k, 0, "grid").n_steps, "substreams": n_paths + shared}


def _count_simulate_reflected(a, k, r):
    return {"path_steps": r.A.shape[0] * (r.A.shape[1] - 1),
            "projected": int(np.count_nonzero(np.diff(r.A, axis=1) > 0.0))}


def _count_solve_penalized(a, k, r):
    n_steps = _arg(a, k, 3, "config").grid.n_steps
    return {"path_steps": _arg(a, k, 4, "noise").n_paths * n_steps, "steps": n_steps}


def _count_flow(a, k, r):
    return {"steps": np.size(_arg(a, k, 3, "times")) - 1}


def _count_sample_field(a, k, r):
    fgrid = _arg(a, k, 5, "fgrid")
    draws = int(k.get("n_b_draws", a[10] if len(a) > 10 else 1))
    return {"nodes": fgrid.times.size * fgrid.points.shape[0] * draws}


def _count_cli_run(a, k, r):
    argv = list(_arg(a, k, 0, "argv"))
    return {"artifact_bytes": _dir_bytes(argv[argv.index("--out") + 1])}


COUNTERS = {
    "convex.prox": _count_prox,
    "convex.grid_prox_oracle": _count_prox,
    "drivers.generate_paths": _count_generate_paths,
    "reflected.simulate_reflected": _count_simulate_reflected,
    "solver.solve_penalized": _count_solve_penalized,
    "flow.flow": _count_flow,
    "field.sample_field": _count_sample_field,
    "cli.run": _count_cli_run,
}


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self, package):
        # the package attribute `flow` is the function, so modules come from the import system
        self.mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        self.modules = [package] + list(self.mods.values())
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.spans = []      # (op, span id, parent id, name index, t0, t1)
        self.stack = []      # open spans: [span id, name, child time]
        self.active = Counter()
        self.counts = Counter()
        self.op = -1
        self._patched = []

    # -- installation -------------------------------------------------------
    def install(self):
        mods = self.mods
        replacements = {}
        for idx, (mod, fn) in enumerate(TRACED):
            orig = getattr(mods[mod], fn)
            replacements[id(orig)] = self._wrap(idx, orig)
        for orig, decorate in ((mods["convex"].make_convex, self._convex),
                               (mods["reflected"].make_domain, self._domain)):
            replacements[id(orig)] = self._wrap_factory(orig, decorate)
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in replacements and callable(val):
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, replacements[id(val)])

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, idx, fn):
        name = self.names[idx]
        counter = COUNTERS.get(name)
        calls_key, self_key = name + ".calls", name + ".self_s"
        edge_keys = {}  # parent name -> "parent>child" counter key
        clock = time.perf_counter
        spans, stack, active = self.spans, self.stack, self.active

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            frame = [sid, name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                counts = self.counts
                counts[calls_key] += 1
                counts[self_key] += dur - frame[2]
                if parent is None:
                    spans[sid] = (self.op, sid, -1, idx, t0, t1)
                else:
                    parent[2] += dur
                    edge = edge_keys.get(parent[1])
                    if edge is None:
                        edge = edge_keys[parent[1]] = f"{parent[1]}>{name}"
                    counts[edge] += 1
                    spans[sid] = (self.op, sid, parent[0], idx, t0, t1)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_factory(self, fn, decorate):
        def wrapper(*args, **kwargs):
            return decorate(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _convex(self, theta):
        evaluate = theta.evaluate

        def counted(x):
            out = evaluate(x)
            if self.active["convex.grid_prox_oracle"]:
                self.counts["convex.grid_prox_oracle.evals"] += np.size(out)
            return out

        return dataclasses.replace(theta, evaluate=counted)

    def _domain(self, domain):
        level = domain.level

        def counted(x):
            out = level(x)
            if self.active["reflected.simulate_reflected"]:
                self.counts["reflected.level.evals"] += np.size(out)
            return out

        return dataclasses.replace(domain, level=counted)

    # -- per-operation bookkeeping -----------------------------------------
    def take_counts(self):
        """Counters accumulated since the last call, then reset."""
        out, self.counts = self.counts, Counter()
        return out

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("op,span,parent,name,t0,t1\n")
            for op, sid, parent, idx, t0, t1 in self.spans:
                fh.write(f"{op},{sid},{parent},{self.names[idx]},{t0!r},{t1!r}\n")


def self_seconds(counts, n_ops):
    """Self time per operation of every traced function that ran."""
    return {k[: -len(".self_s")]: v / n_ops for k, v in sorted(counts.items()) if k.endswith(".self_s")}


def exact_counts(counts):
    """The counters that must repeat exactly for a fixed seed (times excluded)."""
    return {k: v for k, v in counts.items() if not k.endswith(".self_s")}


def layer_metrics(counts, n_ops, op_seconds):
    """Per-layer metrics from counters summed over n_ops traced operations
    that took op_seconds in all.

    Totals are reported per operation; ratios are taken over the totals.  Self
    times are shares of the traced operation time (`self_frac`), so the layers
    of an operation add up to at most 1; `self_seconds` gives the seconds.
    """
    c = Counter(counts)
    per_op = lambda key: c[key] / n_ops
    ratio = lambda num, den: num / den if den else 0.0
    m = {}
    for name in ("convex.prox", "convex.yosida_gradient", "drivers.generate_paths",
                 "reflected.simulate_reflected", "solver.solve_penalized", "flow.flow"):
        m[f"{name}.calls"] = per_op(f"{name}.calls")
    for key in ("convex.prox.points", "convex.grid_prox_oracle.points",
                "drivers.generate_paths.path_steps", "drivers.generate_paths.substreams",
                "reflected.simulate_reflected.path_steps", "solver.solve_penalized.path_steps",
                "flow.flow.steps", "field.sample_field.nodes"):
        m[key] = per_op(key)
    m["cli.artifact_bytes"] = per_op("cli.run.artifact_bytes")
    for name in ("convex.prox", "convex.yosida_gradient", "convex.grid_prox_oracle",
                 "convex.prox_property_suite", "drivers.generate_paths",
                 "reflected.simulate_reflected", "solver.solve_penalized", "solver.cauchy_study",
                 "flow.flow", "flow.transform_penalized", "field.sample_field", "cli.run",
                 "scenarios.load_scenario"):
        m[f"{name}.self_frac"] = c[f"{name}.self_s"] / op_seconds
    m["convex.grid_prox_oracle.evals_per_point"] = ratio(
        c["convex.grid_prox_oracle.evals"], c["convex.grid_prox_oracle.points"])
    sim_steps = c["reflected.simulate_reflected.path_steps"]
    m["reflected.level.evals_per_step"] = ratio(c["reflected.level.evals"], sim_steps)
    m["reflected.projected_frac"] = ratio(c["reflected.simulate_reflected.projected"], sim_steps)
    m["solver.prox_calls_per_step"] = ratio(
        c["solver.solve_penalized>convex.prox"] + c["solver.solve_penalized>convex.yosida_gradient"],
        c["solver.solve_penalized.steps"])
    m["flow.flow_inverse.newton_iters"] = ratio(c["flow.flow_inverse>flow.flow"],
                                                c["flow.flow_inverse.calls"])
    return m
