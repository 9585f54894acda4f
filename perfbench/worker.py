"""One workload in its own process: set up, warm up, time, and optionally trace.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`.  Prints
one JSON object as its last stdout line.  With --setup-only it stops right
after set-up and reports only the set-up time.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_TIMED_OPS = 3
TRACED_OPS = 3
CALIBRATION_STEPS = 2000


def timed_ops(wl, seconds):
    """Number of timed operations in a run of `seconds`: a fixed count per
    workload, sized by its reference operation time, so the operations a run
    attempts (and checks) do not depend on how fast the machine is."""
    return max(MIN_TIMED_OPS, math.ceil(seconds / wl.ref_op_s))


def calibrate():
    """Seconds taken by a fixed loop of small numpy calls that does not touch
    bdsvi: a probe of how fast the machine runs at this moment."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        acc += float(np.maximum(a * 0.5 + i, 0.0).sum())
    return time.perf_counter() - t0


def run_op(wl, seed):
    """Run one operation; returns (seconds, OpResult).  Only the call itself is timed."""
    from workloads import OpResult

    wl.prepare()
    t0 = time.perf_counter()
    try:
        out = wl.run(seed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, OpResult(False, 0, "raised")
    seconds = time.perf_counter() - t0
    try:
        return seconds, wl.result(out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return seconds, OpResult(False, 0, "check raised")


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC reading taken by the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tmp-root", required=True)
    args = p.parse_args(argv)

    import bdsvi

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(bdsvi.__file__).startswith(src):
        sys.stderr.write(f"bdsvi was imported from {bdsvi.__file__}, not from {src}\n")
        return 2
    import numpy as np
    import workloads
    from workloads import op_seed

    os.makedirs(args.tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp_root)
    try:
        wl = workloads.make(args.workload)
        wl.setup(args.seed, tmp)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops = []  # (phase, op index, seconds, OpResult)
        calibration = []  # one probe before each timed operation
        ops.append(("warmup", 0, *run_op(wl, op_seed(args.seed, 0))))
        n = timed_ops(wl, args.seconds / 2 if args.trace else args.seconds)
        for i in range(1, n + 1):
            calibration.append(calibrate())
            ops.append(("timed", i, *run_op(wl, op_seed(args.seed, i))))

        out = {"setup_s": setup_s, "calibration_s": calibration, "numpy": np.__version__}
        if args.trace:
            out.update(traced_phase(wl, args, ops, bdsvi))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["ops"] = [{"phase": ph, "op": k, "seconds": s, "ok": r.ok, "path_steps": r.path_steps,
                       "detail": r.detail} for ph, k, s, r in ops]
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_phase(wl, args, ops, bdsvi):
    """Run ops 1..TRACED_OPS (the inputs of the first timed ops) untraced and
    traced in turn, then op 1 traced again to check that its exact counts
    repeat."""
    from collections import Counter

    from tracer import Tracer, exact_counts, layer_metrics, self_seconds
    from workloads import op_seed

    tracer = Tracer(bdsvi)
    per_op = []
    for k in list(range(1, TRACED_OPS + 1)) + [1]:
        seed = op_seed(args.seed, k)
        if len(per_op) < TRACED_OPS:
            ops.append(("untraced", k, *run_op(wl, seed)))
        tracer.op = len(per_op) + 1
        tracer.install()
        try:
            ops.append(("traced", k, *run_op(wl, seed)))
        finally:
            tracer.uninstall()
        per_op.append(tracer.take_counts())
    tracer.write_spans(os.path.join(HERE, "out", f"spans-{args.workload}.csv.gz"))

    total = Counter()
    for counts in per_op[:TRACED_OPS]:
        total.update(counts)
    seconds = lambda phase: [s for ph, k, s, r in ops if ph == phase][:TRACED_OPS]
    layers = layer_metrics(total, TRACED_OPS, sum(seconds("traced")))
    layers["trace.overhead_frac"] = min(seconds("traced")) / min(seconds("untraced")) - 1.0
    return {"layers": layers,
            "self_s": self_seconds(total, TRACED_OPS),
            "repeat_ok": exact_counts(per_op[0]) == exact_counts(per_op[-1]),
            "exact_counts": dict(sorted(exact_counts(total).items()))}


if __name__ == "__main__":
    sys.exit(main())
