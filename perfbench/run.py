"""Benchmark entry point.

    python3 perfbench/run.py --workload <ladder|reflected|field|calculus> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; `bdsvi` is imported from its `src/`.  The
workload runs in a worker process of its own (so peak memory is per
workload).  With --trace 0 set-up-only workers run before and after it, and
`setup_s` is the least of their set-up times and its own; the last stdout
line then carries the end-to-end metrics of BENCHMARK.json.  Times are
scaled by a calibration probe (worker.calibrate) run in the same process, so
that they read as seconds on the reference machine.  With --trace 1 it
carries the per-layer metrics.
The line before it records the run environment and the operation quartiles.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up-only workers before and after the main one, which adds one more
# sample; spreading them over the run samples more of the machine's states,
# and the fastest of them is the closest to the code's own set-up time
SETUP_PROBES = (3, 3)
DEADLINE_S = 170.0        # the whole run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
# fastest time of worker.calibrate() on the reference machine (2 vCPUs,
# Intel Xeon); the time metrics are scaled by this over the run's fastest
# calibration, so they read as seconds on the reference machine
CALIBRATION_REF_S = 0.0065


class BenchError(RuntimeError):
    pass


def _worker(args, env, deadline, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-root", os.path.join(OUT, "tmp")]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def _environment(numpy_version, env):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "bdsvi", "*.py"))):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {k: env.get(k) for k in THREAD_ENV},
        "src_bdsvi_lines": src_lines,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ladder", "reflected", "field", "calculus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "bdsvi", "__init__.py")) or not os.path.isfile(spec_path):
        sys.stderr.write(f"no bdsvi sources under {SRC} or no {spec_path}; run from a checkout root\n")
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update({k: BLAS_THREADS for k in THREAD_ENV})
    probe = lambda: _worker(args, env, deadline, setup_only=True)["setup_s"]
    before, after = (0, 0) if args.trace else SETUP_PROBES
    try:
        setup = [probe() for _ in range(before)]
        res = _worker(args, env, deadline, setup_only=False)
        setup += [res["setup_s"]] + [probe() for _ in range(after)]
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    ops = res["ops"]
    timed = [o for o in ops if o["phase"] == "timed"]
    seconds = [o["seconds"] for o in timed]
    rates = [o["path_steps"] / o["seconds"] for o in timed if o["ok"]]
    failed = sum(not o["ok"] for o in ops)
    q1, q2, q3 = statistics.quantiles(seconds, n=4)  # the worker times at least three
    scale = CALIBRATION_REF_S / min(res["calibration_s"])
    values = {
        "op_s_min": min(seconds) * scale,
        "path_steps_per_s": max(rates, default=0.0) / scale,
        "setup_s": min(setup) * scale,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - failed / len(ops),
    }
    correct = failed == 0
    if args.trace:
        values = res["layers"]
        correct = correct and res["repeat_ok"]
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(res["numpy"], env),
        "op_s": {"p25": q1, "p50": q2, "p75": q3, "n": len(seconds), "all": seconds},
        "setup_s_samples": setup,
        "calibration_s": {"min": min(res["calibration_s"]), "p50": statistics.median(res["calibration_s"]),
                          "scale": scale},
        "failures": [o for o in ops if not o["ok"]],
        "details": sorted({o["detail"] for o in ops})[:8],
    }
    if args.trace:
        info["repeat_ok"] = res["repeat_ok"]
        info["exact_counts"] = res["exact_counts"]
        info["self_s_per_op"] = res["self_s"]
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
