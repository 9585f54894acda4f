#!/usr/bin/env python3
"""Paired benchmark rounds of a base commit against a change, written to BENCH_<pr>.json.

    python scripts/bench_trajectory.py --pr 28 --base <rev> \\
        [--workloads ladder,reflected,field,calculus] [--pairs 10] \\
        [--seconds 16] [--first-seed 101]

The base is extracted with `git archive` into a scratch directory, and the
change is the checkout's working tree: its tracked and untracked, not
ignored, files, copied beside it once at the start.  For each workload, pair
i runs `perfbench/run.py` with seed first_seed + i on both trees, one after
the other.  Each pair runs in fresh copies of the two trees, `side-a` and
`side-b`, names of equal length in one directory.  Which side runs first
alternates every pair, and which side is copied first alternates every
second pair, so neither order favours a side.  An A/A round then runs the
base against a second copy of itself on the same seeds and as many pairs,
the same way.

The file holds every raw result line and, per workload and end-to-end
metric of BENCHMARK.json:
- the medians of both sides and the base's quartiles;
- the change's wins (better in the metric's direction; ties count for
  neither side);
- `claim_rule`: the change won at least nine tenths of the pairs and the
  medians differ by more than the base's interquartile distance;
- from the A/A round, the copy's wins and `aa_shift`, the relative distance
  between the two medians of identical code: a smaller shift in the paired
  round cannot be told from noise.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder", "reflected", "field", "calculus")


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.PIPE).stdout


def _extract(rev, dest: Path) -> str:
    """The tree of rev (a revision, or None for the working tree) under dest; its label."""
    dest.mkdir(parents=True)
    if rev is None:
        names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
        for name in filter(None, names):
            src = ROOT / os.fsdecode(name)
            if src.is_file():
                (dest / os.fsdecode(name)).parent.mkdir(parents=True, exist_ok=True)
                (dest / os.fsdecode(name)).write_bytes(src.read_bytes())
        return "working tree of " + _git("rev-parse", "--short", "HEAD").decode().strip()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return _git("rev-parse", "--short", rev).decode().strip()


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its info and result lines, or the failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=600)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "returncode": None, "stderr": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"seed": seed, "returncode": 0, "wall_s": round(time.time() - started, 2),
            "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _round(a: Path, b: Path, workload: str, pairs: int, first_seed: int, seconds: float, label: str):
    """pairs of runs of the trees a and b on seeds first_seed + i, each pair in fresh copies of
    them; the side run first alternates every pair, the side copied first every second pair."""
    out = []
    sides = (a.parent / "side-a", a.parent / "side-b")
    for i in range(pairs):
        seed = first_seed + i
        for side in ((0, 1) if i // 2 % 2 == 0 else (1, 0)):
            shutil.rmtree(sides[side], ignore_errors=True)
            shutil.copytree((a, b)[side], sides[side])
        pair = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side] = _run(sides[side], workload, seed, seconds)
        out.append({"seed": seed, "first": "a" if i % 2 == 0 else "b", "copied_first": "a" if i // 2 % 2 == 0 else "b",
                    "a": pair[0], "b": pair[1]})
        print(f"{label} {workload} seed {seed}: " + ", ".join(
            f"{s}={_value(pair[k], 'op_s_min')}" for k, s in ((0, "a"), (1, "b"))), file=sys.stderr, flush=True)
    return out


def _value(run, metric):
    if run is None or run.get("returncode") != 0:
        return None
    return run["result"]["metrics"][metric]["value"]


def _summary(pairs, metric: dict) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    both = [(_value(p["a"], name), _value(p["b"], name)) for p in pairs]
    both = [(x, y) for x, y in both if x is not None and y is not None]
    if not both:
        return {"pairs": 0}
    a, b = [x for x, _ in both], [y for _, y in both]
    q1, med_a, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], a[0], a[0])
    med_b = statistics.median(b)
    wins = sum((y < x) if lower else (y > x) for x, y in both)
    losses = sum((y > x) if lower else (y < x) for x, y in both)
    better = med_b < med_a if lower else med_b > med_a
    return {
        "pairs": len(both), "median_base": med_a, "base_q1": q1, "base_q3": q3, "median_change": med_b,
        "change_rel": (med_b - med_a) / med_a if med_a else None,
        "change_wins": wins, "base_wins": losses,
        "claim_rule": bool(better and wins >= math.ceil(0.9 * len(both)) and abs(med_b - med_a) > q3 - q1),
    }


def _dump(doc: dict) -> str:
    """doc as JSON text: the summaries indented, each raw pair of runs on one line."""
    head = json.dumps({k: v for k, v in doc.items() if k != "workloads"}, indent=1)
    blocks = []
    for w, entry in doc["workloads"].items():
        fields = [' "summary": ' + json.dumps(entry["summary"], indent=1)]
        fields += [f' "{key}": [\n' + ",\n".join(json.dumps(p) for p in entry[key]) + "\n ]"
                   for key in ("pairs", "aa_pairs")]
        blocks.append(json.dumps(w) + ": {\n" + ",\n".join(fields) + "\n}")
    return head[:-2] + ',\n "workloads": {\n' + ",\n".join(blocks) + "\n}\n}\n"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    p.add_argument("--base", required=True, help="git revision of the base (the parent commit)")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--out", default=None, help="output path (default: BENCH_<pr>.json at the root)")
    args = p.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if not workloads or any(w not in WORKLOADS for w in workloads):
        p.error(f"--workloads takes names from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(prefix="bench-trajectory-") as tmp:
        base, head = Path(tmp, "base"), Path(tmp, "head")
        labels = {"base": _extract(args.base, base), "head": _extract(None, head)}
        doc = {"pr": args.pr, "base": labels["base"], "head": labels["head"], "seconds": args.seconds,
               "first_seed": args.first_seed, "pairs": args.pairs,
               "command": ["python3", "perfbench/run.py", "--workload", "<w>", "--seed", "<seed>",
                           "--seconds", str(args.seconds)],
               "workloads": {}}
        for w in workloads:
            paired = _round(base, head, w, args.pairs, args.first_seed, args.seconds, "base/head")
            aa = _round(base, base, w, args.pairs, args.first_seed, args.seconds, "base/copy")
            rows = {}
            for m in spec["end_to_end"]:
                row = _summary(paired, m)
                aa_row = _summary(aa, m)
                if aa_row["pairs"]:
                    row["aa_copy_wins"] = aa_row["change_wins"]
                    row["aa_shift"] = abs(aa_row["change_rel"]) if aa_row["change_rel"] is not None else None
                rows[m["name"]] = row
            doc["workloads"][w] = {"summary": rows, "pairs": paired, "aa_pairs": aa}
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(_dump(doc))
    for w, entry in doc["workloads"].items():
        for name, row in entry["summary"].items():
            if row["pairs"]:
                print(f"{w:9s} {name:16s} base {row['median_base']:.4g} [{row['base_q1']:.4g}, {row['base_q3']:.4g}]"
                      f" -> {row['median_change']:.4g}  wins {row['change_wins']}/{row['pairs']}"
                      f"  A/A shift {row.get('aa_shift')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
