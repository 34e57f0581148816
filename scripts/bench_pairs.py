"""Benchmark two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --seeds 1-10 --seconds 30 [--out FILE]

For each seed, runs ``bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one run at a time; the parent goes first
in odd-numbered pairs and the change in even-numbered ones. After each run
the checkout's ``.bench_work/results/W-seedS-trace0.json`` is read.

Prints, for every end-to-end metric of the change's BENCHMARK.json, each
side's median and quartiles (numpy percentile, linear), the number of
pairs in which each side was lower, and a verdict against the metric's
relative ``bound`` and ``better`` in that file (see ``verdict``). Then compares
every job of the two runs of a seed: output digests, exit code and failure
line. Writes a JSON object with the ``workloads`` block of a BENCH_*.json
for W, plus an ``outputs`` block summarizing the job comparison, to --out
(default: stdout).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_seeds(text: str) -> list:
    """'1-10' or '1,3,5' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if res.returncode != 0:
        raise SystemExit(f"{tree}: bench/run.py exited {res.returncode}\n{res.stderr[-2000:]}")
    path = tree / ".bench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def job_outcomes(result: dict) -> dict:
    """job id -> (exit code, failure line, digests), one per job across passes."""
    out = {}
    for r in result["jobs"]:
        outcome = (r["exit"], r["failure"], json.dumps(r["digests"], sort_keys=True))
        out.setdefault(r["job"], set()).add(outcome)
    return out


def summary(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(float(v), 4) for v in values]}


def verdict(parent: list, change: list, bound: float, better: str) -> str:
    """Reading of one metric from the runs of both sides.

    bound is a fraction of the parent's median, as in BENCHMARK.json.
    "worse beyond the bound" when the change's median is worse than the
    parent's by more than that; otherwise "unresolved" when the parent's
    interquartile range is wider than it, unless every change run beats
    every parent run; otherwise "within the bound". better is "lower" or
    "higher".
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = sign * np.asarray(parent, dtype=float), sign * np.asarray(change, dtype=float)
    allowed = bound * abs(np.median(p))
    if np.median(c) - np.median(p) > allowed:
        return "worse beyond the bound"
    q1, q3 = np.percentile(p, [25, 75])
    if q3 - q1 > allowed and not c.max() < p.min():
        return "unresolved"
    return "within the bound"


def compare_jobs(seed: int, parent: dict, change: dict, diffs: dict) -> None:
    a, b = job_outcomes(parent), job_outcomes(change)
    for job in sorted(set(a) | set(b)):
        pa, pb = a.get(job, set()), b.get(job, set())
        if pa == pb:
            continue
        exits = ({o[0] for o in pa}, {o[0] for o in pb})
        fails = ({o[1] for o in pa}, {o[1] for o in pb})
        digs = ({o[2] for o in pa}, {o[2] for o in pb})
        for key, (x, y) in (("exit_differs", exits), ("failure_differs", fails),
                            ("digests_differ", digs)):
            if x != y:
                diffs[key].append(f"seed {seed} {job}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    values = {m["name"]: {"parent": [], "change": []} for m in metrics}
    attempted_failed = {"parent": [], "change": []}
    diffs = {"exit_differs": [], "failure_differs": [], "digests_differ": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            results[side] = run_side(getattr(args, side), args.workload, seed, args.seconds)
            res = results[side]
            for name in values:
                values[name][side].append(res["end_to_end"][name][0])
            failed = sum(r["failure"] is not None for r in res["jobs"])
            attempted_failed[side].append([len(res["jobs"]), failed])
        print(f"seed {seed}: " + "  ".join(
            f"{side} session_s {results[side]['end_to_end']['session_s'][0]:.3f}"
            for side in order), flush=True)
        compare_jobs(seed, results["parent"], results["change"], diffs)

    block = {"seeds": seeds, "pairs": len(seeds)}
    print(f"\n{args.workload}: {len(seeds)} pairs")
    for m in metrics:
        name, v = m["name"], values[m["name"]]
        lower = sum(c < p for p, c in zip(v["parent"], v["change"]))
        higher = sum(c > p for p, c in zip(v["parent"], v["change"]))
        p, c = summary(v["parent"]), summary(v["change"])
        reading = verdict(v["parent"], v["change"], m["bound"], m["better"])
        block[name] = {"unit": m["unit"], "parent": p, "change": c,
                       "change_lower_in": f"{lower}/{len(seeds)}", "verdict": reading}
        print(f"  {name:12s} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]  "
              f"change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]  "
              f"change lower in {lower}, parent lower in {higher}, "
              f"median gap {p['median'] - c['median']:+.4f}, "
              f"parent IQR {p['q3'] - p['q1']:.4f}, bound {m['bound']}: {reading}")
    block["attempted_failed"] = attempted_failed
    print("  jobs compared per seed: " + ", ".join(
        f"{k} {len(v)}" for k, v in diffs.items()))
    for key, jobs in diffs.items():
        for job in jobs:
            print(f"  {key}: {job}")
    text = json.dumps({"workloads": {args.workload: block},
                       "outputs": {args.workload: {k: len(v) for k, v in diffs.items()}}},
                      indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
