"""bandflow benchmark: run one workload through bandflow.cli.main in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

The workload's spec files are generated from --seed; the program sees only
those files. A pass runs every job of the workload once, each through
``bandflow.cli.main`` with stdout and stderr captured; passes repeat while
another one fits in --seconds. Every job's exit code, invariant checks,
flows and output digests are checked (see checks.py).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, and prints the per-layer metrics from the traced ones plus
the tracing overhead (traced minus untraced session time). Human-readable
lines come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Full results (environment, per-job
timings, failures and digests) go to .bench_work/results/ in the checkout.

--smoke runs every workload at toy sizes, traced and untraced, and checks
that every metric name is produced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller says otherwise: on small shared machines
# the default thread pool made every workload slower and its timings noisier.
# Set before numpy is first imported; recorded in each result's environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is measured this many times per run (fresh interpreters) and the
# median reported.
SETUP_REPEATS = 5
# job_tail_s is reported once the run's jobs leave at least this many beyond
# the tail percentile...
TAIL_BEYOND = 10
# ...and only on workloads with at least this many timed jobs per run, so the
# percentile is a tail and not the middle of a short list.
TAIL_MIN_JOBS = 50

COMMAND_METRIC = {"flow": "flow_s", "section": "section_s",
                  "polarize": "polarize_s", "suspend": "suspend_s"}

# Metrics beyond BENCHMARK.json's common set that each workload must print.
WORKLOAD_METRICS = {
    "dense-paths": ("flow_s", "section_s", "polarize_s", "failed_frac"),
    "many-small": ("flow_s", "polarize_s", "job_tail_s", "failed_frac"),
    "loops": ("suspend_s", "section_s", "failed_frac"),
}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from bandflow.cli import load_family_spec
for path in sys.argv[2:]:
    load_family_spec(path)
print(repr(time.perf_counter() - t0))
"""


def _die(msg: str) -> int:
    sys.stderr.write(f"bench: {msg}\n")
    return 2


# ---------------------------------------------------------------------------
# environment

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, AttributeError):
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# running jobs

def run_cli(argv: list) -> tuple:
    """One in-process CLI call; returns (exit code, seconds, stdout, error line)."""
    from bandflow import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raw traceback is a job failure, not a crash
            code = None
            error = f"uncaught {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    if error is None:
        lines = [ln for ln in err.getvalue().splitlines()
                 if ln and not ln.startswith("wall_time_s=")]
        error = lines[0] if lines else None
    return code, wall, out.getvalue(), error


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(out_dir: Path, stdout: str) -> dict:
    digests = {"<stdout>": _sha(stdout.encode("utf-8"))}
    if out_dir.is_dir():
        for p in sorted(out_dir.rglob("*")):
            if p.is_file():
                digests[str(p.relative_to(out_dir))] = _sha(p.read_bytes())
    return digests


class Runner:
    """Runs passes of one workload and keeps every job record."""

    def __init__(self, workload, run_dir: Path, tracer=None):
        self.w = workload
        self.run_dir = run_dir
        self.tracer = tracer
        self.spec_dir = run_dir / "specs"
        self.spec_dir.mkdir(parents=True)
        for name, spec in workload.families.items():
            (self.spec_dir / f"{name}.json").write_text(json.dumps(spec, sort_keys=True))
        self.records = []     # one dict per timed job
        self.passes = []      # {"traced": bool, "session_s": float, "spans": (lo, hi)}
        self.reference = {}   # job id -> digests from the first pass
        self._job_serial = 0

    def spec_paths(self) -> list:
        return [str(self.spec_dir / f"{name}.json") for name in self.w.families]

    def warmup(self) -> None:
        command, spec, flags = self.w.warmup
        path = self.run_dir / "warmup.json"
        path.write_text(json.dumps(spec, sort_keys=True))
        run_cli([command, "--spec", str(path), "--out", str(self.run_dir / "warmup"), *flags])
        shutil.rmtree(self.run_dir / "warmup", ignore_errors=True)

    def run_pass(self, traced: bool) -> None:
        from checks import check_job

        index = len(self.passes)
        pass_dir = self.run_dir / f"pass{index}"
        out_dirs, flows, session = {}, {}, 0.0
        tracer = self.tracer if traced else None
        lo = tracer.mark() if tracer else 0
        if tracer:
            tracer.install()
        try:
            for n, job in enumerate(self.w.jobs):
                out = pass_dir / f"job{n:03d}"
                out_dirs[job.id] = out
                if isinstance(job.spec, tuple):
                    _, src_job, fname = job.spec
                    spec = out_dirs[src_job] / fname
                else:
                    spec = self.spec_dir / f"{job.spec}.json"
                argv = [job.command, "--spec", str(spec), "--out", str(out), *job.flags]
                if tracer:
                    tracer.job = self._job_serial
                code, wall, stdout, error = run_cli(argv)
                if tracer:
                    tracer.stdout_bytes(len(stdout.encode("utf-8")))
                self._job_serial += 1
                session += wall
                failure, wrong, flow = check_job(job, code, stdout, error, flows)
                flows[job.id] = flow
                digests = output_digests(out, stdout)
                ref = self.reference.setdefault(job.id, digests)
                if ref != digests and failure is None:
                    changed = sorted(k for k in set(ref) | set(digests)
                                     if ref.get(k) != digests.get(k))
                    failure, wrong = f"output digest differs between passes: {changed}", True
                self.records.append({
                    "pass": index, "traced": traced, "job": job.id,
                    "command": job.command, "args": [job.command, *job.flags],
                    "exit": code, "wall_s": wall, "flow": flow, "failure": failure,
                    "wrong": wrong, "digests": digests,
                })
        finally:
            if tracer:
                tracer.uninstall()
            shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes.append({"traced": traced, "session_s": session,
                            "spans": (lo, tracer.mark()) if tracer else None})


def measure_setup(spec_paths: list, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *spec_paths],
                             capture_output=True, text=True, timeout=170, check=False)
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.strip()[-400:]}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# metrics

def tail(values: list) -> tuple | None:
    """Value at the highest percentile with TAIL_BEYOND values above it."""
    n = len(values)
    if n < TAIL_MIN_JOBS:
        return None
    ordered = sorted(values)
    k = n - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / n, n


def session(records: list) -> float:
    """Each job's median wall time over the passes, summed over the jobs.

    One slow pass on a shared machine moves this less than the median of
    pass totals would.
    """
    by_job = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(r["wall_s"])
    return sum(statistics.median(v) for v in by_job.values())


def end_to_end(runner: Runner, setup_times: list) -> dict:
    recs = [r for r in runner.records if not r["traced"]]
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "session_s": (session(recs), "s"),
    }
    for command, name in COMMAND_METRIC.items():
        walls = [r["wall_s"] for r in recs if r["command"] == command]
        if walls:
            m[name] = (statistics.median(walls), "s")
    t = tail([r["wall_s"] for r in recs])
    if t is not None:
        m["job_tail_s"] = (t[0], "s", f"p{t[1]:.1f} of {t[2]} jobs")
    m["failed_frac"] = (sum(r["failure"] is not None for r in runner.records)
                        / len(runner.records), "ratio")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def per_layer(runner: Runner) -> tuple:
    """Per-layer metrics, self-time share per module, and whether counts repeat.

    Times are medians over the traced passes; counts come from the first
    traced pass and must be identical in every other one.
    """
    tracer = runner.tracer
    traced = [p for p in runner.passes if p["traced"]]
    aggs = [tracer.aggregate(*p["spans"]) for p in traced]
    counts = [{(stem, k): a[stem][k] for stem in a for k in ("calls", "errors", "value")}
              for a in aggs]
    repeat = all(c == counts[0] for c in counts)
    first = aggs[0]
    m = {}
    for stem in tracer.stems:
        m[f"{stem}.calls"] = (first[stem]["calls"], "count")
        m[f"{stem}.errors"] = (first[stem]["errors"], "count")
        m[f"{stem}.s"] = (statistics.median(a[stem]["s"] for a in aggs), "s")
    eig = first["families.eigen"]
    m["families.eigen.hit_ratio"] = (eig["value"] / eig["calls"] if eig["calls"] else 0.0,
                                     "ratio")
    m["atlas.charts"] = (first["atlas.build_atlas"]["value"], "count")
    m["cli.write.bytes"] = (first["cli.write"]["value"], "bytes")
    t_sess = session([r for r in runner.records if r["traced"]])
    u_sess = session([r for r in runner.records if not r["traced"]])
    m["trace.session_s"] = (t_sess, "s")
    m["trace.overhead_s"] = (t_sess - u_sess, "s")

    # self time per module; what no wrapper covers (command bodies, argument
    # parsing, report assembly) is "unwrapped"
    shares = {}
    for stem in tracer.stems:
        module = "numpy" if stem.startswith("numpy.") else stem.split(".")[0]
        shares[module] = shares.get(module, 0.0) + m[f"{stem}.s"][0]
    shares["unwrapped"] = t_sess - sum(shares.values())
    shares = {k: v / t_sess for k, v in sorted(shares.items())}
    return m, shares, repeat


# ---------------------------------------------------------------------------
# one run

def load_benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Set up, warm up and run passes; returns (workload, runner, set-up times)."""
    from tracer import Tracer
    from workloads import build

    w = build(name, seed, smoke)
    run_dir = WORK / "runs" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        runner = Runner(w, run_dir, Tracer() if trace else None)
        setup_times = measure_setup(runner.spec_paths(), 1 if smoke else SETUP_REPEATS)
        runner.warmup()
        started = time.perf_counter()
        rounds = []
        while True:
            t0 = time.perf_counter()
            runner.run_pass(traced=False)
            if trace:
                runner.run_pass(traced=True)
            rounds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(rounds) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return w, runner, setup_times


def check_digest_store(runner: Runner, src_sha: str) -> list:
    """Compare this run's digests with an earlier run of the same code and inputs."""
    inputs = _sha(json.dumps(runner.w.about, sort_keys=True).encode())
    store = WORK / "digests" / f"{runner.w.name}-{inputs[:16]}-{src_sha[:16]}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    if not store.is_file():
        store.write_text(json.dumps(runner.reference, indent=1, sort_keys=True))
        return []
    earlier = json.loads(store.read_text())
    return sorted(j for j in runner.reference
                  if j in earlier and earlier[j] != runner.reference[j])


def fmt(name: str, entry: tuple) -> str:
    value, unit, *note = entry
    return f"  {name:<44} {value!r} {unit}" + (f"  ({note[0]})" if note else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size and check all metric names")
    args = ap.parse_args(argv)

    if not (SRC / "bandflow" / "__init__.py").is_file():
        return _die(f"no bandflow sources under {SRC}; run from a full checkout")
    try:
        bench = load_benchmark_json()
    except (OSError, ValueError) as exc:
        return _die(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.smoke:
        return smoke(bench)
    if args.workload not in WORKLOADS:
        return _die(f"--workload must be one of {', '.join(WORKLOADS)}")

    env = environment()
    w, runner, setup_times = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    e2e = end_to_end(runner, setup_times)
    layers, shares, counts_repeat = per_layer(runner) if args.trace else ({}, {}, True)
    stale = check_digest_store(runner, env["source_sha256"])

    records = runner.records
    failures = [r for r in records if r["failure"] is not None]
    wrong = [r for r in records if r["wrong"]]
    correct = not wrong and not stale and counts_repeat

    print(f"bandflow benchmark: workload={w.name} seed={args.seed} "
          f"passes={len(runner.passes)} jobs={len(records)} trace={args.trace}")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"threads={ {k: v for k, v in env['thread_env'].items() if v} } "
          f"commit={env['git_commit']}")
    print("end-to-end:")
    for name, entry in e2e.items():
        print(fmt(name, entry))
    if layers:
        print("per-layer (traced passes):")
        for name, entry in sorted(layers.items()):
            print(fmt(name, entry))
        print("self-time share by module (traced passes): "
              + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    for r in failures:
        print(f"FAILED pass {r['pass']} {r['job']}: {r['failure']}")
    for j in stale:
        print(f"WRONG {j}: digests differ from an earlier run of the same code")
    if not counts_repeat:
        print("WRONG: per-layer counts differ between traced passes")

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "families": w.about, "setup_s_samples": setup_times,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in runner.passes],
        "end_to_end": {k: list(v) for k, v in e2e.items()},
        "per_layer": {k: list(v) for k, v in layers.items()},
        "module_share": shares,
        "jobs": records, "stale_digests": stale, "counts_repeat": counts_repeat,
        "correct": correct,
    }
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    if runner.tracer is not None:
        runner.tracer.save(results_dir / f"{w.name}-spans.npz")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layers if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        return _die(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def smoke(bench: dict) -> int:
    """Toy-size traced run of every workload; checks every metric name appears."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        _, runner, setup_times = run_workload(name, seed=0, seconds=0.0, trace=True,
                                              smoke=True)
        e2e = end_to_end(runner, setup_times)
        layers, _, counts_repeat = per_layer(runner)
        wanted = [m["name"] for m in bench["end_to_end"]] + list(WORKLOAD_METRICS[name])
        missing = [n for n in wanted if n not in e2e]
        missing += [m["name"] for m in bench["per_layer"] if m["name"] not in layers]
        wrong = [r["job"] for r in runner.records if r["wrong"]]
        status = "ok" if not missing and not wrong and counts_repeat else "FAIL"
        ok = ok and status == "ok"
        print(f"smoke {name}: {status} jobs={len(runner.records)} "
              f"failed={sum(r['failure'] is not None for r in runner.records)} "
              f"missing={missing} wrong={wrong} counts_repeat={counts_repeat}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
