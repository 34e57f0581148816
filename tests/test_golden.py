"""Golden bytes: a small ladder of CLI runs must reproduce recorded digests.

Each job runs ``bandflow.cli.main`` in-process from a scratch directory with
relative paths, so the spec bytes and the options that enter
``inputs_digest`` do not depend on where the test runs. For every job the
exit code, the sha256 of stdout and the sha256 of every file written are
compared with ``golden_digests.json``; a job that fails with a library error
pins the first stderr line instead of any files. Dimensions stay at most 8
so multithreaded BLAS cannot change a bit.

``python tests/record_golden.py`` rewrites the digests. Re-record only for an
intentional change of the report format, and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from bandflow.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def _sampled_diagonal_spec():
    """Open path of diag(s - 0.5, 1.5, -2.0): one branch crosses zero."""
    t = np.linspace(0.0, 1.0, 21)
    real = [np.diag([s - 0.5, 1.5, -2.0]).tolist() for s in t]
    grid = {"closure": "open_path", "kind": "interval_path", "samples": t.tolist()}
    return {"sampled": {"dim": 3, "grid": grid, "matrices": {"real": real}}}


def _section_file(tilt):
    """The eigenvector of the level 1.5, tilted toward that of -2.0.

    Untilted it is already sandwiched (the fixed-point path); tilted it has
    to be deformed.
    """
    column = [{"im": 0.0, "re": 0.0}, {"im": 0.0, "re": float(np.cos(tilt))},
              {"im": 0.0, "re": float(np.sin(tilt))}]
    return {"reference_cut": 1.0, "subspaces": [{"columns": [column]}] * 21}


def _sine_loop_spec():
    """Exact loop of diag(sin 2 pi s, 2.0) over 40 samples: one branch
    crosses zero twice, the top band stays at 2."""
    t = np.linspace(0.0, 1.0, 40)
    real = [np.diag([np.sin(2 * np.pi * s), 2.0]).tolist() for s in t]
    grid = {"closure": "exact_loop", "kind": "circle_loop", "samples": t.tolist()}
    return {"sampled": {"dim": 2, "grid": grid, "matrices": {"real": real}}}


def _tilted_loop_section(tilt):
    """The top band e2 of _sine_loop_spec tilted toward e1, at every sample."""
    column = [{"im": 0.0, "re": float(np.sin(tilt))}, {"im": 0.0, "re": float(np.cos(tilt))}]
    return {"reference_cut": 1.5, "subspaces": [{"columns": [column]}] * 40}


# (job name, spec object, argv after the subcommand's --spec/--out, extra
# input files written next to the spec)
JOBS = (
    ("flow_branches", {"generator": "crossing", "params": {"k": 2, "samples": 41}},
     ["flow", "--emit-branches"], {}),
    ("suspend_loop",
     {"generator": "random_smooth",
      "params": {"dim": 3, "loop": True, "samples": 60, "seed": 4}},
     ["suspend", "--t-samples", "21"], {}),
    ("suspend_rotation", {"generator": "rotation", "params": {"samples": 30}},
     ["suspend"], {}),
    ("suspend_shift", {"generator": "truncated_shift_flow", "params": {"N": 2, "samples": 41}},
     ["suspend", "--t-samples", "21"], {}),
    ("suspend_crossing", {"generator": "crossing", "params": {"samples": 21}},
     ["suspend", "--t-samples", "21"], {}),
    ("section_default",
     {"generator": "random_smooth", "params": {"dim": 4, "samples": 40, "seed": 2}},
     ["section", "--emit-frames"], {}),
    ("section_file", _sampled_diagonal_spec(),
     ["section", "--section-file", "section.json"], {"section.json": _section_file(0.0)}),
    ("section_file_tilted", _sampled_diagonal_spec(),
     ["section", "--section-file", "section.json", "--emit-frames"],
     {"section.json": _section_file(0.3)}),
    ("section_file_tilted_charts", _sampled_diagonal_spec(),
     ["section", "--section-file", "section.json", "--max-chart-len", "6", "--emit-frames"],
     {"section.json": _section_file(0.3)}),
    ("section_loop_tilted_charts", _sine_loop_spec(),
     ["section", "--section-file", "section.json", "--max-chart-len", "10", "--emit-frames"],
     {"section.json": _tilted_loop_section(0.2)}),
    ("section_auto_exists", {"generator": "rotation", "params": {"samples": 40}},
     ["section", "--auto", "--emit-frames"], {}),
    ("section_auto_loop",
     {"generator": "random_smooth",
      "params": {"dim": 3, "loop": True, "samples": 60, "seed": 4}},
     ["section", "--auto", "--emit-frames"], {}),
    ("section_auto_obstructed",
     {"generator": "truncated_shift_flow", "params": {"N": 2, "samples": 41}},
     ["section", "--auto", "--emit-frames"], {}),
    ("polarize", {"generator": "polarized_crossing", "params": {"samples": 41}},
     ["polarize"], {}),
    ("polarize_fails", {"generator": "random_smooth", "params": {"dim": 5, "seed": 3}},
     ["polarize"], {}),
    ("flow_branches_dense",
     {"generator": "random_smooth", "params": {"dim": 8, "samples": 80, "seed": 1}},
     ["flow", "--emit-branches"], {}),
    ("polarize_dense",
     {"generator": "random_smooth", "params": {"dim": 8, "samples": 80, "seed": 1}},
     ["polarize"], {}),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(workdir: Path, name: str, spec, argv, inputs) -> dict:
    """Run one job inside workdir/name; returns its digest record."""
    job_dir = workdir / name
    job_dir.mkdir(parents=True)
    (job_dir / "spec.json").write_text(json.dumps(spec, sort_keys=True))
    for fname, obj in inputs.items():
        (job_dir / fname).write_text(json.dumps(obj, sort_keys=True))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(job_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "--spec", "spec.json", "--out", "out"] + argv[1:])
    finally:
        os.chdir(cwd)
    out_dir = job_dir / "out"
    files = {}
    if out_dir.is_dir():
        files = {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    record = {"exit": code, "files": files, "stdout": _sha(out.getvalue().encode("utf-8"))}
    if code != 0 and not files:
        record["stderr_first_line"] = err.getvalue().splitlines()[0]
    return record


def run_ladder(workdir: Path) -> dict:
    return {name: run_job(workdir, name, spec, argv, inputs)
            for name, spec, argv, inputs in JOBS}


@pytest.mark.parametrize("job", JOBS, ids=[j[0] for j in JOBS])
def test_golden_bytes(tmp_path, job):
    golden = json.loads(GOLDEN_PATH.read_text())
    name, spec, argv, inputs = job
    assert run_job(tmp_path, name, spec, argv, inputs) == golden[name]
