"""Correctness check of one job's outputs.

A job fails when it exits 1 (or raises), when any invariant check in its
report is false, when the flow it reports differs from the flow its
generator fixes, when a read-back flow differs from the flow of the family
it came from, or when ``section --auto`` exits 2 (obstruction) on a zero
flow or 0 on a nonzero one. The obstruction report's own ``section_exists``
entry is false by design and is not a failed check.

Failures are split in two: a job that stops with an error or a failed
invariant check is a failed job; a job that exits cleanly with an answer the
benchmark can show is wrong is also ``wrong``, which makes the run incorrect.
"""

from __future__ import annotations

import json

EXIT_OK, EXIT_OBSTRUCTION = 0, 2


def reported_flow(command: str, auto: bool, report: dict):
    """The flow a report states, or None for reports without one."""
    out = report.get("outputs", {})
    if command == "flow":
        return out.get("flow_chartwise")
    if command == "suspend":
        return out.get("base_flow")
    if command == "section" and auto:
        return out.get("flow")
    if command == "polarize":
        for c in report.get("invariant_checks", []):
            if c["name"] == "flow_preserved":
                return c["value"]["flow_input"]
    return None


def check_job(job, code, stdout: str, error: str | None, flows: dict) -> tuple:
    """Returns (failure message or None, wrong, reported flow or None)."""
    auto = "--auto" in job.flags
    try:
        report = json.loads(stdout) if stdout else None
    except ValueError:
        report = None
    obstruction = auto and code == EXIT_OBSTRUCTION
    failed = [c["name"] for c in (report or {}).get("invariant_checks", [])
              if not c["passed"] and not (obstruction and c["name"] == "section_exists")]
    if failed:
        return f"exit {code}, invariant checks failed: {', '.join(failed)}", False, None
    if code not in ((EXIT_OK, EXIT_OBSTRUCTION) if auto else (EXIT_OK,)):
        return (error or f"exit {code}"), False, None
    if report is None:
        return f"exit {code} without a JSON report on stdout", True, None
    flow = reported_flow(job.command, auto, report)
    if auto and obstruction == (flow == 0):
        return f"section --auto exited {code} with flow {flow}", True, flow
    if job.flow_expected is not None and flow != job.flow_expected:
        return f"flow {flow}, the generator fixes {job.flow_expected}", True, flow
    if job.flow_same_as is not None:
        ref = flows.get(job.flow_same_as)
        if ref is None:
            return f"no flow from {job.flow_same_as} to compare with", False, flow
        if flow != ref:
            return f"read-back flow {flow}, input flow {ref}", True, flow
    return None, False, flow
