"""Record the golden digests that tests/test_golden.py compares against.

Usage: PYTHONPATH=src python tests/record_golden.py

Runs the ladder in a temporary directory and rewrites
tests/golden_digests.json. Re-run only after an intentional change of the
report format, and record the reason in CHANGES.md. For every job it prints
which parts of the record (exit code, stdout, stderr line, each file)
differ from the file it overwrites, so the re-record documents itself.
"""

import json
import tempfile
from pathlib import Path

from test_golden import GOLDEN_PATH, run_ladder


def changed_parts(old: dict | None, new: dict) -> list:
    """Names of the parts of a job's record that differ from its old record."""
    if old is None:
        return ["new job"]
    parts = [key for key in ("exit", "stdout", "stderr_first_line")
             if old.get(key) != new.get(key)]
    old_files, new_files = old.get("files", {}), new["files"]
    parts += [name for name in sorted(set(old_files) | set(new_files))
              if old_files.get(name) != new_files.get(name)]
    return parts


def main() -> None:
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_ladder(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    for name, record in digests.items():
        parts = changed_parts(old.get(name), record)
        status = "changed: " + ", ".join(parts) if parts else "unchanged"
        print(f"{name}: exit {record['exit']}, {len(record['files'])} files; {status}")
    for name in sorted(set(old) - set(digests)):
        print(f"{name}: removed")


if __name__ == "__main__":
    main()
