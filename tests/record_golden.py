"""Record the golden digests that tests/test_golden.py compares against.

Usage: PYTHONPATH=src python tests/record_golden.py

Runs the ladder in a temporary directory and rewrites
tests/golden_digests.json. Re-run only after an intentional change of the
report format, and record the reason in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

from test_golden import GOLDEN_PATH, run_ladder


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_ladder(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    for name, record in digests.items():
        print(f"{name}: exit {record['exit']}, {len(record['files'])} files")


if __name__ == "__main__":
    main()
