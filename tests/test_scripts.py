"""The example scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("script, args", [
    ("section_demo.py", []),
    ("flow_sweep.py", ["--seeds", "2", "--samples", "60"]),
    ("suspension_surface.py", ["--t-samples", "11", "--out", "surface.csv"]),
])
def test_script_exits_cleanly(tmp_path, script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if "--out" in args:
        assert (tmp_path / args[args.index("--out") + 1]).stat().st_size > 0
