"""The example scripts under scripts/ run to completion on small inputs."""

import importlib.util
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


def _bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent, change, better, want", [
    # the bound 0.25 is a fraction of the parent's median, here 0.255
    ([1.00, 1.01, 1.02, 1.03, 1.04], [1.30, 1.31, 1.32, 1.33, 1.34], "lower",
     "worse beyond the bound"),
    ([1.00, 1.01, 1.02, 1.03, 1.04], [1.20, 1.21, 1.22, 1.23, 1.24], "lower", "within the bound"),
    ([1.00, 1.01, 1.02, 1.03, 1.04], [0.50, 0.51, 0.52, 0.53, 0.54], "lower", "within the bound"),
    ([100.0, 100.0, 100.0], [110.0, 110.0, 110.0], "lower", "within the bound"),
    # parent IQR 1.0 is wider than 0.25 of its median 2.0
    ([1.0, 1.5, 2.0, 2.5, 3.0], [1.0, 1.5, 2.0, 2.5, 3.0], "lower", "unresolved"),
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.1, 0.2, 0.3, 0.4, 0.9], "lower", "within the bound"),
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.1, 0.2, 0.3, 0.4, 1.0], "lower", "unresolved"),
    # a higher-is-better metric reads worse when it falls
    ([10.0, 10.0, 10.0], [7.0, 7.1, 7.2], "higher", "worse beyond the bound"),
    ([10.0, 10.0, 10.0], [9.5, 9.6, 9.7], "higher", "within the bound"),
])
def test_bench_pairs_verdict(parent, change, better, want):
    assert _bench_pairs().verdict(parent, change, 0.25, better) == want
