"""Command line pipelines: specs in, deterministic reports and tables out."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from bandflow import generate, make_weak_section
from bandflow.cli import main


def write_spec(tmp_path, obj, name="family.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def read_report(out_dir, name):
    return json.loads((out_dir / name).read_text())


def run(tmp_path, spec_obj, argv_tail, spec_name="family.json"):
    spec = write_spec(tmp_path, spec_obj, name=spec_name)
    out = tmp_path / "out"
    code = main([argv_tail[0], "--spec", str(spec), "--out", str(out)] + argv_tail[1:])
    return code, out


# ------------------------------------------------------------------- flow


def test_flow_crossing_report(tmp_path, capsys):
    code, out = run(tmp_path, {"generator": "crossing"}, ["flow"])
    assert code == 0
    report = read_report(out, "flow_report.json")
    assert report["command"] == "flow"
    assert report["outputs"]["flow_chartwise"] == 1
    assert report["outputs"]["flow_oracle"] == 1
    assert report["outputs"]["flow_endpoints"] == 1
    assert all(c["passed"] for c in report["invariant_checks"])
    assert len(report["outputs"]["atlas"]) >= 2
    captured = capsys.readouterr()
    # stdout carries the same report; timing goes to stderr only
    assert json.loads(captured.out) == report
    assert "wall_time_s=" in captured.err
    assert "wall_time" not in captured.out


def test_flow_constant_family(tmp_path):
    code, out = run(tmp_path, {"generator": "constant"}, ["flow"])
    assert code == 0
    report = read_report(out, "flow_report.json")
    assert report["outputs"]["flow_chartwise"] == 0
    # 60 samples split into two charts; nothing lives between the two radii
    assert len(report["outputs"]["atlas"]) == 2
    for overlap in report["outputs"]["overlaps"]:
        assert overlap["u_minus_dim"] == 0
        assert overlap["u_plus_dim"] == 0


def test_flow_emit_branches(tmp_path):
    code, out = run(tmp_path, {"generator": "crossing"}, ["flow", "--emit-branches"])
    assert code == 0
    lines = (out / "branches.csv").read_text().strip().split("\n")
    assert lines[0] == "sample,t,lam_0,lam_1"
    assert len(lines) == 102
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == pytest.approx(-0.5)


def test_flow_sampled_spec(tmp_path):
    t = [0.0, 0.25, 0.75, 1.0]
    real = [np.diag([s - 0.5, 2.0]).tolist() for s in t]
    spec = {
        "sampled": {
            "dim": 2,
            "grid": {"kind": "interval_path", "samples": t, "closure": "open_path"},
            "matrices": {"real": real},
        }
    }
    code, out = run(tmp_path, spec, ["flow"])
    assert code == 0
    report = read_report(out, "flow_report.json")
    assert report["outputs"]["flow_chartwise"] == 1


def test_flow_rejects_malformed_sampled_spec(tmp_path, capsys):
    spec = {
        "sampled": {
            "dim": 2,
            "grid": {"kind": "interval_path", "samples": [0.0, 1.0]},
            "matrices": {"real": [np.eye(2).tolist()] * 2},
        }
    }
    code, _ = run(tmp_path, spec, ["flow"])
    assert code == 1
    err = capsys.readouterr().err
    assert "spec.sampled.grid" in err
    assert "closure" in err


def test_flow_rejects_unknown_generator(tmp_path, capsys):
    code, _ = run(tmp_path, {"generator": "wiggle"}, ["flow"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown generator" in err
    assert "crossing" in err


def _sampled_spec(dim=2, **top):
    t = [0.0, 0.5, 1.0]
    real = [np.diag([s - 0.5, 1.0]).tolist() for s in t]
    grid = {"kind": "interval_path", "samples": t, "closure": "open_path"}
    return {"sampled": {"dim": dim, "grid": grid, "matrices": {"real": real}}, **top}


@pytest.mark.parametrize("spec, field", [
    ({"generator": "crossing", "params": [1]}, "spec.params"),
    (_sampled_spec(polarized_bands=[1]), "spec.polarized_bands"),
    (_sampled_spec(dim="2"), "spec.sampled.dim"),
], ids=["params-not-object", "bands-not-pair", "dim-string"])
def test_malformed_spec_is_a_spec_error(tmp_path, capsys, spec, field):
    code, out = run(tmp_path, spec, ["flow"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: {field}:")
    assert not out.exists()


def test_flow_runs_the_documented_sampled_example(tmp_path):
    doc = (Path(__file__).parents[1] / "docs" / "format.md").read_text()
    block = re.search(r"### Sampled form\n\n```json\n(.*?)```", doc, re.S).group(1)
    spec = json.loads(block)
    assert spec["sampled"]["matrices"]["imag"] is None
    code, out = run(tmp_path, spec, ["flow"])
    assert code == 0
    assert read_report(out, "flow_report.json")["outputs"]["flow_chartwise"] == 1


def test_flow_seed_forwarding(tmp_path):
    spec = {"generator": "random_smooth", "params": {"dim": 4}}
    path = write_spec(tmp_path, spec)
    outs = []
    for tag, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        out = tmp_path / tag
        assert main(["flow", "--spec", str(path), "--out", str(out), "--seed", seed]) == 0
        outs.append((out / "flow_report.json").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_flow_reports_are_deterministic(tmp_path):
    spec = write_spec(tmp_path, {"generator": "crossing"})
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["flow", "--spec", str(spec), "--out", str(out)]) == 0
        blobs.append((out / "flow_report.json").read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------- suspend


def test_suspend_crossing(tmp_path):
    code, out = run(tmp_path, {"generator": "crossing"}, ["suspend", "--t-samples", "51"])
    assert code == 0
    report = read_report(out, "suspend_report.json")
    assert report["outputs"]["suspension_index"] == 1
    assert report["outputs"]["base_flow"] == 1
    assert report["outputs"]["n_angles"] == 51
    assert all(c["passed"] for c in report["invariant_checks"])
    lines = (out / "suspension_residuals.csv").read_text().strip().split("\n")
    assert lines[0] == "t_index,t,spectrum_residual,band_ok"
    assert len(lines) == 52
    residuals = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(residuals) <= 1e-8


# ---------------------------------------------------------------- section


def test_section_auto_rotation(tmp_path):
    code, out = run(tmp_path, {"generator": "rotation"}, ["section", "--auto"])
    assert code == 0
    report = read_report(out, "section_report.json")
    assert report["outputs"]["exists"] is True
    assert report["outputs"]["obstruction"] == 0
    assert set(report["outputs"]["section_dims"]) == {2}
    assert all(c["passed"] for c in report["invariant_checks"])


def test_section_auto_obstruction_exit_code(tmp_path):
    code, out = run(tmp_path, {"generator": "truncated_shift_flow"}, ["section", "--auto"])
    assert code == 2
    report = read_report(out, "section_report.json")
    assert report["outputs"]["exists"] is False
    assert report["outputs"]["obstruction"] == 1
    assert report["invariant_checks"][0]["passed"] is False


def test_section_default_cut_deformation(tmp_path):
    code, out = run(tmp_path, {"generator": "rotation"}, ["section"])
    assert code == 0
    report = read_report(out, "section_report.json")
    assert all(c["passed"] for c in report["invariant_checks"])
    assert report["outputs"]["reference_cut"] == 0.0
    assert len(report["outputs"]["radius"]) == 120
    assert min(report["outputs"]["radius"]) > 0
    assert report["outputs"]["max_deformation_distance"] <= 1e-12


def test_section_default_cut_crossing_fails_weak_check(tmp_path):
    # the widest near-zero gap of a crossing family is swept by the moving
    # branch, so the tautological section above it jumps and the run reports
    # a failed weak-section invariant
    code, out = run(tmp_path, {"generator": "crossing"}, ["section"])
    assert code == 1
    report = read_report(out, "section_report.json")
    by_name = {c["name"]: c["passed"] for c in report["invariant_checks"]}
    assert by_name["weak_section"] is False
    assert by_name["sandwich"] is True


def test_section_file_fixed_point(tmp_path):
    f = generate("constant")
    weak = make_weak_section(f, cut=0.0)
    frames = []
    for V in weak.subspaces:
        cols = [
            [{"re": float(V.frame[r, c].real), "im": float(V.frame[r, c].imag)}
             for r in range(V.ambient_dim)]
            for c in range(V.dim)
        ]
        frames.append({"columns": cols})
    section_path = tmp_path / "section.json"
    section_path.write_text(json.dumps({"reference_cut": 0.0, "subspaces": frames}))
    spec = write_spec(tmp_path, {"generator": "constant"})
    out = tmp_path / "out"
    code = main(["section", "--spec", str(spec), "--out", str(out),
                 "--section-file", str(section_path)])
    assert code == 0
    report = read_report(out, "section_report.json")
    assert report["outputs"]["max_deformation_distance"] <= 1e-12
    assert report["outputs"]["nu"] == []


def test_section_file_full_deformation(tmp_path):
    import bandflow

    samples = np.linspace(0.0, 1.0, 40)
    real = [np.diag([np.sin(2 * np.pi * s), 2.0]).tolist() for s in samples]
    spec = {
        "sampled": {
            "dim": 2,
            "grid": {
                "kind": "circle_loop",
                "samples": samples.tolist(),
                "closure": "exact_loop",
            },
            "matrices": {"real": real},
        }
    }
    grid = bandflow.ParameterGrid(kind="circle_loop", samples=samples,
                                  closure="exact_loop")
    f = bandflow.OperatorFamily(
        grid=grid, dim=2,
        operators=tuple(np.asarray(A, dtype=np.complex128) for A in real),
    )
    tilted = bandflow.tilt_section(f, make_weak_section(f, cut=1.5), angle=0.2)
    frames = []
    for V in tilted.subspaces:
        cols = [
            [{"re": float(V.frame[r, c].real), "im": float(V.frame[r, c].imag)}
             for r in range(V.ambient_dim)]
            for c in range(V.dim)
        ]
        frames.append({"columns": cols})
    section_path = tmp_path / "tilted.json"
    section_path.write_text(json.dumps({"reference_cut": 1.5, "subspaces": frames}))
    spec_path = write_spec(tmp_path, spec)
    out = tmp_path / "out"
    code = main(["section", "--spec", str(spec_path), "--out", str(out),
                 "--section-file", str(section_path)])
    assert code == 0
    report = read_report(out, "section_report.json")
    assert all(c["passed"] for c in report["invariant_checks"])
    assert report["outputs"]["max_deformation_distance"] == pytest.approx(
        np.sin(0.2), abs=1e-9
    )
    assert len(report["outputs"]["nu"]) >= 1
    assert report["outputs"]["radius"][0] == pytest.approx(1.75, abs=1e-9)


def test_section_emit_frames(tmp_path):
    code, out = run(tmp_path, {"generator": "constant"}, ["section", "--emit-frames"])
    assert code == 0
    frames = read_report(out, "section_frames.json")
    stops = [entry["s"] for entry in frames["homotopy"]]
    assert stops == [0.0, 0.25, 0.5, 0.75, 1.0]
    n = len(generate("constant").grid.samples)
    assert all(len(entry["frames"]) == n for entry in frames["homotopy"])
    first = frames["homotopy"][0]["frames"][0]
    assert first["ambient_dim"] == 3
    assert len(first["columns"]) == first["dim"]


def test_section_rejects_bad_section_file(tmp_path, capsys):
    section_path = tmp_path / "section.json"
    section_path.write_text(json.dumps({"reference_cut": 0.0, "subspaces": []}))
    spec = write_spec(tmp_path, {"generator": "constant"})
    code = main(["section", "--spec", str(spec), "--out", str(tmp_path / "out"),
                 "--section-file", str(section_path)])
    assert code == 1
    assert "subspaces" in capsys.readouterr().err


# ---------------------------------------------------------------- polarize


def test_polarize_crossing_and_reload(tmp_path):
    code, out = run(tmp_path, {"generator": "crossing"}, ["polarize"])
    assert code == 0
    report = read_report(out, "polarize_report.json")
    assert report["outputs"]["scale"] == pytest.approx(2.0)
    assert report["outputs"]["polarized_bands"] == [0, 1]
    assert all(c["passed"] for c in report["invariant_checks"])
    radius_lines = (out / "squash_radius.csv").read_text().strip().split("\n")
    assert radius_lines[0] == "sample,r"
    assert len(radius_lines) == 102

    # the emitted replacement family is itself a valid spec with the same flow
    out2 = tmp_path / "reload"
    code2 = main(["flow", "--spec", str(out / "replacement_family.json"),
                  "--out", str(out2)])
    assert code2 == 0
    reloaded = read_report(out2, "flow_report.json")
    assert reloaded["outputs"]["flow_chartwise"] == 1
