"""Command line pipelines: specs in, deterministic reports and tables out."""

import contextlib
import inspect
import io
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bandflow.cli
import bandflow.linalg
import bandflow.sections
import bandflow.suspension
from bandflow import (
    GENERATORS,
    band_identity_check,
    finite_polarized_replace,
    generate,
    make_weak_section,
)
from bandflow.atlas import DEFAULT_GAP_TOL, DEFAULT_MAX_CHART_LEN
from bandflow.cli import _encode, _load_section_file, _write_json, load_family_spec, main


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


def _shifted_spec(shift):
    """A shifted loop, diag(-1, 1) at 3 samples, declaring the given shift."""
    spec = _sampled_spec()
    spec["sampled"]["grid"].update(kind="circle_loop", closure="shifted_loop", shift=shift)
    spec["sampled"]["matrices"]["real"] = [np.diag([-1.0, 1.0]).tolist()] * 3
    return spec


def _nested_grid_spec():
    spec = _sampled_spec()
    grid = spec["sampled"]["grid"]
    grid["samples"] = [[t] for t in grid["samples"]]
    return spec


@pytest.mark.parametrize("spec, field", [
    ({"generator": "crossing", "params": [1]}, "spec.params"),
    (_sampled_spec(polarized_bands=[1]), "spec.polarized_bands"),
    (_sampled_spec(dim="2"), "spec.sampled.dim"),
    ({"generator": "random_smooth", "params": {"seed": -1}}, "spec.params"),
    ({"generator": "random_smooth", "params": {"seed": 2**64}}, "spec.params"),
    ({"generator": "crossing", "params": {"samples": -3}}, "spec.params"),
    ({"generator": "crossing", "params": {"wiggle": 1}}, "spec.params"),
    ({"generator": "truncated_shift_flow", "params": {"samples": 1}}, "spec.params"),
    ({"generator": "random_smooth", "params": {"samples": 0, "loop": True}}, "spec.params"),
    ({"generator": "rotation", "params": {"m": -1}}, "spec.params"),
    (_sampled_spec(hermitian="false"), "spec.hermitian"),
    (_nested_grid_spec(), "spec.sampled.grid"),
    (_shifted_spec(0.7), "spec.sampled.grid"),
    (_shifted_spec(True), "spec.sampled.grid"),
    (_sampled_spec(polarized_bands=[1.9, 1.2]), "spec.polarized_bands"),
    (_sampled_spec(polarized_bands=[1, False]), "spec.polarized_bands"),
], ids=["params-not-object", "bands-not-pair", "dim-string", "seed-negative",
        "seed-beyond-64-bits", "samples-negative", "unknown-param", "one-sample",
        "no-samples-loop", "spectators-negative", "hermitian-string", "grid-nested",
        "shift-float", "shift-bool", "bands-float", "bands-bool"])
def test_malformed_spec_is_a_spec_error(tmp_path, capsys, spec, field):
    code, out = run(tmp_path, spec, ["flow"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: {field}:")
    assert not out.exists()


@pytest.mark.parametrize("gap_tol", ["-1", "nan", "inf"])
def test_bad_gap_tol_exits_1_without_a_report(tmp_path, capsys, gap_tol):
    code, out = run(tmp_path, {"generator": "crossing", "params": {"samples": 21}},
                    ["flow", f"--eps-gap-tol={gap_tol}"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValidationError: gap tolerance must be "
                                              f"finite and nonnegative, got {float(gap_tol)}")
    assert not out.exists()


def test_nested_grid_samples_name_their_fault(tmp_path, capsys):
    code, _ = run(tmp_path, _nested_grid_spec(), ["flow"])
    assert code == 1
    assert "flat list of numbers" in capsys.readouterr().err


_PARAM_VALUES = st.sampled_from([-3, -1, 0, 1, 2, 3, 7, 0.5, -0.5, 2.0, 1e-300, 2**64,
                                 "x", "", None, True, False, [1], {}])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GENERATORS)), st.data())
def test_generator_params_never_end_in_a_traceback(tmp_path_factory, name, data):
    keys = sorted(inspect.signature(GENERATORS[name]).parameters) + ["bogus"]
    chosen = data.draw(st.lists(st.sampled_from(keys), unique=True))
    params = {k: data.draw(_PARAM_VALUES) for k in chosen}
    tmp_path = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code, _ = run(tmp_path, {"generator": name, "params": params}, ["flow"])
    assert code in (0, 1)


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


def _conjugated_open_path(c):
    """21 samples of Q diag(s - 0.5, 1.5 c, -2 c) Q* for a fixed unitary Q."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    t = np.linspace(0.0, 1.0, 21)
    ops = [Q @ np.diag([s - 0.5, 1.5 * c, -2.0 * c]) @ Q.conj().T for s in t]
    grid = {"closure": "open_path", "kind": "interval_path", "samples": t.tolist()}
    matrices = {"real": [o.real.tolist() for o in ops], "imag": [o.imag.tolist() for o in ops]}
    return {"sampled": {"dim": 3, "grid": grid, "matrices": matrices}}


def test_suspend_spectrum_identity_bound_scales_with_the_spectrum(tmp_path):
    # lam^2 reaches 4e8; a deviation of 4e-7 is roundoff, within 1e-9 * 4e8
    code, out = run(tmp_path, _conjugated_open_path(1e4), ["suspend"])
    assert code == 0
    check = read_report(out, "suspend_report.json")["invariant_checks"][0]
    assert check["name"] == "spectrum_identity_max_residual"
    assert check["passed"] is True
    assert 1e-8 < check["value"] < 1e-9 * 4e8


def test_suspend_fails_on_a_shifted_plane_eigenvalue(tmp_path, monkeypatch, capsys):
    # sample 0's plane reports its lowest eigenvalue, -2, moved by 1e-6 while
    # its frame stays exact: only the residual A V - V Lambda sees the shift
    solve = bandflow.families.hermitian_eig_stack

    def shifted(stack):
        lam, F = solve(stack)
        lam[0, 0] += 1e-6
        return lam, F

    monkeypatch.setattr(bandflow.families, "hermitian_eig_stack", shifted)
    code, out = run(tmp_path, _conjugated_open_path(1.0), ["suspend"])
    # the failed identity is reported, not raised: the report is written in full
    assert code == 1
    report = read_report(out, "suspend_report.json")
    assert json.loads(capsys.readouterr().out) == report
    check = {c["name"]: c for c in report["invariant_checks"]}["spectrum_identity_max_residual"]
    assert check["passed"] is False
    # on the equator the bound is at least 2 rho eta, rho = 2 - 1e-6, eta >= 1e-6
    assert check["value"] >= 2 * (2 - 1e-6) * 1e-6 * (1 - 1e-9)
    assert (out / "suspension_residuals.csv").is_file()


def _count_eigensolves(monkeypatch):
    """Count numpy's eigvalsh and eigh, and linalg.hermitian_eig at every binding."""
    counts = {"eigvalsh": 0, "eigh": 0, "hermitian_eig": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    original = bandflow.linalg.hermitian_eig
    wrapped = counting("hermitian_eig", original)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "bandflow" and vars(mod).get("hermitian_eig") is original:
            monkeypatch.setattr(mod, "hermitian_eig", wrapped)
    return counts


def test_suspend_eigensolve_count_does_not_grow_with_samples(tmp_path, monkeypatch):
    # the atlas walks each chart's band with one eigvalsh, so one chart at
    # both sizes keeps its share fixed; the suspension solves nothing per angle
    seen = []
    for samples in (60, 120):
        for t_samples in ("21", "41"):
            spec = {"generator": "random_smooth",
                    "params": {"dim": 3, "loop": True, "samples": samples, "seed": 4}}
            run_dir = tmp_path / f"{samples}_{t_samples}"
            run_dir.mkdir()
            with monkeypatch.context() as m:
                counts = _count_eigensolves(m)
                code, _ = run(run_dir, spec,
                              ["suspend", "--t-samples", t_samples, "--max-chart-len", "120"])
            assert code == 0
            seen.append(counts)
    assert all(counts == seen[0] for counts in seen)
    assert seen[0]["hermitian_eig"] == 0


def test_suspend_makes_one_det_and_one_band_edge_read(tmp_path, monkeypatch):
    # the winding contour is one stacked det and the band correspondence one
    # first_edge_error over its (sample, angle) table, at any size
    for samples in (60, 120):
        for t_samples in ("21", "41"):
            spec = {"generator": "random_smooth",
                    "params": {"dim": 3, "loop": True, "samples": samples, "seed": 4}}
            run_dir = tmp_path / f"{samples}_{t_samples}"
            run_dir.mkdir()
            counts = {"det": 0, "first_edge_error": 0}

            def counting(name, fn):
                return lambda *args: counts.__setitem__(name, counts[name] + 1) or fn(*args)

            with monkeypatch.context() as m:
                m.setattr(np.linalg, "det", counting("det", np.linalg.det))
                m.setattr(bandflow.suspension, "first_edge_error",
                          counting("first_edge_error", bandflow.suspension.first_edge_error))
                code, out = run(run_dir, spec, ["suspend", "--t-samples", t_samples])
            assert code == 0
            assert read_report(out, "suspend_report.json")["outputs"]["det_winding"] == 0
            assert counts == {"det": 1, "first_edge_error": 1}


# ---------------------------------------------------------------- section


def test_section_auto_rotation(tmp_path):
    code, out = run(tmp_path, {"generator": "rotation"}, ["section", "--auto"])
    assert code == 0
    report = read_report(out, "section_report.json")
    assert report["outputs"]["exists"] is True
    assert report["outputs"]["obstruction"] == 0
    assert set(report["outputs"]["section_dims"]) == {2}
    assert all(c["passed"] for c in report["invariant_checks"])


def test_section_auto_makes_no_deformation_call(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("section --auto deformed its witness")

    monkeypatch.setattr(bandflow.cli, "deform_to_spectral_section", refuse)
    monkeypatch.setattr(bandflow.sections, "deform_to_spectral_section", refuse)
    monkeypatch.setattr(bandflow.sections, "_fixed_point_radius", refuse)
    code, out = run(tmp_path, {"generator": "rotation"}, ["section", "--auto"])
    assert code == 0
    note = read_report(out, "section_report.json")["outputs"]["note"]
    assert "glued through the deformation" in note


def test_section_auto_obstruction_exit_code(tmp_path):
    code, out = run(tmp_path, {"generator": "truncated_shift_flow"}, ["section", "--auto"])
    assert code == 2
    report = read_report(out, "section_report.json")
    assert report["outputs"]["exists"] is False
    assert report["outputs"]["obstruction"] == 1
    assert report["invariant_checks"][0]["passed"] is False


def test_section_auto_on_an_open_path_is_the_run_without_it(tmp_path):
    # --auto falls through to deformation mode on an open path, so it must not
    # enter options, and with them inputs_digest
    spec = write_spec(tmp_path, {"generator": "crossing", "params": {"samples": 21}})
    codes, reports = [], []
    for k, flags in enumerate([[], ["--auto"]]):
        out = tmp_path / f"out{k}"
        codes.append(main(["section", "--spec", str(spec), "--out", str(out)] + flags))
        reports.append((out / "section_report.json").read_bytes())
    assert codes == [1, 1]  # the weak-section check fails, as without the flag
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["options"]["auto"] is False


def test_main_parses_each_call_afresh_with_one_parser(tmp_path):
    """main keeps one parser; no flag of a call reaches the next one."""
    spec = write_spec(tmp_path, {"generator": "rotation"})
    argv = ["--spec", str(spec), "--out", str(tmp_path / "out")]
    assert main(["section", "--auto", "--eps-gap-tol", "2e-6", "--max-chart-len", "50"] + argv) == 0
    first = read_report(tmp_path / "out", "section_report.json")["options"]
    assert main(["section"] + argv) == 0
    second = read_report(tmp_path / "out", "section_report.json")["options"]
    assert first == {"auto": True, "eps_gap_tol": 2e-6, "max_chart_len": 50, "section_file": None}
    assert second == {"auto": False, "eps_gap_tol": DEFAULT_GAP_TOL,
                      "max_chart_len": DEFAULT_MAX_CHART_LEN, "section_file": None}
    parser = bandflow.cli._parser()
    assert parser is bandflow.cli._parser()
    assert not hasattr(parser.parse_args(["flow"] + argv), "auto")


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


def _tilted_loop_files(tmp_path):
    """Spec of a dim-2 loop and a section file tilting its top band by 0.2."""
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
    return write_spec(tmp_path, spec), section_path


def test_section_file_full_deformation(tmp_path):
    spec_path, section_path = _tilted_loop_files(tmp_path)
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


def test_commands_read_windows_off_the_spectral_plane(tmp_path, monkeypatch, window_builds):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-sample spectral route was called")

    monkeypatch.setattr(bandflow.families.OperatorFamily, "eigen", refuse)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "bandflow" and hasattr(module, "spectral_projection"):
            monkeypatch.setattr(module, "spectral_projection", refuse)
    spec_path, section_path = _tilted_loop_files(tmp_path)
    window_builds.clear()
    assert main(["section", "--spec", str(spec_path), "--out", str(tmp_path / "deform"),
                 "--section-file", str(section_path), "--max-chart-len", "10",
                 "--emit-frames"]) == 0
    assert len(read_report(tmp_path / "deform", "section_report.json")["outputs"]["nu"]) > 1
    assert window_builds == []
    for k, (name, argv) in enumerate([("random_smooth", ["flow"]),
                                      ("rotation", ["section", "--auto"]),
                                      ("crossing", ["suspend"]),
                                      ("crossing", ["polarize"]),
                                      ("random_smooth", ["section"])]):
        (tmp_path / str(k)).mkdir()
        assert run(tmp_path / str(k), {"generator": name}, argv)[0] == 0
    assert window_builds == []


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


_E1 = [{"re": 1.0, "im": 0.0}, {"re": 0.0}]


def _section_with(frame=None, **top):
    """Section file for _sampled_spec(): e1 at every sample, frame at sample 1."""
    frames = [{"columns": [_E1]}] * 3
    if frame is not None:
        frames = [frames[0], frame, frames[2]]
    return {"reference_cut": 0.0, "subspaces": frames, **top}


@pytest.mark.parametrize("section, field", [
    (_section_with({"columns": [[{"im": 0.0}, {"re": 0.0}]]}), "section.subspaces[1].columns"),
    (_section_with({"columns": [[1.0, 0.0]]}), "section.subspaces[1].columns"),
    (_section_with({"columns": [[{"re": "x"}, {"re": 0.0}]]}), "section.subspaces[1].columns"),
    (_section_with({"columns": [[{"re": None}, {"re": 0.0}]]}), "section.subspaces[1].columns"),
    (_section_with({"columns": [[{"re": [1.0, 0.0]}, {"re": 0.0}]]}),
     "section.subspaces[1].columns"),
    (_section_with({"columns": [[{"re": 1.0}]]}), "section.subspaces[1].columns[0]"),
    (_section_with({"columns": 5}), "section.subspaces[1].columns"),
    (_section_with([_E1]), "section.subspaces[1]"),
    (_section_with(subspaces=5), "section.subspaces"),
    (_section_with(reference_cut="x"), "section.reference_cut"),
    ([0.0], "section"),
], ids=["entry-without-re", "bare-number", "re-string", "re-null", "re-list",
        "short-column", "columns-not-list", "frame-not-object", "subspaces-not-list",
        "cut-string", "top-level-list"])
def test_malformed_section_file_is_a_spec_error(tmp_path, capsys, section, field):
    section_path = tmp_path / "section.json"
    section_path.write_text(json.dumps(section))
    spec = write_spec(tmp_path, _sampled_spec())
    code = main(["section", "--spec", str(spec), "--out", str(tmp_path / "out"),
                 "--section-file", str(section_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"spec error: {field}:")


def test_section_file_frames_must_be_orthonormal(tmp_path, capsys):
    section_path = tmp_path / "section.json"
    section_path.write_text(json.dumps(_section_with({"columns": [[{"re": 2.0}, {"re": 0.0}]]})))
    spec = write_spec(tmp_path, _sampled_spec())
    code = main(["section", "--spec", str(spec), "--out", str(tmp_path / "out"),
                 "--section-file", str(section_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        "spec error: section.subspaces[1]: subspace frame is not orthonormal")


def test_section_file_entries_keep_signed_zeros_and_integers(tmp_path):
    column = [{"re": -0.0, "im": 1}, {"re": 0, "im": -0.0}]
    f, _, _ = load_family_spec(write_spec(tmp_path, _sampled_spec()))
    path = tmp_path / "section.json"
    path.write_text(json.dumps({"reference_cut": 0.5, "subspaces": [{"columns": [column]}] * 3}))
    weak, raw = _load_section_file(path, f)
    assert raw == path.read_bytes()
    frame = weak.subspaces[0].frame
    expected = np.array([[complex(-0.0, 1)], [complex(0, -0.0)]])
    assert frame.flags.c_contiguous
    assert np.array_equal(frame.view(np.float64), expected.view(np.float64))
    assert np.array_equal(np.signbit(frame.view(np.float64)), np.signbit(expected.view(np.float64)))


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


def test_polarize_solves_only_its_input(tmp_path, monkeypatch):
    # the normalized input and the replacement get closed-form planes, and
    # a read-back replacement is solved once, by its frozen-band check
    spec = {"generator": "random_smooth", "params": {"dim": 4, "samples": 200, "seed": 2}}
    counts = _count_eigensolves(monkeypatch)
    code, out = run(tmp_path, spec, ["polarize"])
    assert code == 0
    assert counts["eigh"] == 1
    counts["eigh"] = 0
    code = main(["polarize", "--spec", str(out / "replacement_family.json"),
                 "--out", str(tmp_path / "again")])
    assert code == 0
    assert counts["eigh"] == 1


def test_band_identity_check_runs_no_eigensolve(monkeypatch):
    rep = finite_polarized_replace(generate("random_smooth", dim=4, samples=200, seed=1))
    counts = _count_eigensolves(monkeypatch)
    band_identity_check(rep.scaled_input, rep.family, rep.radius)
    assert counts == {"eigvalsh": 0, "eigh": 0, "hermitian_eig": 0}


# ---------------------------------------------------------- inputs_digest


def _digest(out, command):
    return read_report(out, f"{command}_report.json")["inputs_digest"]


def test_digest_covers_an_effective_seed(tmp_path):
    spec = write_spec(tmp_path, {"generator": "random_smooth",
                                 "params": {"dim": 3, "samples": 40}})
    reports = {}
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["flow", "--spec", str(spec), "--out", str(out), "--seed", seed]) == 0
        reports[seed] = read_report(out, "flow_report.json")
    assert reports["1"]["outputs"]["atlas"] != reports["2"]["outputs"]["atlas"]
    assert reports["1"]["options"]["seed"] == 1
    assert reports["1"]["inputs_digest"] != reports["2"]["inputs_digest"]


@pytest.mark.parametrize("spec", [
    {"generator": "random_smooth", "params": {"dim": 3, "samples": 40, "seed": 5}},
    {"generator": "crossing"},
    _sampled_spec(),
])
def test_an_ineffective_seed_leaves_the_report_alone(tmp_path, spec):
    path = write_spec(tmp_path, spec)
    blobs = []
    for tag, extra in (("none", []), ("seeded", ["--seed", "9"])):
        out = tmp_path / tag
        assert main(["flow", "--spec", str(path), "--out", str(out)] + extra) == 0
        blobs.append((out / "flow_report.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert "seed" not in json.loads(blobs[0])["options"]


def test_digest_covers_grid_refine_of_suspend(tmp_path):
    spec = write_spec(tmp_path, {"generator": "crossing", "params": {"samples": 21}})
    digests = set()
    for refine in ("1", "3"):
        out = tmp_path / refine
        assert main(["suspend", "--spec", str(spec), "--out", str(out),
                     "--t-samples", "11", "--grid-refine", refine]) == 0
        assert read_report(out, "suspend_report.json")["options"]["grid_refine"] == int(refine)
        digests.add(_digest(out, "suspend"))
    assert len(digests) == 2


def _section_file_json(tilt):
    column = [{"re": 0.0}, {"re": float(np.cos(tilt))}, {"re": float(np.sin(tilt))}]
    return json.dumps({"reference_cut": 1.0, "subspaces": [{"columns": [column]}] * 21})


def test_digest_covers_section_file_bytes_not_its_path(tmp_path):
    spec = write_spec(tmp_path, {"sampled": {
        "dim": 3,
        "grid": {"closure": "open_path", "kind": "interval_path",
                 "samples": np.linspace(0.0, 1.0, 21).tolist()},
        "matrices": {"real": [np.diag([s - 0.5, 1.5, -2.0]).tolist()
                              for s in np.linspace(0.0, 1.0, 21)]}}})
    same_path = tmp_path / "section.json"
    other_path = tmp_path / "elsewhere.json"
    digests = {}
    for tag, path, tilt in (("a", same_path, 0.0), ("b", same_path, 0.3),
                            ("c", other_path, 0.0)):
        path.write_text(_section_file_json(tilt))
        out = tmp_path / tag
        assert main(["section", "--spec", str(spec), "--out", str(out),
                     "--section-file", str(path)]) == 0
        digests[tag] = _digest(out, "section")
    assert digests["a"] != digests["b"]
    assert digests["a"] == digests["c"]


# ------------------------------------------------------------ JSON writer


def _jsonable(obj):
    """Nested-list form of a report object; with json.dumps, the reference
    for the writer's text."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return {"im": float(z.imag), "re": float(z.real)}
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _encoded(obj) -> str:
    out = []
    _encode(obj, "\n", out.append)
    return "".join(out)


# The writer formats a row in compiled code when every entry is 0 or of
# magnitude in [1e-4, 1e16); the edges of that range sit on both sides.
_PLAIN_EDGES = [1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1e16, 0)), 1e16]
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"), 0.1, 123456789.0, 1.5e-310, -1.5e-310,
    *_PLAIN_EDGES, *(-x for x in _PLAIN_EDGES),
])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
    hnp.arrays(np.float32, _SHAPES, elements=st.floats(width=32)),
    hnp.arrays(np.complex128, _SHAPES, elements=_COMPLEX),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.uint8, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
    st.sampled_from([np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((2, 0, 2)),
                     np.zeros((0,), dtype=np.complex128), np.zeros((4, 4)).T[1:, ::2]]),
)
_NUMPY_SCALARS = st.one_of(
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    _COMPLEX.map(np.complex128),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _COMPLEX, st.text(),
    _NUMPY_SCALARS, _ARRAYS,
)
_OBJECTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200)
@given(_OBJECTS)
def test_json_writer_matches_indented_json_dumps(obj):
    try:
        expected = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    except TypeError:
        # a 0-d array has no nested-list form
        with pytest.raises(TypeError):
            _encoded(obj)
        return
    assert _encoded(obj) == expected


def _plain_rows(a: np.ndarray) -> np.ndarray:
    mag = np.abs(a)
    return ((a == 0) | ((mag >= 1e-4) & (mag < 1e16))).all(axis=-1)


def _parity_stack(rng, shape=(60, 7, 9)) -> np.ndarray:
    """Random bit patterns and log-uniform values over [1e-7, 1e18].

    Every fourth block of rows lies inside the plain range, and every
    fourth is log-uniform over [1e-5, 1e17], so that many of its rows miss
    the range by one entry within a decade of an edge.
    """
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    log_uniform = sign * 10.0 ** rng.uniform(-7, 18, shape)
    bits = rng.integers(0, 2**64, shape, dtype=np.uint64, endpoint=False).view(np.float64)
    arr = np.where(rng.random(shape) < 0.5, bits, log_uniform)
    # plain rows: random mantissas with exponents inside the range, short
    # decimals and zeros of both signs
    inside = sign * np.ldexp(rng.uniform(1.0, 2.0, shape), rng.integers(-13, 53, shape))
    decimals = sign * np.round(rng.uniform(0, 1000, shape), 3)
    arr[::4] = np.where(rng.random(shape) < 0.5, inside, decimals)[::4]
    arr[::8, :, 0] = -0.0
    arr[1::4] = (sign * 10.0 ** rng.uniform(-5, 17, shape))[1::4]
    return arr


def test_json_writer_float_rows_match_repr_in_bulk():
    """Pins the installed orjson to repr's text on plain rows, and the
    fallback to repr on the rest, for float64, complex parts and float32."""
    rng = np.random.default_rng(20)
    arr = _parity_stack(rng)
    plain = _plain_rows(arr)
    assert plain.any() and not plain.all()
    assert _encoded(arr) == json.dumps(arr.tolist(), indent=2)
    z = np.empty(arr.shape, dtype=np.complex128)
    z.real, z.imag = arr, _parity_stack(rng)
    for part in (z.real, z.imag):
        assert not part.flags.c_contiguous
        assert _encoded(part) == json.dumps(part.tolist(), indent=2)
    shape = (60, 7, 9)
    bits32 = rng.integers(0, 2**32, shape, dtype=np.uint32).view(np.float32)
    log32 = (10.0 ** rng.uniform(-7, 18, shape)).astype(np.float32)
    f32 = np.where(rng.random(shape) < 0.5, bits32, log32)
    f32[::3] = log32[::3].clip(1e-4, 1e15)
    with np.errstate(invalid="ignore"):  # signalling NaN bit patterns
        assert _plain_rows(f32.astype(np.float64)).any()
    assert _encoded(f32) == json.dumps(f32.tolist(), indent=2)


_BLOCK_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324,
                     *_PLAIN_EDGES, *(-x for x in _PLAIN_EDGES)]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300)
@given(st.one_of(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                         max_side=5), elements=_BLOCK_FLOATS),
                 hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                       max_side=5))),
       st.integers(1, 40))
def test_json_writer_blocks_match_json_dumps(a, block_entries):
    """Blocks of a few entries straddle the rows of the leading-axis items."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bandflow.cli, "_BLOCK_ENTRIES", block_entries)
        assert _encoded(a) == json.dumps(a.tolist(), indent=2)
        assert _encoded({"x": [a]}) == json.dumps({"x": [a.tolist()]}, indent=2)


def test_json_writer_writes_the_report_text(tmp_path, capsys):
    obj = {"a": np.arange(6.0).reshape(2, 3), 2: [np.int32(4), None, "é"], "z": 1j}
    _write_json(tmp_path / "x.json", obj, echo=sys.stdout)
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "x.json").read_bytes() == text.encode("ascii")
    assert capsys.readouterr().out == text


def test_json_writer_holds_no_copy_of_the_file(tmp_path):
    """A (180, 40, 40) family streams out under 1.3x its file size.

    Joining the chunks into one string and encoding it takes two copies of
    the text, at least 2x the file size, on top of the row chunks.
    """
    rng = np.random.default_rng(0)
    ops = rng.standard_normal((180, 40, 40)) + 1j * rng.standard_normal((180, 40, 40))
    family = {"sampled": {"dim": 40, "matrices": {"imag": ops.imag, "real": ops.real}}}
    path = tmp_path / "family.json"
    tracemalloc.start()
    try:
        _write_json(path, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * path.stat().st_size
