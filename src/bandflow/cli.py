"""Batch command line front end.

JSON family specs in, JSON reports and CSV tables out. Reports are written
with sorted keys and repr floats, so a fixed spec and fixed flags produce
byte-identical files run after run; wall time goes to stderr and never into
a report. Exit codes: 0 success, 2 mathematical obstruction (a loop whose
flow blocks a section), 1 any error.

JSON text comes from one recursive encoder whose output is exactly
json.dumps(..., indent=2, sort_keys=True) of the nested-list form of the
data. It takes numpy arrays as they are: a real float or integer array is
formatted by orjson in compiled code, one block of leading-axis items per
chunk. orjson prints 0 and magnitudes in [1e-4, 1e16) exactly as repr does;
the few other entries get float repr's text spliced in. That keeps the
sampled family that polarize writes cheap. The encoder hands its chunks
straight to the open file, so no copy of a whole file's text is ever held.

JSON input, the spec and the section file, goes through one reader: a
nesting guard over the raw bytes, then orjson, which parses the bytes in
compiled code and rounds every decimal to the nearest double.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .atlas import DEFAULT_GAP_TOL, DEFAULT_MAX_CHART_LEN, Atlas, build_atlas, check_atlas, cover_category
from .errors import BandflowError, SpecError
from .families import GENERATORS, OperatorFamily, ParameterGrid, generate
from .flow import index_chain, spectral_flow_routes
from .linalg import Subspace, subspace_distances
from .polarize import finite_polarized_replace, flow_preservation_check
from .sections import (
    WeakSpectralSection,
    deform_to_spectral_section,
    default_level_grid,
    discrete_spectrum_check,
    make_weak_section,
    section_existence,
    weak_section_check,
)
from .suspension import (
    band_correspondence_check,
    spectrum_identity_deviation,
    spectrum_identity_tolerance,
    suspend,
    suspension_index,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OBSTRUCTION = 2

HOMOTOPY_STOPS = (0.0, 0.25, 0.5, 0.75, 1.0)


# ---------------------------------------------------------------------------
# serialization helpers

def _frame_json(V: Subspace) -> dict:
    return {"ambient_dim": V.ambient_dim, "columns": V.frame.T, "dim": V.dim}


def _grid_json(grid: ParameterGrid) -> dict:
    return {
        "closure": grid.closure,
        "kind": grid.kind,
        "samples": grid.samples,
        "shift": int(grid.shift),
    }


def _family_json(f: OperatorFamily) -> dict:
    ops = f.operator_stack
    out = {
        "sampled": {
            "dim": f.dim,
            "grid": _grid_json(f.grid),
            "matrices": {"imag": ops.imag, "real": ops.real},
        }
    }
    if f.polarized_bands is not None:
        out["polarized_bands"] = [int(m) for m in f.polarized_bands]
    if f.scale is not None:
        out["scale"] = float(f.scale)
    return out


def _atlas_json(atlas: Atlas) -> list:
    return [{"end": c.end, "eps": float(c.eps), "start": c.start}
            for c in atlas.charts]


_INDENT = "  "
_quote = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == np.inf:
        return "Infinity"
    if x == -np.inf:
        return "-Infinity"
    return float.__repr__(x)


# orjson prints a double as repr does when it is 0 or 1e-4 <= |x| < 1e16;
# outside that range it spells exponents differently (0.00005 for 5e-05,
# 1e16 for 1e+16). Such entries, NaN and the infinities reach orjson as NaN,
# which it writes as null, and their repr text is spliced in afterwards.
_PLAIN_MIN = 1e-4
_PLAIN_MAX = 1e16
_ARRAY_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2
# entries per orjson call, so that a block's text stays small beside a file's
_BLOCK_ENTRIES = 1 << 15


def _block_text(block: np.ndarray) -> bytes:
    """orjson's indented text of a float64 or integer array, repr's for every float."""
    if block.dtype.kind == "f":
        mag = np.abs(block)
        odd = ~((block == 0) | ((mag >= _PLAIN_MIN) & (mag < _PLAIN_MAX)))
        if odd.any():
            pieces = orjson.dumps(np.where(odd, np.nan, block), option=_ARRAY_OPTIONS).split(b"null")
            out = [b""] * (2 * len(pieces) - 1)
            out[::2], out[1::2] = pieces, (_float_text(x).encode() for x in block[odd].tolist())
            return b"".join(out)
    return orjson.dumps(block, option=_ARRAY_OPTIONS)


def _array_text(a: np.ndarray, nl: str, write) -> None:
    """Write a C-contiguous float64 or integer array, one orjson call per
    block of leading-axis items holding about _BLOCK_ENTRIES entries."""
    if not len(a):
        write("[]")
        return
    step, nl_bytes = max(1, _BLOCK_ENTRIES // max(1, a[0].size)), nl.encode()
    sep = "["
    for i in range(0, len(a), step):
        # drop the block's own brackets: "[" in front, "\n]" behind
        write(sep + _block_text(a[i:i + step])[1:-2].replace(b"\n", nl_bytes).decode())
        sep = ","
    write(nl + "]")


def _encode(obj, nl: str, write) -> None:
    """Pass the JSON text of obj to write in chunks; nl is a newline plus obj's indent.

    The text is what json.dumps(..., indent=2, sort_keys=True) gives for the
    nested-list form of obj: keys turned into strings and sorted, numpy
    scalars as Python numbers, arrays as nested lists and complex numbers as
    {"im": ..., "re": ...}.

    A real float array is widened to one C-contiguous float64 array and
    written, like an integer array, one block of leading-axis items per
    chunk. orjson formats each block; its text for 0 and magnitudes in
    [1e-4, 1e16) is repr's, and every other entry (NaN and infinities too)
    is replaced by float repr's text, as json spells it.
    """
    if isinstance(obj, str):
        write(_quote(obj))
    elif isinstance(obj, (float, np.floating)):
        write(_float_text(float(obj)))
    elif isinstance(obj, (bool, np.bool_)):
        write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(int.__repr__(int(obj)))
    elif obj is None:
        write("null")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        items = {str(k): v for k, v in obj.items()}
        inner = nl + _INDENT
        sep = "{" + inner
        for key in sorted(items):
            write(sep + _quote(key) + ": ")
            _encode(items[key], inner, write)
            sep = "," + inner
        write(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = nl + _INDENT
        sep = "[" + inner
        for v in obj:
            write(sep)
            _encode(v, inner, write)
            sep = "," + inner
        write(nl + "]")
    elif isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            raise TypeError("a 0-d array is not a JSON list")
        if obj.dtype.kind == "f" and obj.dtype.itemsize <= 8:
            with np.errstate(invalid="ignore"):  # a float32 signalling NaN
                a = np.ascontiguousarray(obj, dtype=np.float64)
            _array_text(a, nl, write)
        elif obj.dtype.kind in "iu":
            _array_text(np.ascontiguousarray(obj), nl, write)
        else:
            _encode(obj.tolist(), nl, write)
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        _encode({"im": z.imag, "re": z.real}, nl, write)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, obj, echo=None) -> None:
    """Write obj as JSON under the serialization rules, chunk by chunk.

    echo, a text stream, gets the same chunks as the file.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write = fh.write
        if echo is not None:
            def write(chunk: str) -> None:
                fh.write(chunk)
                echo.write(chunk)
        _encode(obj, "\n", write)
        write("\n")


def _write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# JSON input

# Valid specs and section files nest 6 levels deep; the guard keeps deep
# input away from orjson, which has no recursion limit of its own.
MAX_JSON_DEPTH = 64

_NOT_NESTING = bytes(b for b in range(256) if b not in b'[]{}"')
_NESTING_STEP = np.zeros(256, dtype=np.int8)
_NESTING_STEP[list(b"[{")] = 1
_NESTING_STEP[list(b"]}")] = -1


def _nesting_depth(raw: bytes) -> int:
    """Deepest bracket nesting of the JSON text raw, without a Python loop.

    Escaped backslashes and quotes are dropped, then every byte but []{}";
    quote parity marks the brackets inside strings. The result is the
    lexical depth of valid JSON; on other bytes it is never below the depth
    reached before the first lexical error.
    """
    if b"\\" in raw:
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = np.frombuffer(raw.translate(None, _NOT_NESTING), dtype=np.uint8)
    step = _NESTING_STEP[marks]
    step[np.logical_xor.accumulate(marks == ord('"'))] = 0
    return int(np.cumsum(step).max(initial=0))


def _read_json(raw: bytes, where: str):
    """The value of the JSON text raw; where prefixes the error message.

    raw must be RFC 8259 JSON in UTF-8, at most MAX_JSON_DEPTH levels deep.
    orjson rejects NaN and Infinity, numbers beyond the double range, lone
    surrogates and a byte order mark, and reads an integer beyond 64 bits
    as a float.
    """
    if _nesting_depth(raw) > MAX_JSON_DEPTH:
        raise SpecError(f"{where}: malformed JSON: nested deeper than {MAX_JSON_DEPTH} levels")
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        raise SpecError(f"{where}: malformed JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# family spec parsing

def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SpecError(f"{where}: missing field {key!r}")
    return mapping[key]


def _parse_grid(obj, where: str) -> ParameterGrid:
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object")
    kind = _require(obj, "kind", where)
    samples = _require(obj, "samples", where)
    closure = _require(obj, "closure", where)
    shift = obj.get("shift", 0)
    if type(shift) is not int:  # a JSON integer: no float, no bool
        raise SpecError(f"{where}: shift must be an integer, got {shift!r}")
    try:
        return ParameterGrid(kind=kind, samples=np.asarray(samples, dtype=float),
                             closure=closure, shift=shift)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _parse_sampled(obj, spec: dict) -> OperatorFamily:
    where = "spec.sampled"
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object")
    dim = _require(obj, "dim", where)
    if type(dim) is not int or dim < 1:
        raise SpecError(f"{where}.dim: expected a positive integer, got {dim!r}")
    grid = _parse_grid(_require(obj, "grid", where), where + ".grid")
    mats = _require(obj, "matrices", where)
    if not isinstance(mats, dict) or "real" not in mats:
        raise SpecError(f"{where}.matrices: expected an object with a 'real' array")
    try:
        real = np.asarray(mats["real"], dtype=float)
        imag = mats.get("imag")
        imag = np.zeros_like(real) if imag is None else np.asarray(imag, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}.matrices: {exc}") from exc
    if real.shape != imag.shape:
        raise SpecError(f"{where}.matrices: real and imag shapes differ")
    if real.ndim != 3 or real.shape[1:] != (dim, dim):
        raise SpecError(
            f"{where}.matrices: expected shape (n_samples, {dim}, {dim}), got {real.shape}"
        )
    ops = 1j * imag
    ops += real
    bands = spec.get("polarized_bands")
    if bands is not None:
        if type(bands) is not list or len(bands) != 2 or {type(m) for m in bands} != {int}:
            raise SpecError(f"spec.polarized_bands: expected a pair of integers "
                            f"[m_minus, m_plus], got {bands!r}")
        bands = tuple(bands)
    hermitian = spec.get("hermitian", True)
    if not isinstance(hermitian, bool):
        raise SpecError(f"spec.hermitian: expected true or false, got {hermitian!r}")
    try:
        return OperatorFamily(grid=grid, dim=dim, operators=ops, hermitian=hermitian,
                              polarized_bands=bands)
    except BandflowError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _parse_generator(spec: dict, seed: int | None) -> tuple:
    """(family, seed forwarded to the generator or None)."""
    name = spec["generator"]
    params = spec.get("params", {})
    if not isinstance(name, str):
        raise SpecError("spec.generator: expected a string")
    if not isinstance(params, dict):
        raise SpecError(f"spec.params: expected an object, got {params!r}")
    params = dict(params)
    if name not in GENERATORS:
        raise SpecError(
            f"spec.generator: unknown generator {name!r}; available: {sorted(GENERATORS)}"
        )
    if "seed" in params or "seed" not in inspect.signature(GENERATORS[name]).parameters:
        seed = None
    if seed is not None:
        params["seed"] = seed
    try:
        return generate(name, **params), seed
    except (BandflowError, ValueError) as exc:
        # generate already turns a TypeError into a ValidationError
        raise SpecError(f"spec.params: {exc}") from exc


def load_family_spec(path, seed: int | None = None) -> tuple:
    """Parse a family spec file; returns (family, raw spec bytes, seed).

    The returned seed is the given one when it took effect, that is when
    the spec names a generator that accepts a seed and its params do not
    fix one, and None otherwise.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise SpecError(f"spec: cannot read {p}: {exc}") from exc
    spec = _read_json(raw, f"spec: {p}")
    if not isinstance(spec, dict):
        raise SpecError("spec: top level must be an object")
    if "generator" in spec:
        f, seed = _parse_generator(spec, seed)
        return f, raw, seed
    if "sampled" in spec:
        return _parse_sampled(spec["sampled"], spec), raw, None
    raise SpecError("spec: need either 'generator' or 'sampled'")


def _section_frame(cols, dim: int, where: str) -> np.ndarray:
    """The (dim, k) complex frame of k columns of {"re": x, "im": y} entries."""
    if not isinstance(cols, list):
        raise SpecError(f"{where}.columns: expected a list of columns, got {cols!r}")
    for c, col in enumerate(cols):
        if not isinstance(col, list) or len(col) != dim:
            raise SpecError(f"{where}.columns[{c}]: expected {dim} entries")
    try:
        parts = np.array([[(e["re"], e.get("im", 0.0)) for e in col] for col in cols])
        parts = parts.reshape(len(cols), dim, 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(
            f"{where}.columns: expected entries {{\"re\": <float>, \"im\": <float>}}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if parts.dtype.kind not in "biuf":
        raise SpecError(f"{where}.columns: entries must be numbers, got {parts.dtype} values")
    frame = np.empty((dim, len(cols)), dtype=np.complex128)
    frame.real = parts[..., 0].T
    frame.imag = parts[..., 1].T
    return frame


def _load_section_file(path, f: OperatorFamily) -> tuple:
    """(weak section, raw file bytes) of a section file for the family f."""
    p = Path(path)
    where = "section"
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise SpecError(f"{where}: cannot read {p}: {exc}") from exc
    obj = _read_json(raw, f"{where}: {p}")
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: top level must be an object")
    cut = _require(obj, "reference_cut", where)
    try:
        cut = float(cut)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}.reference_cut: expected a number, got {cut!r}") from exc
    frames = _require(obj, "subspaces", where)
    if not isinstance(frames, list):
        raise SpecError(f"{where}.subspaces: expected a list of frames, got {frames!r}")
    if len(frames) != f.n_samples:
        raise SpecError(
            f"{where}.subspaces: {len(frames)} frames for {f.n_samples} samples"
        )
    subs = []
    for k, fr in enumerate(frames):
        at = f"{where}.subspaces[{k}]"
        if not isinstance(fr, dict):
            raise SpecError(f"{at}: expected an object with 'columns'")
        mat = _section_frame(_require(fr, "columns", at), f.dim, at)
        try:
            subs.append(Subspace(f.dim, mat))
        except BandflowError as exc:
            raise SpecError(f"{at}: {exc}") from exc
    return WeakSpectralSection(subspaces=tuple(subs), reference_cut=cut), raw


def _load(args, keys) -> tuple:
    """(family, raw spec bytes, options) of a command.

    options holds the named flag values, plus seed when --seed took effect.
    """
    f, raw, seed = load_family_spec(args.spec, args.seed)
    opts = {k: getattr(args, k) for k in keys}
    if seed is not None:
        opts["seed"] = seed
    return f, raw, opts


def _write_report(out: Path, command: str, raw: bytes, opts: dict, checks: list,
                  outputs: dict) -> int:
    """Write <command>_report.json into out and the same text to stdout.

    inputs_digest hashes the raw spec bytes followed by the canonical JSON of
    opts. Returns the exit code the checks call for.
    """
    digest = hashlib.sha256(raw)
    digest.update(json.dumps(opts, sort_keys=True).encode("utf-8"))
    report = {
        "command": command,
        "inputs_digest": digest.hexdigest(),
        "invariant_checks": checks,
        "options": opts,
        "outputs": outputs,
        "version": __version__,
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"{command}_report.json", report, echo=sys.stdout)
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_ERROR


# ---------------------------------------------------------------------------
# commands

def cmd_flow(args) -> int:
    f, raw, opts = _load(args, ["eps_gap_tol", "grid_refine", "max_chart_len"])
    atlas = build_atlas(f, max_chart_len=args.max_chart_len, gap_tol=args.eps_gap_tol)
    routes = spectral_flow_routes(f, atlas=atlas, refine=args.grid_refine,
                                  gap_tol=args.eps_gap_tol)
    chain = routes["chain"]
    cat = cover_category(atlas)
    checks = [
        {"name": "atlas_valid", "passed": check_atlas(f, atlas, args.eps_gap_tol)[0]},
        {"name": "routes_agree", "passed": bool(routes["agree"])},
    ]
    out = Path(args.out)
    code = _write_report(out, "flow", raw, opts, checks, {
        "atlas": _atlas_json(atlas),
        "charts": [
            {
                "end": c.end,
                "eps": float(c.eps),
                "n_below_left": c.n_below_left,
                "n_below_right": c.n_below_right,
                "start": c.start,
            }
            for c in chain.charts
        ],
        "cover_category": {
            "morphism_count": cat.morphism_count,
            "nerve_counts": list(cat.nerve_counts),
            "object_count": cat.object_count,
        },
        "flow_chartwise": routes["chartwise"],
        "flow_endpoints": routes["endpoints"],
        "flow_oracle": routes["oracle"],
        "overlaps": [
            {
                "eps_big": float(o.eps_big),
                "eps_small": float(o.eps_small),
                "sample": o.sample,
                "u_minus_dim": o.u_minus.dim,
                "u_plus_dim": o.u_plus.dim,
            }
            for o in chain.overlaps
        ],
    })
    if args.emit_branches:
        rows = []
        for x in range(f.n_samples):
            lam = f.eigenvalues[x]
            rows.append([x, float(f.grid.samples[x])] + [float(v) for v in lam])
        header = ["sample", "t"] + [f"lam_{j}" for j in range(f.dim)]
        _write_csv(out / "branches.csv", header, rows)
    return code


def cmd_suspend(args) -> int:
    f, raw, opts = _load(args, ["eps_gap_tol", "grid_refine", "t_samples", "max_chart_len"])
    sf = suspend(f, t_count=args.t_samples)
    atlas = build_atlas(f, max_chart_len=args.max_chart_len, gap_tol=args.eps_gap_tol)
    eps_ref = min(c.eps for c in atlas.charts)
    t = sf.t_samples
    table = spectrum_identity_deviation(f, t)
    identity_ok = bool((table <= spectrum_identity_tolerance(f.eigenvalues, t)).all())
    residual = table.max(axis=0)
    band_ok = band_correspondence_check(
        f, eps_ref, t[1:-1], samples=range(0, f.n_samples, max(1, f.n_samples // 8))
    ).all(axis=0)
    worst = float(residual.max())
    band_cells = [""] + [str(bool(ok)) for ok in band_ok] + [""]
    rows = [[k, float(t[k]), float(residual[k]), band_cells[k]] for k in range(sf.n_angles)]
    idx = suspension_index(sf)
    routes = spectral_flow_routes(f, atlas=atlas, refine=args.grid_refine,
                                  gap_tol=args.eps_gap_tol)
    equal = int(routes["chartwise"]) == idx.index
    checks = [
        {"name": "spectrum_identity_max_residual", "passed": identity_ok, "value": worst},
        {"name": "band_correspondence", "passed": bool(band_ok.all())},
        {"name": "index_equals_flow", "passed": equal},
        {"name": "routes_agree", "passed": bool(routes["agree"])},
    ]
    out = Path(args.out)
    code = _write_report(out, "suspend", raw, opts, checks, {
        "base_flow": routes["chartwise"],
        "det_winding": idx.det_winding,
        "equator_kernel_samples": list(idx.kernel_samples),
        "n_angles": sf.n_angles,
        "suspension_index": idx.index,
    })
    _write_csv(out / "suspension_residuals.csv",
               ["t_index", "t", "spectrum_residual", "band_ok"], rows)
    return code


def cmd_section(args) -> int:
    f, raw, opts = _load(args, ["eps_gap_tol", "max_chart_len"])
    # an open path falls through to deformation mode, which --auto leaves as is
    opts["auto"] = bool(args.auto) and f.grid.closure != "open_path"
    opts["section_file"] = None
    out = Path(args.out)

    if opts["auto"]:
        data = section_existence(f, gap_tol=args.eps_gap_tol,
                                 max_chart_len=args.max_chart_len)
        if not data.exists:
            _write_report(out, "section", raw, opts, [
                {"name": "section_exists", "passed": False, "value": data.obstruction},
            ], {
                "exists": False,
                "flow": data.flow,
                "obstruction": data.obstruction,
            })
            return EXIT_OBSTRUCTION
        code = _write_report(out, "section", raw, opts, [
            {"name": "section_exists", "passed": True},
            {"name": "sandwich", "passed": True, "value": data.sandwich},
        ], {
            "exists": True,
            "flow": data.flow,
            "note": data.note,
            "obstruction": 0,
            "radius": data.radius,
            "section_dims": np.array([V.dim for V in data.sections]),
        })
        if args.emit_frames:
            frames = {"reference_cut": None,
                      "subspaces": [_frame_json(V) for V in data.sections]}
            _write_json(out / "section_frames.json", frames)
        return code

    # Deformation path: section from file, or the tautological one above a
    # level picked from the widest spectral gap.
    if args.section_file:
        weak, section_raw = _load_section_file(args.section_file, f)
        # the file's bytes enter inputs_digest, its path does not
        opts["section_file"] = hashlib.sha256(section_raw).hexdigest()
    else:
        levels = default_level_grid(f)
        cut = min(levels, key=lambda c: abs(c))
        weak = make_weak_section(f, cut)
    okw, wrep = weak_section_check(f, weak)
    okd, drep = discrete_spectrum_check(f, [weak.reference_cut],
                                        gap_tol=args.eps_gap_tol,
                                        max_chart_len=args.max_chart_len)
    result = deform_to_spectral_section(f, weak, gap_tol=args.eps_gap_tol,
                                        max_chart_len=args.max_chart_len)
    srep = {k: v for k, v in result.report.items() if k != "fixed_point"}
    moved = float(subspace_distances([V.frame for V in weak.subspaces],
                                     [V.frame for V in result.sections]).max())
    checks = [
        {"name": "weak_section", "passed": bool(okw)},
        {"name": "discrete_spectrum", "passed": bool(okd), "value": drep},
        {"name": "sandwich", "passed": True, "value": srep},
        {"name": "dims_preserved",
         "passed": all(a.dim == b.dim for a, b in
                       zip(weak.subspaces, result.sections))},
    ]
    code = _write_report(out, "section", raw, opts, checks, {
        "max_deformation_distance": moved,
        "mu": [float(v) for v in result.mu],
        "mu_perp": [float(v) for v in result.mu_perp],
        "nu": list(result.nu),
        "nu_perp": list(result.nu_perp),
        "radius": [float(v) for v in result.radius],
        "reference_cut": weak.reference_cut,
        "section_dims": [V.dim for V in result.sections],
    })
    if args.emit_frames:
        frames = {
            "homotopy": [
                {
                    "frames": [_frame_json(result.homotopy(x, s))
                               for x in range(f.n_samples)],
                    "s": s,
                }
                for s in HOMOTOPY_STOPS
            ],
            "reference_cut": weak.reference_cut,
        }
        _write_json(out / "section_frames.json", frames)
    return code


def cmd_polarize(args) -> int:
    f, raw, opts = _load(args, ["eps_gap_tol", "max_chart_len"])
    rep = finite_polarized_replace(f, gap_tol=args.eps_gap_tol,
                                   max_chart_len=args.max_chart_len)
    preserved, flow_rep = flow_preservation_check(f, rep, gap_tol=args.eps_gap_tol,
                                                  max_chart_len=args.max_chart_len)
    unchanged = float(np.abs(rep.scaled_input.operator_stack - rep.family.operator_stack).max())
    checks = [
        {"name": "band_identity", "passed": True, "value": rep.band_report},
        {"name": "flow_preserved", "passed": bool(preserved), "value": flow_rep},
    ]
    out = Path(args.out)
    code = _write_report(out, "polarize", raw, opts, checks, {
        "atlas": _atlas_json(rep.atlas),
        "max_change_after_normalize": unchanged,
        "polarized_bands": list(rep.family.polarized_bands),
        "radius": rep.radius,
        "scale": float(rep.scale),
    })
    _write_json(out / "replacement_family.json", _family_json(rep.family))
    _write_csv(out / "squash_radius.csv", ["sample", "r"],
               [[x, float(rep.radius[x])] for x in range(rep.radius.size)])
    return code


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="path to a JSON family spec")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--eps-gap-tol", type=float, default=DEFAULT_GAP_TOL,
                   dest="eps_gap_tol",
                   help="minimal clearance between band edges and spectra")
    p.add_argument("--grid-refine", type=int, default=2, dest="grid_refine",
                   help="refinement factor for the branch-tracking oracle")
    p.add_argument("--max-chart-len", type=int, default=DEFAULT_MAX_CHART_LEN,
                   dest="max_chart_len", help="maximal chart length in samples")
    p.add_argument("--seed", type=int, default=None,
                   help="seed forwarded to generators that accept one")
    p.add_argument("--t-samples", type=int, default=41, dest="t_samples",
                   help="suspension angle count (odd, includes the equator)")
    p.add_argument("--emit-frames", action="store_true", dest="emit_frames",
                   help="write section/homotopy frames as JSON")
    p.add_argument("--emit-branches", action="store_true", dest="emit_branches",
                   help="write eigenvalue branches as CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bandflow",
        description="spectral flow, suspensions, sections, and polarized "
                    "replacements for sampled operator families",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p_flow = sub.add_parser("flow", help="atlas, index chain, and all flow routes")
    _add_common(p_flow)
    p_flow.set_defaults(func=cmd_flow)
    p_susp = sub.add_parser("suspend", help="suspension checks and index")
    _add_common(p_susp)
    p_susp.set_defaults(func=cmd_suspend)
    p_sec = sub.add_parser("section", help="existence, deformation, sandwich checks")
    _add_common(p_sec)
    p_sec.add_argument("--auto", action="store_true",
                       help="decide existence and build a witness over a loop")
    p_sec.add_argument("--section-file", default=None, dest="section_file",
                       help="JSON file with per-sample section frames")
    p_sec.set_defaults(func=cmd_section)
    p_pol = sub.add_parser("polarize", help="finite polarized replacement")
    _add_common(p_pol)
    p_pol.set_defaults(func=cmd_polarize)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses; parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return EXIT_ERROR
    except BandflowError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR
    finally:
        elapsed = time.monotonic() - started
        sys.stderr.write(f"wall_time_s={elapsed:.3f}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
