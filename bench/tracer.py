"""Run-time tracing of bandflow's layers, installed from outside the package.

Each traced function is replaced, at every module attribute that binds it
(the defining module, ``from .x import y`` copies and the package
namespace), by a wrapper that records one span: name, start, end, parent
span, job, whether an exception left the call, and an optional integer
measured from the call (cache hit, chart count, bytes written). Spans stay
in memory, in flat arrays, until the run ends; per-layer numbers are derived
from them afterwards, with self time taken as a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _chart_count(args, kwargs, atlas):
    return len(atlas.charts)


def _file_bytes(args, kwargs, result):
    return Path(args[0]).stat().st_size


# (module, attribute path, stem, measure). The stem names the layer entry in
# the metrics; targets that share a stem are pooled. measure is None, a hook
# called on the result, or "cache_hit" for the eigen cache, which has to be
# inspected before the call.
TARGETS = (
    ("numpy.linalg", "eigh", "numpy.linalg.eigh", None),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh", None),
    ("numpy.linalg", "svd", "numpy.linalg.svd", None),
    ("bandflow.linalg", "hermitian_eig", "linalg.hermitian_eig", None),
    ("bandflow.linalg", "subspace_distance", "linalg.subspace_distance", None),
    ("bandflow.linalg", "spectral_projection", "linalg.spectral_projection", None),
    ("bandflow.families", "OperatorFamily.__init__", "families.OperatorFamily", None),
    ("bandflow.families", "OperatorFamily.eigen", "families.eigen", "cache_hit"),
    ("bandflow.atlas", "build_atlas", "atlas.build_atlas", _chart_count),
    ("bandflow.atlas", "_radius_candidates", "atlas._radius_candidates", None),
    ("bandflow.atlas", "check_atlas", "atlas.check_atlas", None),
    ("bandflow.atlas", "cover_category", "atlas.cover_category", None),
    ("bandflow.flow", "index_chain", "flow.index_chain", None),
    ("bandflow.flow", "spectral_flow_oracle", "flow.spectral_flow_oracle", None),
    ("bandflow.flow", "spectral_flow_routes", "flow.spectral_flow_routes", None),
    ("bandflow.suspension", "suspend", "suspension.suspend", None),
    ("bandflow.suspension", "suspension_spectrum_check",
     "suspension.suspension_spectrum_check", None),
    ("bandflow.suspension", "band_correspondence_check",
     "suspension.band_correspondence_check", None),
    ("bandflow.suspension", "suspension_index", "suspension.suspension_index", None),
    ("bandflow.sections", "deform_to_spectral_section",
     "sections.deform_to_spectral_section", None),
    ("bandflow.sections", "weak_section_check", "sections.weak_section_check", None),
    ("bandflow.sections", "section_existence", "sections.section_existence", None),
    ("bandflow.sections", "is_spectral_section", "sections.is_spectral_section", None),
    ("bandflow.polarize", "finite_polarized_replace",
     "polarize.finite_polarized_replace", None),
    ("bandflow.polarize", "band_identity_check", "polarize.band_identity_check", None),
    ("bandflow.polarize", "flow_preservation_check",
     "polarize.flow_preservation_check", None),
    ("bandflow.cli", "load_family_spec", "cli.load_family_spec", None),
    ("bandflow.cli", "_write_json", "cli.write", _file_bytes),
    ("bandflow.cli", "_write_csv", "cli.write", _file_bytes),
    ("bandflow.cli", "json.dumps", "cli.write", None),
)

# The stdout dump is a write too: its bytes are pooled with the files'.
STDOUT_STEM = "cli.write"


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install()`` swaps the wrappers in, ``uninstall()`` puts every original
    back. ``job`` is the id that new spans are tagged with.
    """

    def __init__(self):
        self.stems: list[str] = []
        self._stem_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.value = array("q")
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _stem_id(self, stem: str) -> int:
        if stem not in self._stem_ids:
            self._stem_ids[stem] = len(self.stems)
            self.stems.append(stem)
        return self._stem_ids[stem]

    def _open(self, sid: int, value: int = 0) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_of.append(self.job)
        self.raised.append(0)
        self.value.append(value)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def stdout_bytes(self, n: int) -> None:
        """Record bytes the CLI wrote to stdout as a zero-length write span."""
        idx = self._open(self._stem_id(STDOUT_STEM), n)
        self._close(idx)

    def _wrap(self, stem: str, fn, measure):
        sid = self._stem_id(stem)
        tracer = self

        if measure == "cache_hit":
            @functools.wraps(fn)
            def traced(family, i, *args, **kwargs):
                idx = tracer._open(sid, int(i in family._eig_cache))
                try:
                    return fn(family, i, *args, **kwargs)
                except BaseException:
                    tracer.raised[idx] = 1
                    raise
                finally:
                    tracer._close(idx)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer.value[idx] = measure(args, kwargs, result)
            return result
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding inside bandflow and numpy.linalg."""
        import bandflow.cli

        scan = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "bandflow" or k.startswith("bandflow."))]
        # cli reaches json through its module global; give it a private
        # namespace whose dumps is wrapped, leaving the real json untouched.
        cli = bandflow.cli
        proxy = type(json)("json")
        proxy.__dict__.update(vars(json))
        self._set(cli, "json", proxy)

        for modname, attr, stem, measure in TARGETS:
            owner = sys.modules[modname]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(stem, original, measure)
            self._set(owner, leaf, wrapper)
            if isinstance(owner, type):
                continue
            for mod in scan:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, name, wrapper)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- aggregation ------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, for slicing one pass out of the record."""
        return len(self.start)

    def aggregate(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-stem calls, errors, summed values and self time over spans [lo, hi)."""
        hi = len(self.start) if hi is None else hi
        name, parent, start, end, raised, value = (
            self._column(c)[lo:hi] for c in ("name", "parent", "start", "end", "raised", "value"))
        dur = end - start
        child = np.zeros_like(dur)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        self_s = dur - child
        out = {}
        for sid, stem in enumerate(self.stems):
            sel = name == sid
            out[stem] = {
                "calls": int(sel.sum()),
                "errors": int(raised[sel].sum()),
                "value": int(value[sel].sum()),
                "s": float(self_s[sel].sum()),
            }
        return out

    _DTYPES = {"name": np.int32, "parent": np.int32, "job_of": np.int32,
               "start": np.float64, "end": np.float64, "raised": np.int8, "value": np.int64}

    def _column(self, field: str) -> np.ndarray:
        # a copy, so the array.array stays free to grow
        return np.array(getattr(self, field), dtype=self._DTYPES[field])

    def save(self, path: Path) -> None:
        """Write every recorded span to an .npz file (columns plus the stem table)."""
        np.savez(path, stems=np.array(self.stems),
                 **{field: self._column(field) for field in self._DTYPES})
