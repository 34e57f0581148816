"""Weak spectral sections and their deformation into honest spectral sections.

A weak section assigns a subspace to every parameter sample, loosely tracking
the upper spectral half relative to a reference cut. The deformation below
pushes such a section, one partition-of-unity combination at a time, into a
section pinched between spectral windows: above radius r(x) fully inside,
below -r(x) fully orthogonal. The two passes mirror each other, first gaining
control from below on the section, then from above on its complement.
Every window, the members of the deformation chains included, is a run of
the spectral plane's frame columns; nothing reads a sample's spectrum again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .atlas import (DEFAULT_GAP_TOL, DEFAULT_MAX_CHART_LEN, Atlas, build_atlas, check_atlas,
                    gap_midpoints, gap_table)
from .errors import (
    AtlasBuildError,
    InjectivityError,
    ModelViolationError,
    ValidationError,
)
from .families import OperatorFamily
from .flow import spectral_flow_routes
from .linalg import (
    Subspace,
    _combination_image,
    _combination_product,
    _combination_step,
    _stacks,
    first_edge_error,
    orthogonal_complement,
    subspace_distances,
    window_columns,
    window_inclusions,
    window_runs,
)

SECTION_CONTINUITY_TOL = 0.5
SECTION_RESIDUAL_TOL = 1e-8
LEVEL_CLEAR_TOL = 1e-8
INJECTIVITY_ACCEPT = 1e-6
NUDGE_BUDGET = 10
POU_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeakSpectralSection:
    """Per-sample subspaces with the reference cut they are measured against."""

    subspaces: tuple
    reference_cut: float

    def __post_init__(self):
        if not self.subspaces:
            raise ValidationError("a section needs at least one subspace")
        amb = self.subspaces[0].ambient_dim
        for k, V in enumerate(self.subspaces):
            if V.ambient_dim != amb:
                raise ValidationError(f"subspace {k} has ambient dim {V.ambient_dim}, expected {amb}")

    @property
    def n_samples(self) -> int:
        return len(self.subspaces)


def make_weak_section(f: OperatorFamily, cut: float) -> WeakSpectralSection:
    """The tautological weak section: the plane's windows above the cut."""
    a, b = window_columns(f.eigenvalues, cut, np.inf)
    subs = tuple(Subspace(f.dim, F[:, i:j]) for F, i, j in zip(f.frames, a, b))
    return WeakSpectralSection(subspaces=subs, reference_cut=cut)


def tilt_section(f: OperatorFamily, S: WeakSpectralSection, angle: float) -> WeakSpectralSection:
    """Mix the first section vector with a complementary direction at every sample.

    Produces a deliberately imperfect weak section for exercising the
    deformation; the tilt leaks section content below the cut.
    """
    out = []
    for x in range(f.n_samples):
        V = S.subspaces[x]
        if V.dim == 0 or V.dim == V.ambient_dim:
            out.append(V)
            continue
        comp = orthogonal_complement(V)
        w = comp.frame[:, -1]
        frame = V.frame.copy()
        frame[:, 0] = np.cos(angle) * frame[:, 0] + np.sin(angle) * w
        out.append(Subspace(V.ambient_dim, frame))
    return WeakSpectralSection(subspaces=tuple(out), reference_cut=S.reference_cut)


def weak_section_check(f: OperatorFamily, S: WeakSpectralSection,
                       floor: Optional[float] = None):
    """Sanity checks against a family; returns (ok, report dict).

    Verifies the reference cut clears every sampled spectrum, the section
    moves continuously, and nothing in it points along eigenvectors below
    the floor level (by default one unit under the global spectral minimum,
    which makes the deep-content condition vacuous at desk scale but keeps
    the bookkeeping explicit).
    """
    n = f.n_samples
    if S.n_samples != n:
        raise ValidationError(f"section has {S.n_samples} samples, family has {n}")
    if S.subspaces[0].ambient_dim != f.dim:
        raise ValidationError("section ambient dimension differs from the family")
    c, lam = S.reference_cut, f.eigenvalues
    clear = float(np.abs(lam - c).min())
    report = {"cut_clearance": clear, "reason": "weak section"}
    if clear < LEVEL_CLEAR_TOL:
        report["reason"] = (
            f"reference cut {c:.12g} comes within {clear:.3e} of the sampled spectrum"
        )
        return False, report
    # target dims and deep-window ranks are counts on the plane, whose
    # ascending rows make each window a run of frame columns
    a, b = window_columns(lam, c, np.inf)
    frames = [V.frame for V in S.subspaces]
    dims = np.array([V.shape[1] for V in frames])
    report["dim_defects"] = tuple((dims - (b - a)).tolist())
    steps = subspace_distances(frames[:-1], frames[1:])
    report["max_step"] = float(steps.max())
    if report["max_step"] > SECTION_CONTINUITY_TOL:
        worst = int(np.argmax(steps))
        report["reason"] = (
            f"section jumps by {report['max_step']:.3f} between samples {worst} and {worst + 1}"
        )
        return False, report
    c_floor = floor if floor is not None else float(lam.min()) - 1.0
    hit, _, deep = window_runs(lam, -np.inf, c_floor)
    worst_overlap = 0.0
    reached = n if hit is None else hit[0]  # the walk raises at an ambiguous deep edge
    for x in np.flatnonzero((deep[:reached] > 0) & (dims[:reached] > 0)):
        overlap = float(np.linalg.svd(f.frames[x][:, :deep[x]].conj().T @ frames[x],
                                      compute_uv=False)[0])
        worst_overlap = max(worst_overlap, overlap)
        if overlap > 1.0 - LEVEL_CLEAR_TOL:
            report["floor_overlap"] = worst_overlap
            report["reason"] = (
                f"section contains a direction below the floor {c_floor:.12g} at sample {x}"
            )
            return False, report
    if hit is not None:
        raise hit[1]
    report["floor_overlap"] = worst_overlap
    return True, report


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Tent weights per chart plus plateau profiles sitting over them.

    weights[i] is chart i's tent over the whole grid, zero off the chart and
    summing to one with its neighbours on overlaps. plateaus[i] equals one
    wherever the tent is positive. On exact loops the first and last grid
    samples are the same point, so the seam is shared between the two end
    charts and the support rule treats those two samples as one.
    """

    weights: np.ndarray
    plateaus: np.ndarray
    ranges: tuple
    loop: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        s = np.asarray(self.plateaus, dtype=float)
        if w.shape != s.shape or w.ndim != 2:
            raise ValidationError("weights and plateaus must share a 2d shape")
        if len(self.ranges) != w.shape[0]:
            raise ValidationError("one range per chart required")
        sums = w.sum(axis=0)
        if np.abs(sums - 1.0).max() > POU_SUM_TOL:
            raise ValidationError("tent weights must sum to one at every sample")
        if w.min() < 0 or w.max() > 1 + POU_SUM_TOL:
            raise ValidationError("tent weights must lie in [0, 1]")
        if s.min() < 0 or s.max() > 1 + POU_SUM_TOL:
            raise ValidationError("plateau values must lie in [0, 1]")
        if np.any((w > 0) & (s < 1.0 - POU_SUM_TOL)):
            raise ValidationError("plateaus must equal one wherever the tent is positive")
        n = w.shape[1]
        for i, (a, b) in enumerate(self.ranges):
            inside = np.zeros(n, dtype=bool)
            inside[a : b + 1] = True
            if self.loop:
                if inside[0]:
                    inside[n - 1] = True
                if inside[n - 1]:
                    inside[0] = True
            if np.any(w[i][~inside] > 0):
                raise ValidationError(f"tent {i} leaves its chart range")

    @property
    def n_charts(self) -> int:
        return int(self.weights.shape[0])

    def active_charts(self, x: int) -> list:
        return [i for i in range(self.n_charts) if self.weights[i, x] > 0]


def partition_of_unity(atlas: Atlas, n_samples: int, loop: bool = False) -> PartitionOfUnity:
    """Tents subordinate to the atlas: linear ramps across each overlap.

    With single-sample overlaps the ramp degenerates to an even split of the
    shared sample. For loops the seam sample gets the same even split between
    the last and first charts, which keeps seam quantities equal at both ends
    of the grid.
    """
    lo, hi = atlas.covered_range()
    if lo != 0 or hi != n_samples - 1:
        raise ValidationError("atlas must cover the full grid to carry a partition")
    K = atlas.n_charts
    w = np.zeros((K, n_samples))
    for i, c in enumerate(atlas.charts):
        w[i, c.start : c.end + 1] = 1.0
    for i in range(K - 1):
        a = atlas.charts[i + 1].start
        b = atlas.charts[i].end
        L = b - a + 1
        for k, x in enumerate(range(a, b + 1)):
            left = (L - k) / (L + 1.0)
            w[i, x] = left
            w[i + 1, x] = 1.0 - left
    if loop and K >= 2:
        w[0, 0] = 0.5
        w[K - 1, 0] = 0.5
        w[K - 1, n_samples - 1] = 0.5
        w[0, n_samples - 1] = 0.5
    s = (w > 0).astype(float)
    ranges = tuple((c.start, c.end) for c in atlas.charts)
    return PartitionOfUnity(weights=w, plateaus=s, ranges=ranges, loop=loop)


def default_level_grid(f: OperatorFamily, count: int = 4) -> list:
    """Midpoints of the widest gaps in the pooled sampled spectrum."""
    pooled = np.unique(f.eigenvalues)
    if pooled.size == 1:
        return [float(pooled[0] - 1.0), float(pooled[0] + 1.0)]
    mids, _ = gap_midpoints(pooled)
    order = np.argsort(-np.diff(pooled))[:count]
    return sorted(float(m) for m in mids[order])


def discrete_spectrum_check(f: OperatorFamily, levels: Sequence[float],
                            gap_tol: float = DEFAULT_GAP_TOL,
                            max_chart_len: int = DEFAULT_MAX_CHART_LEN):
    """Can each level be pushed off the sampled spectrum and the shifted
    family still carry an atlas?

    A level may be nudged by up to NUDGE_BUDGET steps of 1e-8 times the
    spectral radius in either direction; it must then clear every sampled
    spectrum by gap_tol. Levels glued to an eigenvalue across the whole
    nudge budget fail, as do shifted families that refuse to carry an
    adapted atlas. Returns (ok, report string).
    """
    radius = f.spectral_radius()
    step = 1e-8 * max(1.0, radius)
    notes = []
    eye = np.eye(f.dim, dtype=np.complex128)
    for lam in levels:
        lam = float(lam)
        shifted_level = None
        for k in range(NUDGE_BUDGET + 1):
            for sign in ((0,) if k == 0 else (1, -1)):
                cand = lam + sign * k * step
                clear = float(np.abs(f.eigenvalues - cand).min())
                if clear >= gap_tol:
                    shifted_level = cand
                    break
            if shifted_level is not None:
                break
        if shifted_level is None:
            return False, (
                f"level {lam:.12g} stays within {gap_tol:.1e} of the sampled "
                f"spectrum throughout the nudge budget"
            )
        # f - cI has f's frames and eigenvalues shifted by c: rows stay ascending,
        # frames orthonormal, and the stored operators' residual against this
        # plane is f's own, within RECON_TOL up to the rounding of c
        g = OperatorFamily._with_plane(f.eigenvalues - shifted_level, f.frames, grid=f.grid,
                                       dim=f.dim, operators=f.operator_stack - shifted_level * eye)
        try:
            atlas = build_atlas(g, max_chart_len=max_chart_len, gap_tol=gap_tol)
        except AtlasBuildError as exc:
            return False, f"level {lam:.12g}: {exc}"
        notes.append(f"level {lam:.12g}: ok ({atlas.n_charts} charts)")
    return True, "; ".join(notes)


def is_spectral_section(f: OperatorFamily, sections, radius):
    """Sandwich test: window above r inside the section, section above -r.

    radius may be a scalar or a per-sample array. One window_inclusions call
    over the spectral plane tests every sample, with edges r and -r (the
    first ambiguous one raises, r before -r). Returns (ok, report dict) with
    the worst residuals and the first sample where the larger one peaks.
    """
    subs = sections.subspaces if isinstance(sections, WeakSpectralSection) else tuple(sections)
    n = f.n_samples
    if len(subs) != n:
        raise ValidationError(f"{len(subs)} subspaces for {n} samples")
    r = np.broadcast_to(np.asarray(radius, dtype=float), (n,)).copy()
    if np.any(r <= 0):
        raise ValidationError("section radius must be positive everywhere")
    return _sandwich_report(*window_inclusions(f.eigenvalues, f.frames, r, -r,
                                               [V.frame for V in subs]), r)


def _sandwich_report(ru: np.ndarray, rl: np.ndarray, r: np.ndarray):
    """(ok, report) of the per-sample sandwich residuals ru, rl at radii r."""
    worst_upper, worst_lower = float(ru.max()), float(rl.max())
    ok = worst_upper <= SECTION_RESIDUAL_TOL and worst_lower <= SECTION_RESIDUAL_TOL
    return ok, {
        "upper_residual": worst_upper,
        "lower_residual": worst_lower,
        "worst_sample": int(np.argmax(np.maximum(ru, rl))),
        "max_radius": float(r.max()),
    }


def _levels_below(pooled: np.ndarray, cap: float, gap_tol: float) -> list:
    """Control levels under cap: midpoints of (capped) spectral gaps, best first."""
    mids, clear = gap_midpoints(pooled, cap=cap)
    out = sorted((float(m) for m in mids[clear >= gap_tol]), reverse=True)
    out.append(float(min(cap, pooled[0] - 1.0)))
    return out


def _levels_above(pooled: np.ndarray, cap: float, gap_tol: float) -> list:
    """Control levels over cap, mirrored: lowest usable midpoint first."""
    mids, clear = gap_midpoints(pooled, floor=cap)
    out = sorted(float(m) for m in mids[clear >= gap_tol])
    out.append(float(max(cap, pooled[-1] + 1.0)))
    return out


def _abs_gaps(abs_table: np.ndarray, floor=None) -> tuple:
    """gap_table of each row of an (N, n) sorted |spectrum| table with 0 prepended."""
    return gap_table(np.pad(abs_table, ((0, 0), (1, 0))), floor=floor)


def _gap_candidates(abs_table: np.ndarray, gap_tol: float) -> tuple:
    """(ok, mids) over _abs_gaps: ok marks the positive midpoints clearing gap_tol."""
    keep, mids, clear = _abs_gaps(abs_table)
    return keep & (clear >= gap_tol) & (mids > 0.0), mids


def _aligned_radii(abs_table: np.ndarray, r0: np.ndarray, clearance: float) -> np.ndarray:
    """Per row, the smallest radius at least max(r0, clearance) keeping a safe
    distance from |spectrum|: that floor when it clears every |lam| by
    clearance, else the first gap midpoint above it that does, else one past
    the top."""
    r0 = np.maximum(r0, clearance)
    # a gap the floor empties, or a zero-width one, has clearance <= 0; at
    # clearance 0 every row keeps its floor
    _, mids, clear = _abs_gaps(abs_table, floor=r0[:, None])
    ok = clear >= clearance
    first = mids[np.arange(len(ok)), ok.argmax(axis=1)]
    moved = np.where(ok.any(axis=1), first, np.maximum(r0, abs_table[:, -1] + 1.0))
    return np.where(np.abs(abs_table - r0[:, None]).min(axis=1) >= clearance, r0, moved)


def _fixed_point_radius(f: OperatorFamily, subs, gap_tol: float):
    """Rows radius, ru, rl: per-sample radii certifying the input is already
    sandwiched, and the window_inclusions residuals that accepted them; or None.

    For each sample the candidate radii are the midpoints of the gaps of the
    absolute spectrum (zero prepended), tried in ascending order; only levels
    below the top of the spectrum count, since beyond it the sandwich holds
    for any subspace and certifies nothing. The outcome is that of a
    sample-by-sample search: the first sample whose candidates run out
    (None) or whose edge is ambiguous (SpectralBoundaryError) decides.

    A subspace V of dimension k cannot contain a window of rank above k, nor
    lie inside one of rank below k; a candidate m with count(lam > m) > k or
    count(lam > -m) < k fails with a residual of about 1. Both counts are
    monotone in m, so the feasible candidates of a sample are a suffix,
    found by comparing every candidate with two thresholds at once. The
    skipped candidates need no inclusion work, only their edge checks, all
    run up front with one first_edge_error so the search raises at the same
    sample and edge. Each round then tests every open sample's next
    feasible candidate with one window_inclusions call, which works row by
    row: the residuals returned are bitwise those of one call at the radius.
    """
    frames, lam, n = [V.frame for V in subs], f.eigenvalues, f.n_samples
    if any(V.shape[0] != f.dim for V in frames):
        raise ValidationError("ambient dims differ")
    ok, mids = _gap_candidates(f.abs_eigenvalues, gap_tol)
    c, owner, sizes = mids[ok], np.nonzero(ok)[0], ok.sum(axis=1)
    offset = np.cumsum(sizes) - sizes
    # V_x of dim k passes only if count(lam > m) <= k <= count(lam > -m): with lam[x]
    # ascending and padded by -inf and inf, m >= padded[x, j] and m > -padded[x, j + 1]
    # for j = f.dim - k
    j = f.dim - np.array([V.shape[1] for V in frames])[owner]
    padded = np.pad(lam, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    skip = (c < padded[owner, j]) | (c <= -padded[owner, j + 1])
    rows = owner[skip]
    at = np.bincount(rows, minlength=n)  # at[x]: sample x's next candidate
    hit = first_edge_error(lam[rows], c[skip], -c[skip])
    stop, err = (n, None) if hit is None else (rows[hit[0]], hit[1])
    fp, todo = np.zeros((3, n)), np.arange(stop)  # todo holds open samples below stop
    while True:
        out = todo[at[todo] == sizes[todo]]
        if out.size:
            stop, err, todo = out[0], None, todo[todo < out[0]]
        if not todo.size:
            break
        m = c[offset[todo] + at[todo]]
        hit = first_edge_error(lam[todo], m, -m)
        if hit is not None:
            stop, err, todo, m = todo[hit[0]], hit[1], todo[:hit[0]], m[:hit[0]]
        ru, rl = window_inclusions(lam[todo], f.frames[todo], m, -m, [frames[x] for x in todo])
        found = (ru <= SECTION_RESIDUAL_TOL) & (rl <= SECTION_RESIDUAL_TOL)
        fp[:, todo[found]] = m[found], ru[found], rl[found]
        todo = todo[~found]
        at[todo] += 1
    if err is not None:
        raise err
    return None if stop < n else fp


def _pick_chart_levels(f: OperatorFamily, atlas: Atlas, sections, cap: float,
                       gap_tol: float, upper: bool) -> list:
    """One control level per chart with the projection injective throughout:
    at each chart sample with a nonempty section K, the window H above the
    level (below it when not upper) has sigma_min(H* K) >= INJECTIVITY_ACCEPT,
    from one window_columns and a stacked svd per (window rank, section dim)."""
    lam, F = f.eigenvalues, f.frames
    frames = [K.frame for K in sections]
    dims = np.array([K.shape[1] for K in frames])
    chosen = []
    for i, chart in enumerate(atlas.charts):
        pooled = np.unique(lam[chart.start:chart.end + 1])
        cands = (_levels_below if upper else _levels_above)(pooled, cap, gap_tol)
        xs = chart.start + np.flatnonzero(dims[chart.start:chart.end + 1])
        for v in cands:
            a, b = window_columns(lam[xs], *((v, np.inf) if upper else (-np.inf, v)))
            floor = 1.0
            for (m,), g, K in _stacks([frames[x] for x in xs], b - a):
                if m < K.shape[2]:
                    floor = 0.0
                    break
                H = F[xs[g], :, -m:] if upper else F[xs[g], :, :m]
                sig = np.linalg.svd(H.conj().transpose(0, 2, 1) @ K, compute_uv=False)
                floor = min(floor, float(sig[:, -1].min()))
            if floor >= INJECTIVITY_ACCEPT:
                chosen.append(v)
                break
        else:
            raise InjectivityError(
                f"no control level keeps the spectral projection injective on "
                f"chart {i} (samples {chart.start}..{chart.end}); the section "
                f"is too degenerate there"
            )
    return chosen


def _deformation_pass(f: OperatorFamily, pou: PartitionOfUnity, levels, inputs, upper: bool):
    """Images, products M K and outermost levels of one deformation pass.

    At sample x the active charts, ordered by level (ascending when upper,
    descending otherwise, ties by chart), give the nested chain of windows
    above (below) their levels: runs of the sample's frame columns. The
    input K is mapped by M = sum of tent weight times window projector; the
    image must keep K's dimension inside the outermost window, whose level
    is returned. Errors come in the order of a sample-by-sample run: one
    first_edge_error over every (sample, chart) row reads the edges as
    window_subspace does, and a sample's edges go before its combination.
    """
    lam, levels = f.eigenvalues, np.asarray(levels)
    orders = [sorted(pou.active_charts(x), key=lambda i: (levels[i] if upper else -levels[i], i))
              for x in range(f.n_samples)]
    sizes = [len(o) for o in orders]
    rows, edges = np.repeat(np.arange(f.n_samples), sizes), levels[np.concatenate(orders)]
    table = lam[rows]
    hit = first_edge_error(table, edges)
    cuts = ((table <= edges[:, None]) if upper else (table < edges[:, None])).sum(axis=1)
    images, products, at = [], [], np.cumsum([0] + sizes)
    for x in range(f.n_samples if hit is None else rows[hit[0]]):
        F = f.frames[x]
        chain = [F[:, c:] if upper else F[:, :c] for c in cuts[at[x]:at[x + 1]].tolist()]
        products.append(_combination_product(inputs[x].frame, chain, pou.weights[orders[x], x]))
        images.append(_combination_image(products[-1], chain[0]))
    if hit is not None:
        raise hit[1]
    return images, products, edges[at[:-1]]


@dataclass(frozen=True, eq=False)
class DeformationResult:
    """Outcome of the two-pass deformation.

    sections holds the final per-sample subspaces, radius the per-sample
    sandwich radius, mu and mu_perp the lower and upper control envelopes.
    homotopy(x, s) samples the concatenated deformation path at parameter
    s in [0, 1]; s = 0 is the input section, s = 1 the output.
    """

    sections: tuple
    radius: np.ndarray
    mu: np.ndarray
    mu_perp: np.ndarray
    nu: tuple
    nu_perp: tuple
    pou: PartitionOfUnity
    intermediate: tuple = field(repr=False, default=())
    homotopy: Callable = field(repr=False, default=None)
    report: dict = field(default_factory=dict)


def deform_to_spectral_section(f: OperatorFamily, S: WeakSpectralSection,
                               atlas: Optional[Atlas] = None,
                               gap_tol: float = DEFAULT_GAP_TOL,
                               max_chart_len: int = DEFAULT_MAX_CHART_LEN) -> DeformationResult:
    """Deform a weak section into a spectral section with an explicit radius.

    Pass one pulls the section into spectral windows above per-chart control
    levels nu, combined through a partition of unity; pass two repeats the
    construction on orthogonal complements with levels nu_perp above the
    cut. The result is pinched between Im P above mu_perp and Im P above mu,
    and the returned radius turns that pinch into the sandwich property,
    verified before returning. No pass changes a fibre's dimension: each
    combination image keeps it (expect_dim), as orthogonal_complement does.
    The homotopy reuses each pass's products M K.

    An input whose subspaces already satisfy the sandwich at some
    sub-spectral radius is returned unchanged with a constant homotopy; the
    construction only runs when there is something to deform.
    """
    n = f.n_samples
    if len(S.subspaces) != n:
        raise ValidationError(
            f"{len(S.subspaces)} subspaces for {n} samples"
        )
    fixed = _fixed_point_radius(f, S.subspaces, gap_tol)
    if fixed is not None:
        (fp, ru, rl), subs_in = fixed, S.subspaces

        def constant_homotopy(x: int, s: float) -> Subspace:
            if not 0.0 <= s <= 1.0:
                raise ValidationError(f"homotopy parameter {s} outside [0, 1]")
            return subs_in[x]

        rep = {**_sandwich_report(ru, rl, fp)[1], "fixed_point": True}
        return DeformationResult(
            sections=subs_in,
            radius=fp,
            mu=-fp,
            mu_perp=fp.copy(),
            nu=(),
            nu_perp=(),
            pou=None,
            homotopy=constant_homotopy,
            report=rep,
        )
    ok, rep = weak_section_check(f, S)
    if not ok:
        raise ValidationError(f"not a weak section: {rep['reason']}")
    okd, drep = discrete_spectrum_check(f, [S.reference_cut], gap_tol=gap_tol,
                                        max_chart_len=max_chart_len)
    if not okd:
        raise ValidationError(f"discrete-spectrum precheck failed: {drep}")
    if atlas is None:
        atlas = build_atlas(f, max_chart_len=max_chart_len, gap_tol=gap_tol)
    ok, rep = check_atlas(f, atlas, gap_tol)
    if not ok:
        raise ValidationError(f"atlas rejected: {rep}")
    loop = f.grid.closure == "exact_loop"
    pou = partition_of_unity(atlas, n, loop=loop)

    cut0 = min(0.0, S.reference_cut)
    cut1 = max(0.0, S.reference_cut)
    nu = _pick_chart_levels(f, atlas, S.subspaces, cut0, gap_tol, upper=True)
    first_pass, products1, bottom = _deformation_pass(f, pou, nu, S.subspaces, upper=True)
    complements = [orthogonal_complement(L) for L in first_pass]
    nu_perp = _pick_chart_levels(f, atlas, complements, cut1, gap_tol, upper=False)
    images, products2, top = _deformation_pass(f, pou, nu_perp, complements, upper=False)
    final = [orthogonal_complement(Mp) for Mp in images]
    # the plateaus are 1 exactly on the active charts and nu <= 0 <= nu_perp, so
    # mu is at most and mu_perp at least every active level
    mu = np.array([float(np.dot(pou.plateaus[:, x], nu)) for x in range(n)])
    mu_perp = np.array([float(np.dot(pou.plateaus[:, x], nu_perp)) for x in range(n)])

    # pinch inclusions: window above the top active nu_perp inside M, and
    # M inside the window above the bottom active nu
    res_up, res_dn = window_inclusions(f.eigenvalues, f.frames, top, bottom,
                                       [M.frame for M in final])
    bad = np.flatnonzero(np.maximum(res_up, res_dn) > SECTION_RESIDUAL_TOL)
    if bad.size:
        x = bad[0]
        raise ModelViolationError(
            f"pinch inclusions fail at sample {x}: "
            f"residuals {res_up[x]:.3e}, {res_dn[x]:.3e}"
        )

    radius = _aligned_radii(f.abs_eigenvalues, np.maximum(np.abs(mu), np.abs(mu_perp)), gap_tol)
    ok, rep = is_spectral_section(f, final, radius)
    if not ok:
        raise ModelViolationError(f"deformed section fails the sandwich test: {rep}")

    def homotopy(x: int, s: float) -> Subspace:
        if not 0.0 <= s <= 1.0:
            raise ValidationError(f"homotopy parameter {s} outside [0, 1]")
        if s <= 0.5:
            return _combination_step(S.subspaces[x], products1[x], 2.0 * s)
        return orthogonal_complement(_combination_step(complements[x], products2[x], 2.0 * s - 1.0))

    return DeformationResult(
        sections=tuple(final),
        radius=radius,
        mu=mu,
        mu_perp=mu_perp,
        nu=tuple(nu),
        nu_perp=tuple(nu_perp),
        pou=pou,
        intermediate=tuple(first_pass),
        homotopy=homotopy,
        report=rep,
    )


@dataclass(frozen=True, eq=False)
class ExistenceData:
    """Verdict of the loop existence test.

    exists is decided by the spectral flow; when it holds, sections carries
    a witness, radius its r values and sandwich the oracle's report on them.
    """

    exists: bool
    flow: int
    obstruction: int
    sections: tuple = ()
    radius: Optional[np.ndarray] = None
    sandwich: dict = field(default_factory=dict)
    note: str = ""


def section_existence(f: OperatorFamily, gap_tol: float = DEFAULT_GAP_TOL,
                      max_chart_len: int = DEFAULT_MAX_CHART_LEN) -> ExistenceData:
    """Spectral flow as the obstruction to a section over a loop.

    Zero flow produces a witness: the span of the top sorted eigenvalue
    branches, the split position chosen at the first sample, with a radius
    tracking the branch bracketing the split. Non-zero flow reports itself
    as the obstruction.

    When the branches above the split stay more than 2 gap_tol above those
    below it, the witness is the window above the midpoint cut between them,
    and the note records the gluing through the deformation at that cut
    without running it: the deformation returns such a witness unchanged.
    """
    if f.grid.closure == "open_path":
        raise ValidationError(
            "section existence is a loop question; open paths always deform"
        )
    routes = spectral_flow_routes(f, gap_tol=gap_tol, max_chart_len=max_chart_len)
    if not routes["agree"]:
        raise ModelViolationError(f"flow routes disagree: {routes}")
    flow = int(routes["chartwise"])
    if flow != 0:
        return ExistenceData(exists=False, flow=flow, obstruction=flow,
                             note="flow obstruction")
    lam = f.eigenvalues
    split = int(np.searchsorted(lam[0], 0.0, side="left"))
    sections = tuple(Subspace._checked(f.dim, F) for F in f.frames[:, :, split:])
    r0 = np.zeros(f.n_samples)
    if split > 0:
        r0 = np.maximum(r0, lam[:, split - 1])
    if split < f.dim:
        r0 = np.maximum(r0, -lam[:, split])
    radius = _aligned_radii(f.abs_eigenvalues, r0, gap_tol)
    ok, rep = is_spectral_section(f, sections, radius)
    if not ok:
        raise ModelViolationError(
            f"witness section fails the sandwich test: {rep}"
        )
    note = "witness from sorted branches"
    if 0 < split < f.dim:
        upper_edge, lower_edge = float(lam[:, split].min()), float(lam[:, split - 1].max())
        if upper_edge - lower_edge > 2 * gap_tol:
            note += f"; glued through the deformation at cut {0.5 * (upper_edge + lower_edge):.6g}"
    return ExistenceData(
        exists=True,
        flow=flow,
        obstruction=0,
        sections=sections,
        radius=radius,
        sandwich=rep,
        note=note,
    )
