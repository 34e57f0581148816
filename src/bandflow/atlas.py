"""Adapted charts, atlas construction, and covering combinatorics.

A chart is a contiguous run of grid samples together with a band radius eps
such that +eps and -eps stay clear of every eigenvalue on the run, the band
rank is constant, and the band subspace moves continuously from sample to
sample. An atlas is an ordered list of such charts covering the grid with
single-sample overlaps between neighbours.

The radius search works on pooled absolute eigenvalues: the distance from
the pair {-eps, +eps} to an eigenvalue lam is | |lam| - eps |, so admissible
radii are midpoints of gaps in the pooled absolute spectrum. Lengthening a
sample range only splits gaps of its pool and adds rank constraints, so the
ends j for which [start, j] still has a radius form a prefix of the grid;
the atlas asks for the radii of the longest allowed chart once and bisects
for the end of that prefix only when there are none. The prefix is exact in
real arithmetic; a computed clearance of a sub-gap can exceed its parent's
only by rounding, which matters only within an ulp of gap_tol.

Band continuity is Phillips' sampled hypothesis: consecutive band
subspaces of a chart must stay within BAND_CONTINUITY_TOL, and those of the
upper subspace within STRICT_TOL. families.window_steps measures each step
by principal angles, as the sine of the largest one (exactly 1 at a rank
change), without forming a projector. The steps are only compared with
those two tolerances, so no report depends on their last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import AtlasBuildError, ModelViolationError, SpectralBoundaryError, ValidationError
from .families import ContinuityReport, OperatorFamily, window_steps

# Minimum clearance required between +-eps and every eigenvalue on a chart.
DEFAULT_GAP_TOL = 1e-6
# Cap on chart length in samples; keeps charts local and atlases nontrivial.
DEFAULT_MAX_CHART_LEN = 40
# A band that moves more than this between consecutive samples is treated as
# a different band (the projector distance saturates at 1).
BAND_CONTINUITY_TOL = 0.5
# Threshold on per-step movement of the upper spectral subspace.
STRICT_TOL = 0.5
# Guard against combinatorial blow-up in cover_category.
OBJECT_LIMIT = 10**6

_SIG_DIGITS = 12


def check_gap_tol(gap_tol: float) -> None:
    """Raise ValidationError unless the band clearance gap_tol is finite and >= 0."""
    if not 0.0 <= gap_tol < np.inf:
        raise ValidationError(f"gap tolerance must be finite and nonnegative, got {gap_tol}")


def band_gap_error(lam: np.ndarray, eps: float, gap_tol: float):
    """First row of an eigenvalue table at which +-eps fails to clear the spectrum.

    lam is (N, n). Returns (row, SpectralBoundaryError naming, also as its
    eigenvalue attribute, the eigenvalue of that row closest to +-eps) for the
    first row holding an eigenvalue within gap_tol of +-eps, or None.
    """
    dist = np.abs(np.abs(lam) - eps)
    j = np.argmin(dist, axis=1)
    dj = dist[np.arange(lam.shape[0]), j]
    hit = np.flatnonzero(dj < gap_tol)
    if not hit.size:
        return None
    x = int(hit[0])
    v = lam[x, j[x]]
    err = SpectralBoundaryError(f"eigenvalue {v:.12g} lies within {gap_tol:.1e} of +-{eps:.12g}")
    err.eigenvalue = v
    return x, err


@dataclass(frozen=True)
class AdaptedChart:
    """Contiguous sample range [start, end] with a band radius eps."""

    start: int
    end: int
    eps: float

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValidationError(f"bad chart range [{self.start}, {self.end}]")
        if not self.eps > 0:
            raise ValidationError(f"chart eps must be positive, got {self.eps}")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def sample_indices(self) -> range:
        return range(self.start, self.end + 1)


@dataclass(frozen=True)
class Atlas:
    """Ordered overlapping charts; neighbours share at least one sample."""

    charts: tuple

    def __post_init__(self):
        if not self.charts:
            raise ValidationError("atlas needs at least one chart")
        for k, (c, d) in enumerate(zip(self.charts, self.charts[1:])):
            if d.start > c.end:
                raise ValidationError(f"charts {k} and {k + 1} do not overlap")
            if d.start <= c.start or d.end <= c.end:
                raise ValidationError(f"chart {k + 1} does not advance past chart {k}")

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def covered_range(self) -> tuple:
        return (self.charts[0].start, self.charts[-1].end)

    def charts_containing(self, sample_index: int) -> list:
        return [i for i, c in enumerate(self.charts)
                if c.start <= sample_index <= c.end]


def _round_sig(x: float) -> float:
    return float(f"{x:.{_SIG_DIGITS}g}")


def gap_table(edges: np.ndarray, floor: float | np.ndarray | None = None,
              cap: float | np.ndarray | None = None):
    """Gaps between consecutive sorted edges along the last axis, unfiltered.

    Each gap (a, b) is clipped to (max(a, floor), min(b, cap)); floor and cap
    broadcast against the gaps, so a (N, m) edge table may take one cap per
    row. Returns (keep, mids, clearance), each of the gaps' shape: keep marks
    the gaps the clipping leaves nonempty, so it drops the zero-width gaps
    between repeated edges, and clearance = min(mid - a, b - mid) is the
    distance to the unclipped edges. The kept gaps of a row are those of its
    distinct edges, as np.unique would leave them.
    """
    a, b = edges[..., :-1], edges[..., 1:]
    lo = a if floor is None else np.maximum(a, floor)
    hi = b if cap is None else np.minimum(b, cap)
    mids = 0.5 * (lo + hi)
    return hi > lo, mids, np.minimum(mids - a, b - mids)


def gap_midpoints(edges: np.ndarray, floor: float | None = None,
                  cap: float | None = None):
    """Midpoints of the gaps between consecutive sorted edges.

    Each gap (a, b) is first clipped to (max(a, floor), min(b, cap)); gaps
    the clipping empties are dropped. Returns (mids, clearance) for the
    rest, in edge order, where clearance = min(mid - a, b - mid) is the
    distance to the unclipped edges.
    """
    keep, mids, clear = gap_table(edges, floor, cap)
    return mids[keep], clear[keep]


def _radius_candidates(f: OperatorFamily, start: int, end: int, gap_tol: float,
                       eps_cap: float | None = None) -> list:
    """Admissible radii for the range, best first.

    A candidate is the midpoint of a gap in the pooled absolute spectrum
    (with 0 prepended as a virtual edge) whose clearance to the pooled values
    reaches gap_tol and whose band rank is the same at every sample. When
    eps_cap is given, gaps are clipped to (0, eps_cap] before taking
    midpoints, so every candidate stays under the cap. Candidates are
    ordered by clearance descending, comparing clearances rounded to 12
    significant digits so that gaps equal up to roundoff count as ties, then
    by radius ascending.

    Returns a list of (eps, clearance, rank) triples.
    """
    per_sample = f.abs_eigenvalues[start:end + 1]
    pooled = np.unique(per_sample)
    mids, clear = gap_midpoints(np.concatenate(([0.0], pooled)), cap=eps_cap)
    keep = (clear >= gap_tol) & (mids > 0)
    mids, clear = mids[keep], clear[keep]
    if mids.size == 0:
        return []
    # counts[r, j] = #{entries of row r below mids[j]}: each entry lands past the
    # mids at or under it, and a running count over those landing spots gives it
    L, M = per_sample.shape[0], mids.size
    spots = np.searchsorted(mids, per_sample, side="right") + (M + 1) * np.arange(L)[:, None]
    counts = np.bincount(spots.ravel(), minlength=L * (M + 1)).reshape(L, M + 1).cumsum(axis=1)[:, :M]
    constant = np.all(counts == counts[0], axis=0)
    out = list(zip(mids[constant].tolist(), clear[constant].tolist(), counts[0, constant].tolist()))
    out.sort(key=lambda c: (-_round_sig(c[1]), c[0]))
    return out


def _band_break(f: OperatorFamily, start: int, end: int, eps: float):
    """First (k, distance) on [start, end] where the (-eps, eps) band moves
    by more than BAND_CONTINUITY_TOL, or None."""
    return next(((k, d) for k, d in window_steps(f, start, end, -eps, eps)
                 if d > BAND_CONTINUITY_TOL), None)


def is_adapted(f: OperatorFamily, chart: AdaptedChart, gap_tol: float = DEFAULT_GAP_TOL):
    """Check the three chart conditions; returns (ok, report).

    The report names the first violation: a radius clearance failure, a band
    rank jump, or a band continuity break.
    """
    if chart.end >= f.n_samples:
        raise ValidationError("chart range leaves the grid")
    eps = chart.eps
    lam = f.eigenvalues[chart.start:chart.end + 1]
    hit = band_gap_error(lam, eps, gap_tol)
    if hit is not None:
        return False, (
            f"sample {chart.start + hit[0]}: eigenvalue {hit[1].eigenvalue:.12g} lies "
            f"within {gap_tol:.1e} of the band edge +-{eps:.12g}"
        )
    ranks = np.sum(np.abs(lam) < eps, axis=1)
    if np.any(ranks != ranks[0]):
        k = int(np.argmax(ranks != ranks[0]))
        return False, (
            f"band rank jumps from {ranks[0]} to {ranks[k]} at sample {chart.start + k}"
        )
    jump = _band_break(f, chart.start, chart.end, eps)
    if jump is not None:
        k, d = jump
        return False, (
            f"band moves by {d:.3f} between samples {k - 1} and {k} "
            f"(limit {BAND_CONTINUITY_TOL})"
        )
    return True, "adapted"


def _grow_chart(f: OperatorFamily, start: int, max_chart_len: int, gap_tol: float,
                eps_cap: float | None = None):
    """Extend a chart rightward from start as far as any radius survives.

    The ends with a radius form a prefix [start, F] (see the module
    docstring), so one search at the longest allowed end usually settles F;
    otherwise F is bisected, at O(log L) searches. This leans on the prefix
    being exact: a sub-gap clearance that rounding lifts over its parent's
    could, within an ulp of gap_tol, make a scan and a bisection disagree.
    """
    hard_end = min(f.n_samples - 1, start + max_chart_len - 1)
    feasible_end, found = hard_end, _radius_candidates(f, start, hard_end, gap_tol, eps_cap)
    if not found:
        lo, hi = start - 1, hard_end
        while hi - lo > 1:
            mid = (lo + hi) // 2
            cands = _radius_candidates(f, start, mid, gap_tol, eps_cap)
            if cands:
                lo, found = mid, cands
            else:
                hi = mid
        if not found:
            raise AtlasBuildError(
                f"no admissible gap radius at sample {start}; "
                f"refine the grid or lower gap_tol"
            )
        feasible_end = lo
    for end in range(feasible_end, start - 1, -1):
        if end < feasible_end:
            found = _radius_candidates(f, start, end, gap_tol, eps_cap)
        for eps, _clear, _rank in found:
            if _band_break(f, start, end, eps) is None:
                return end, float(eps)
    raise AtlasBuildError(
        f"band continuity fails for every admissible radius starting "
        f"at sample {start}; refine the grid"
    )


def build_atlas(f: OperatorFamily, max_chart_len: int = DEFAULT_MAX_CHART_LEN,
                gap_tol: float = DEFAULT_GAP_TOL,
                eps_cap: float | None = None) -> Atlas:
    """Greedy left-to-right atlas construction.

    Each chart is extended rightward while some radius keeps clearing the
    pooled spectrum with a constant band rank; the radius finally chosen is
    the midpoint of the widest surviving gap (ties broken toward the smaller
    radius). Since a longer range only splits gaps and adds rank
    constraints, the ends that keep a radius form a prefix, and its end is
    found by one radius search at the chart-length limit, or by bisection
    when that search comes up empty (exact up to rounding of clearances
    within an ulp of gap_tol). The next chart starts at the previous
    chart's last sample, so consecutive charts overlap in exactly one
    sample. An eps_cap bounds every chart radius from above, at the cost of
    shorter charts.
    """
    if max_chart_len < 2:
        raise ValidationError("max_chart_len must be at least 2")
    check_gap_tol(gap_tol)
    n = f.n_samples
    charts = []
    start = 0
    while True:
        end, eps = _grow_chart(f, start, max_chart_len, gap_tol, eps_cap)
        if end == start and start < n - 1:
            raise AtlasBuildError(
                f"no gap radius shared by samples {start} and {start + 1}; "
                f"refine the grid"
            )
        charts.append(AdaptedChart(start=start, end=end, eps=eps))
        if end >= n - 1:
            break
        start = end
    atlas = Atlas(charts=tuple(charts))
    f._atlas_checks[(atlas, gap_tol)] = (True, "valid atlas")
    return atlas


def check_atlas(f: OperatorFamily, atlas: Atlas, gap_tol: float = DEFAULT_GAP_TOL):
    """Full-grid coverage plus is_adapted on every chart; returns (ok, report).

    The verdict is kept on the family per (atlas, gap_tol), so an atlas
    checked or built once is not walked again; a check that raises is not kept.
    """
    check_gap_tol(gap_tol)
    key = (atlas, gap_tol)
    if key not in f._atlas_checks:
        f._atlas_checks[key] = _check_atlas(f, atlas, gap_tol)
    return f._atlas_checks[key]


def _check_atlas(f: OperatorFamily, atlas: Atlas, gap_tol: float):
    lo, hi = atlas.covered_range()
    if lo != 0 or hi != f.n_samples - 1:
        return False, f"atlas covers samples [{lo}, {hi}] of [0, {f.n_samples - 1}]"
    for i, chart in enumerate(atlas.charts):
        ok, report = is_adapted(f, chart, gap_tol)
        if not ok:
            return False, f"chart {i}: {report}"
    return True, "valid atlas"


def eps_for_subset(atlas: Atlas, sigma) -> float:
    """Radius attached to a chart subset: the minimum of the member radii.

    The subset must have a nonempty common sample range. Antitone under
    inclusion: enlarging sigma can only shrink the value.
    """
    idx = sorted(set(sigma))
    if not idx:
        raise ValidationError("chart subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= atlas.n_charts:
        raise ValidationError(f"chart index out of range in {idx}")
    members = [atlas.charts[i] for i in idx]
    lo = max(c.start for c in members)
    hi = min(c.end for c in members)
    if lo > hi:
        raise ValidationError(f"charts {idx} have no common sample")
    return min(c.eps for c in members)


@dataclass(frozen=True, eq=False)
class CoverCategoryData:
    """Objects (sample, chart subset), reverse-inclusion morphisms, nerve sizes.

    morphisms holds triples (sample, sigma, tau) with tau a nonempty subset
    of sigma; tau == sigma is the identity. nerve_counts[k] is the number of
    chains sigma_0 strictly containing sigma_1 ... strictly containing
    sigma_k at a fixed sample, summed over samples; nerve_counts[0] is the
    object count.
    """

    objects: tuple
    morphisms: tuple
    nerve_counts: tuple

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def morphism_count(self) -> int:
        return len(self.morphisms)


def cover_category(atlas: Atlas, max_dim: int = 3) -> CoverCategoryData:
    """Enumerate the covering category over the atlas's sample range."""
    if not 0 <= max_dim <= 3:
        raise ValidationError("max_dim must be between 0 and 3")
    lo, hi = atlas.covered_range()
    objects = []
    morphisms = []
    nerve = [0] * (max_dim + 1)
    for x in range(lo, hi + 1):
        containing = atlas.charts_containing(x)
        subsets = []
        for size in range(1, len(containing) + 1):
            for combo in combinations(containing, size):
                subsets.append(frozenset(combo))
        if len(objects) + len(subsets) > OBJECT_LIMIT:
            raise ValidationError("covering category exceeds the object limit")
        for sigma in subsets:
            objects.append((x, sigma))
            for size in range(1, len(sigma) + 1):
                for combo in combinations(sorted(sigma), size):
                    morphisms.append((x, sigma, frozenset(combo)))
        # Chains of strict inclusions, counted by dynamic programming over
        # the subset poset at this sample.
        ways = {s: 1 for s in subsets}
        nerve[0] += len(subsets)
        for k in range(1, max_dim + 1):
            nxt = {}
            for tau in subsets:
                total = sum(w for s, w in ways.items() if tau < s)
                if total:
                    nxt[tau] = total
            nerve[k] += sum(nxt.values())
            ways = nxt
            if not ways:
                break
    return CoverCategoryData(
        objects=tuple(objects),
        morphisms=tuple(morphisms),
        nerve_counts=tuple(nerve),
    )


def _upper_subspace_steps(f: OperatorFamily, chart: AdaptedChart, eps: float):
    return [d for _, d in window_steps(f, chart.start, chart.end, eps, np.inf)]


def strictly_adapted_check(f: OperatorFamily, chart: AdaptedChart,
                           gap_tol: float = DEFAULT_GAP_TOL):
    """Continuity of the upper spectral subspace Im P_[eps, inf) on the chart.

    Returns (report, verdict) where verdict means the largest per-step
    movement stays within STRICT_TOL. The verdict must not depend on which
    admissible radius is used; this is re-checked at the extreme admissible
    radii and a disagreement raises ModelViolationError.
    """
    steps = _upper_subspace_steps(f, chart, chart.eps)
    lam = f.eigenvalues[chart.start:chart.end + 1]
    eig_steps = np.abs(np.diff(lam, axis=0)).max(axis=1)
    max_step = max(steps) if steps else 0.0
    worst = int(np.argmax(steps)) if steps and max_step > 0 else 0
    report = ContinuityReport(
        max_eigenvalue_step=float(eig_steps.max(initial=0.0)),
        max_band_subspace_step=float(max_step),
        worst_step_index=worst,
    )
    verdict = max_step <= STRICT_TOL
    admissible = [
        (eps, clear, rank)
        for eps, clear, rank in _radius_candidates(f, chart.start, chart.end, gap_tol)
        if _band_break(f, chart.start, chart.end, eps) is None
    ]
    if admissible:
        for eps in (min(c[0] for c in admissible), max(c[0] for c in admissible)):
            other = _upper_subspace_steps(f, chart, eps)
            other_verdict = (max(other) if other else 0.0) <= STRICT_TOL
            if other_verdict != verdict:
                raise ModelViolationError(
                    f"strict-adaptedness verdict flips when the radius moves "
                    f"from {chart.eps:.6g} to {eps:.6g}"
                )
    return report, verdict
