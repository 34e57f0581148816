"""Chart adaptedness, greedy atlas construction, covering combinatorics."""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandflow import (
    AdaptedChart,
    Atlas,
    AtlasBuildError,
    ModelViolationError,
    OperatorFamily,
    ParameterGrid,
    SpectralBoundaryError,
    ValidationError,
    band_identity_check,
    build_atlas,
    check_atlas,
    cover_category,
    eps_for_subset,
    finite_polarized_replace,
    generate,
    is_adapted,
    strictly_adapted_check,
)
from bandflow import atlas as atlas_module
from bandflow import polarize as polarize_module
from bandflow.atlas import (
    DEFAULT_MAX_CHART_LEN,
    _band_break,
    _grow_chart,
    _radius_candidates,
    gap_midpoints,
)
from bandflow.errors import BandflowError


def diag_path(*diagonals):
    """Open-path family from explicit diagonal tuples, one per sample."""
    t = np.linspace(0.0, 1.0, len(diagonals))
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    ops = tuple(np.diag(d).astype(np.complex128) for d in diagonals)
    return OperatorFamily(grid=grid, dim=len(diagonals[0]), operators=ops)


def best_gap_radius(f, start, end, gap_tol=1e-6):
    """Largest-clearance midpoint of the pooled absolute-spectrum gaps.

    Independent reimplementation of the radius rule: pool |eigenvalues| over
    the sample range with 0 as a lower edge, take midpoints of consecutive
    gaps, drop those whose clearance misses gap_tol or whose band rank varies
    along the range, then pick max clearance with ties toward the smaller
    radius. Clearances are compared after rounding to 12 significant digits.
    """
    spectra = [np.abs(np.linalg.eigvalsh(f.operators[k])) for k in range(start, end + 1)]
    pooled = np.unique(np.concatenate(spectra))
    edges = np.concatenate(([0.0], pooled))
    best = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        clear = min(mid - lo, hi - mid)
        if clear < gap_tol or mid <= 0:
            continue
        ranks = {int(np.sum(lam < mid)) for lam in spectra}
        if len(ranks) > 1:
            continue
        key = (float(f"{clear:.12g}"), -mid)
        if best is None or key > best[0]:
            best = (key, mid)
    return None if best is None else best[1]


# ---------------------------------------------------------------- chart checks


def test_chart_validation():
    with pytest.raises(ValidationError):
        AdaptedChart(start=-1, end=3, eps=0.5)
    with pytest.raises(ValidationError):
        AdaptedChart(start=4, end=3, eps=0.5)
    with pytest.raises(ValidationError):
        AdaptedChart(start=0, end=3, eps=0.0)
    c = AdaptedChart(start=2, end=5, eps=0.1)
    assert c.length == 4 and list(c.sample_indices()) == [2, 3, 4, 5]


def test_atlas_validation():
    a = AdaptedChart(0, 10, 0.3)
    b = AdaptedChart(10, 20, 0.2)
    atlas = Atlas(charts=(a, b))
    assert atlas.n_charts == 2 and atlas.covered_range() == (0, 20)
    assert atlas.charts_containing(10) == [0, 1]
    assert atlas.charts_containing(3) == [0]
    with pytest.raises(ValidationError, match="at least one chart"):
        Atlas(charts=())
    with pytest.raises(ValidationError, match="do not overlap"):
        Atlas(charts=(a, AdaptedChart(11, 20, 0.2)))
    with pytest.raises(ValidationError, match="advance"):
        Atlas(charts=(a, AdaptedChart(0, 10, 0.2)))
    with pytest.raises(ValidationError, match="advance"):
        Atlas(charts=(a, AdaptedChart(5, 9, 0.2)))


def test_is_adapted_constant_family():
    f = generate("constant", dim=2, samples=20)
    ok, report = is_adapted(f, AdaptedChart(0, 19, 0.5))
    assert ok and report == "adapted"


def test_is_adapted_rejects_level_hit():
    f = generate("crossing", k=1, m=1)
    # the moving branch takes the values -0.05 and +0.05 on this grid
    ok, report = is_adapted(f, AdaptedChart(0, 100, 0.05))
    assert not ok
    assert "band edge" in report


def test_is_adapted_rejects_rank_jump():
    f = generate("crossing", k=1, m=1)
    # 0.053 clears every eigenvalue but the band fills up mid-chart
    ok, report = is_adapted(f, AdaptedChart(0, 100, 0.053))
    assert not ok
    assert "rank jumps" in report


def test_is_adapted_accepts_interior_window():
    f = generate("crossing", k=1, m=1)
    # t in [0.3, 0.7]: branch values stay in [-0.2, 0.2], well inside +-0.3
    ok, report = is_adapted(f, AdaptedChart(30, 70, 0.3))
    assert ok, report


def test_is_adapted_rejects_band_swap():
    # rank stays 1 but the band teleports between orthogonal lines
    f = diag_path((0.1, 5.0), (0.1, 5.0), (5.0, 0.1), (5.0, 0.1))
    ok, report = is_adapted(f, AdaptedChart(0, 3, 0.5))
    assert not ok
    assert "band moves" in report


def test_is_adapted_chart_must_fit_grid():
    f = generate("constant", dim=2, samples=10)
    with pytest.raises(ValidationError, match="leaves the grid"):
        is_adapted(f, AdaptedChart(0, 10, 0.5))


# ---------------------------------------------------------------- build_atlas


def test_build_atlas_constant_single_chart():
    f = generate("constant", dim=3, samples=40)
    atlas = build_atlas(f)
    assert atlas.n_charts == 1
    chart = atlas.charts[0]
    assert (chart.start, chart.end) == (0, 39)
    # gaps (0,1) and (1,2) tie at clearance 0.5; the smaller midpoint wins
    assert chart.eps == 0.5
    assert check_atlas(f, atlas)[0]


def test_build_atlas_crossing():
    f = generate("crossing", k=1, m=1)
    atlas = build_atlas(f)
    assert atlas.n_charts >= 2
    ok, report = check_atlas(f, atlas)
    assert ok, report
    for c, d in zip(atlas.charts, atlas.charts[1:]):
        assert d.start == c.end  # single-sample overlaps
        assert c.length <= 40
    assert atlas.covered_range() == (0, f.n_samples - 1)


def test_build_atlas_radius_matches_gap_enumeration():
    # every chart radius is the midpoint of the widest pooled gap on its range
    for name, kwargs in [("crossing", dict(k=1, m=1)),
                         ("truncated_shift_flow", dict(N=3)),
                         ("constant", dict(dim=3, samples=40))]:
        f = generate(name, **kwargs)
        atlas = build_atlas(f)
        for chart in atlas.charts:
            want = best_gap_radius(f, chart.start, chart.end)
            assert abs(chart.eps - want) < 1e-12, (name, chart)


def test_build_atlas_shift_flow():
    f = generate("truncated_shift_flow", N=3)
    atlas = build_atlas(f)
    ok, report = check_atlas(f, atlas)
    assert ok, report
    # the first chart sees the fold gap (0.395, 0.605) around the silent zone
    assert abs(atlas.charts[0].eps - 0.5) < 1e-12
    # charts straddling the rung handoff get radii from the fold gap above
    # the top rung band, so radii are not bounded by the rung spacing
    assert max(c.eps for c in atlas.charts) > 1.0


def test_build_atlas_eps_cap():
    f = generate("truncated_shift_flow", N=3)
    atlas = build_atlas(f, eps_cap=0.3)
    assert all(c.eps <= 0.3 for c in atlas.charts)
    ok, report = check_atlas(f, atlas)
    assert ok, report


def test_build_atlas_random_smooth_smoke():
    f = generate("random_smooth", dim=4, seed=2, samples=60)
    atlas = build_atlas(f)
    ok, report = check_atlas(f, atlas)
    assert ok, report


def test_build_atlas_rejects_tiny_chart_budget():
    f = generate("constant", dim=2, samples=10)
    with pytest.raises(ValidationError, match="at least 2"):
        build_atlas(f, max_chart_len=1)


def test_build_atlas_pinned_spectrum_fails():
    # both absolute eigenvalues sit within 2e-8 of zero, far below the
    # required clearance, and there is no gap above the top of the spectrum
    f = diag_path((1e-8, 2e-8), (1e-8, 2e-8), (1e-8, 2e-8))
    with pytest.raises(AtlasBuildError, match="sample 0"):
        build_atlas(f)


def test_build_atlas_unshareable_radius_fails():
    # each sample admits a radius on its own but no radius serves both
    f = diag_path((1e-8, 4e-6), (2e-6, 3.9e-6))
    assert best_gap_radius(f, 0, 0) is not None
    assert best_gap_radius(f, 1, 1) is not None
    assert best_gap_radius(f, 0, 1) is None
    with pytest.raises(AtlasBuildError, match="samples 0 and 1"):
        build_atlas(f)


def test_build_atlas_capped_crossing_fails():
    # the branch vanishes at t = 0.5; with radii capped below the local
    # branch spacing no chart can straddle that sample
    f = generate("crossing", k=1, m=1)
    with pytest.raises(AtlasBuildError, match="samples 49 and 50"):
        build_atlas(f, eps_cap=0.005)


# ---------------------------------------------------------------- eps_for_subset


def three_chart_atlas():
    return Atlas(charts=(
        AdaptedChart(0, 10, 0.3),
        AdaptedChart(5, 15, 0.1),
        AdaptedChart(8, 20, 0.2),
    ))


def test_eps_for_subset_values():
    atlas = three_chart_atlas()
    assert eps_for_subset(atlas, {0}) == 0.3
    assert eps_for_subset(atlas, {1}) == 0.1
    assert eps_for_subset(atlas, {2}) == 0.2
    assert eps_for_subset(atlas, {0, 1}) == 0.1
    assert eps_for_subset(atlas, {0, 2}) == 0.2
    assert eps_for_subset(atlas, {0, 1, 2}) == 0.1


def test_eps_for_subset_errors():
    atlas = three_chart_atlas()
    with pytest.raises(ValidationError, match="nonempty"):
        eps_for_subset(atlas, set())
    with pytest.raises(ValidationError, match="out of range"):
        eps_for_subset(atlas, {0, 5})
    chain = Atlas(charts=(
        AdaptedChart(0, 5, 0.3),
        AdaptedChart(5, 10, 0.15),
        AdaptedChart(10, 15, 0.25),
        AdaptedChart(15, 20, 0.12),
    ))
    with pytest.raises(ValidationError, match="no common sample"):
        eps_for_subset(chain, {0, 3})


def test_eps_for_subset_antitone_exhaustive():
    atlas = three_chart_atlas()
    all_charts = range(atlas.n_charts)
    subsets = [frozenset(c) for r in range(1, 4) for c in combinations(all_charts, r)]

    def value(sigma):
        try:
            return eps_for_subset(atlas, sigma)
        except ValidationError:
            return None

    for small in subsets:
        for big in subsets:
            if small < big and value(small) is not None and value(big) is not None:
                assert value(big) <= value(small)


# ---------------------------------------------------------------- cover category


def brute_force_cover(atlas, max_dim=3):
    """Naive re-enumeration of objects, morphisms, and nerve chains."""
    lo, hi = atlas.covered_range()
    objects = []
    morphisms = []
    nerve = [0] * (max_dim + 1)
    for x in range(lo, hi + 1):
        present = [i for i, c in enumerate(atlas.charts) if c.start <= x <= c.end]
        subs = [frozenset(c) for r in range(1, len(present) + 1)
                for c in combinations(present, r)]
        for sigma in subs:
            objects.append((x, sigma))
            for r in range(1, len(sigma) + 1):
                for tau in combinations(sorted(sigma), r):
                    morphisms.append((x, sigma, frozenset(tau)))

        def chains_below(top, depth):
            if depth == 0:
                return 1
            return sum(chains_below(s, depth - 1) for s in subs if s < top)

        nerve[0] += len(subs)
        for k in range(1, max_dim + 1):
            nerve[k] += sum(chains_below(s, k) for s in subs)
    return objects, morphisms, nerve


def test_cover_category_single_chart():
    atlas = Atlas(charts=(AdaptedChart(0, 7, 0.5),))
    data = cover_category(atlas)
    assert data.object_count == 8
    assert data.morphism_count == 8
    assert all(sigma == tau for _, sigma, tau in data.morphisms)
    assert data.nerve_counts == (8, 0, 0, 0)


def test_cover_category_two_charts_one_overlap():
    atlas = Atlas(charts=(AdaptedChart(0, 4, 0.3), AdaptedChart(4, 9, 0.2)))
    data = cover_category(atlas)
    # 9 lone-chart samples contribute one object each, the overlap sample 3
    assert data.object_count == 9 + 3
    at_overlap = [m for m in data.morphisms if m[0] == 4]
    identities = [m for m in at_overlap if m[1] == m[2]]
    proper = [m for m in at_overlap if m[1] != m[2]]
    # identity on each of {0}, {1}, {0,1} plus the two projections out of {0,1}
    assert len(identities) == 3 and len(proper) == 2
    objects, morphisms, nerve = brute_force_cover(atlas)
    assert data.object_count == len(objects)
    assert data.morphism_count == len(morphisms)
    assert sorted(data.objects) == sorted(objects)
    assert data.nerve_counts == tuple(nerve)


def test_cover_category_triple_overlap_matches_brute_force():
    atlas = three_chart_atlas()
    data = cover_category(atlas)
    objects, morphisms, nerve = brute_force_cover(atlas)
    assert data.object_count == len(objects)
    assert data.morphism_count == len(morphisms)
    assert data.nerve_counts == tuple(nerve)
    # samples 8..10 carry all three charts: 6 strict 2-chains each
    assert data.nerve_counts[2] == 3 * 6
    assert data.nerve_counts[3] == 0


def test_cover_category_matches_brute_force_on_built_atlases():
    for name, kwargs in [("crossing", dict(k=1, m=1, samples=20)),
                         ("constant", dict(dim=3, samples=15))]:
        f = generate(name, **kwargs)
        atlas = build_atlas(f, max_chart_len=8)
        assert atlas.n_charts <= 4
        data = cover_category(atlas)
        objects, morphisms, nerve = brute_force_cover(atlas)
        assert data.object_count == len(objects)
        assert data.morphism_count == len(morphisms)
        assert data.nerve_counts == tuple(nerve)


def test_cover_category_max_dim_bounds():
    atlas = Atlas(charts=(AdaptedChart(0, 3, 0.5),))
    with pytest.raises(ValidationError):
        cover_category(atlas, max_dim=4)
    with pytest.raises(ValidationError):
        cover_category(atlas, max_dim=-1)
    data = cover_category(atlas, max_dim=0)
    assert data.nerve_counts == (4,)


# ---------------------------------------------------------------- strict check


def test_strictly_adapted_constant():
    f = generate("constant", dim=3, samples=20)
    report, verdict = strictly_adapted_check(f, AdaptedChart(0, 19, 0.5))
    assert verdict
    assert report.max_band_subspace_step == 0.0


def test_strictly_adapted_rotation_step():
    f = generate("rotation", m=0)
    atlas = build_atlas(f)
    chart = atlas.charts[0]
    report, verdict = strictly_adapted_check(f, chart)
    assert verdict
    # the positive eigenvector turns rigidly by delta-theta per sample
    dtheta = 2.0 * np.pi / (f.n_samples - 1)
    assert abs(report.max_band_subspace_step - np.sin(dtheta)) < 1e-9
    assert report.max_eigenvalue_step < 1e-12


def test_strictly_adapted_crossing_chart():
    f = generate("crossing", k=1, m=1)
    atlas = build_atlas(f)
    report, verdict = strictly_adapted_check(f, atlas.charts[0])
    assert verdict
    assert report.max_band_subspace_step < 1e-10


def test_strictly_adapted_verdict_invariance_guarded():
    # a radius foreign to the chart flips the verdict relative to every
    # admissible radius; the check refuses to return a radius-dependent answer
    f = generate("crossing", k=1, m=1)
    with pytest.raises(ModelViolationError, match="verdict flips"):
        strictly_adapted_check(f, AdaptedChart(0, 100, 0.053))


# ---------------------------------------------------------------- table reads


def reference_candidates(f, start, end, gap_tol, eps_cap=None):
    """_radius_candidates with per-sample sorting and per-row rank counts."""
    per_sample = [np.sort(np.abs(f.eigen(k).eigenvalues)) for k in range(start, end + 1)]
    pooled = np.unique(np.concatenate(per_sample))
    mids, clear = gap_midpoints(np.concatenate(([0.0], pooled)), cap=eps_cap)
    keep = (clear >= gap_tol) & (mids > 0)
    mids, clear = mids[keep], clear[keep]
    counts = np.stack([np.searchsorted(lam, mids) for lam in per_sample])
    constant = np.all(counts == counts[0], axis=0)
    out = [(float(m), float(h), int(r))
           for m, h, r, ok in zip(mids, clear, counts[0], constant) if ok]
    out.sort(key=lambda c: (-float(f"{c[1]:.12g}"), c[0]))
    return out


def reference_first_violation(f, chart, gap_tol):
    """is_adapted's clearance and rank messages, one sample at a time."""
    ranks = []
    for k in chart.sample_indices():
        lam = f.eigen(k).eigenvalues
        dist = np.abs(np.abs(lam) - chart.eps)
        j = int(np.argmin(dist))
        if dist[j] < gap_tol:
            return (f"sample {k}: eigenvalue {lam[j]:.12g} lies within "
                    f"{gap_tol:.1e} of the band edge +-{chart.eps:.12g}")
        ranks.append(int(np.sum(np.abs(lam) < chart.eps)))
    for i, r in enumerate(ranks):
        if r != ranks[0]:
            return f"band rank jumps from {ranks[0]} to {r} at sample {chart.start + i}"
    return None


TABLE_FAMILIES = [
    generate("random_smooth", dim=4, seed=3, samples=60),
    generate("random_smooth", dim=2, seed=8, samples=60),
    generate("crossing", k=2, m=2, samples=61),
    generate("constant", dim=3, samples=10),
    generate("polarized_crossing", samples=41),
]


@pytest.mark.parametrize("f", TABLE_FAMILIES, ids=lambda f: f"dim{f.dim}x{f.n_samples}")
def test_radius_candidates_match_per_row_counts(f):
    rng = np.random.default_rng(f.dim * 100 + f.n_samples)
    for _ in range(40):
        start = int(rng.integers(0, f.n_samples - 1))
        end = int(rng.integers(start, min(f.n_samples, start + 40)))
        # at gap_tol 0 a midpoint can equal its lower edge
        for gap_tol, cap in ((1e-6, None), (1e-3, None), (0.0, None),
                             (1e-6, float(rng.uniform(0.01, 1.0)))):
            assert (_radius_candidates(f, start, end, gap_tol, cap)
                    == reference_candidates(f, start, end, gap_tol, cap))


@pytest.mark.parametrize("f", TABLE_FAMILIES, ids=lambda f: f"dim{f.dim}x{f.n_samples}")
def test_is_adapted_first_violation_matches_per_sample_loop(f):
    rng = np.random.default_rng(f.dim + f.n_samples)
    seen = set()
    for _ in range(60):
        start = int(rng.integers(0, f.n_samples - 1))
        end = int(rng.integers(start, f.n_samples))
        eps = float(rng.choice([rng.uniform(0.01, 1.5),
                                np.abs(f.eigen(end).eigenvalues).min()]))
        chart = AdaptedChart(start, end, eps)
        expected = reference_first_violation(f, chart, 1e-6)
        ok, report = is_adapted(f, chart)
        if expected is None:
            assert ok or report.startswith("band moves")
        else:
            assert not ok and report == expected
        seen.add(None if expected is None else expected.split()[0])
    assert len(seen) >= 2


def test_check_atlas_keeps_verdicts_not_errors(monkeypatch):
    walked = []
    adapted = atlas_module.is_adapted

    def counted(f, chart, gap_tol):
        walked.append(chart)
        return adapted(f, chart, gap_tol)

    monkeypatch.setattr(atlas_module, "is_adapted", counted)
    atlas = build_atlas(generate("crossing"))
    # a family the atlas was not built on has no verdict yet
    f = generate("crossing")
    verdict = check_atlas(f, atlas)
    assert verdict == (True, "valid atlas") and len(walked) == atlas.n_charts
    assert check_atlas(f, Atlas(atlas.charts)) == verdict
    assert len(walked) == atlas.n_charts
    check_atlas(f, atlas, 1e-3)
    check_atlas(generate("crossing"), atlas)
    assert len(walked) == 3 * atlas.n_charts
    # a check that raises is run again, and raises again
    on_level = diag_path((0.5, 1.0), (0.5, 1.0))
    one_chart = Atlas((AdaptedChart(0, 1, 0.5),))
    for _ in range(2):
        with pytest.raises(SpectralBoundaryError):
            check_atlas(on_level, one_chart, 0.0)
    assert len(walked) == 3 * atlas.n_charts + 2


def test_build_atlas_records_its_verdict(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("check_atlas walked an atlas build_atlas made")

    f = generate("crossing")
    atlas = build_atlas(f)
    monkeypatch.setattr(atlas_module, "is_adapted", forbidden)
    assert check_atlas(f, atlas) == (True, "valid atlas")
    assert check_atlas(f, Atlas(atlas.charts)) == (True, "valid atlas")
    # the verdict holds for the gap_tol the atlas was built with only
    with pytest.raises(AssertionError, match="walked"):
        check_atlas(f, atlas, 1e-3)


def uncached_copy(f):
    """The same family, built afresh: its own plane and no atlas verdicts."""
    return OperatorFamily(grid=f.grid, dim=f.dim, operators=f.operator_stack)


# ---------------------------------------------------------------- chart growth


def scan_grow_chart(f, start, max_chart_len, gap_tol, eps_cap=None):
    """_grow_chart as a forward scan: one radius search per extension."""
    hard_end = min(f.n_samples - 1, start + max_chart_len - 1)
    feasible_end = None
    j = start
    while j <= hard_end:
        if not _radius_candidates(f, start, j, gap_tol, eps_cap):
            break
        feasible_end = j
        j += 1
    if feasible_end is None:
        raise AtlasBuildError(
            f"no admissible gap radius at sample {start}; "
            f"refine the grid or lower gap_tol"
        )
    for end in range(feasible_end, start - 1, -1):
        for eps, _clear, _rank in _radius_candidates(f, start, end, gap_tol, eps_cap):
            if _band_break(f, start, end, eps) is None:
                return end, float(eps)
    raise AtlasBuildError(
        f"band continuity fails for every admissible radius starting "
        f"at sample {start}; refine the grid"
    )


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except BandflowError as exc:
        return type(exc).__name__, str(exc)


def nudge(x, steps):
    """x moved by |steps| ulps, up for positive steps."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
    return x


@st.composite
def near_degenerate_families(draw):
    """Diagonal paths whose branches share magnitudes: |lam| ties, +-lam pairs,
    ulp neighbours, zeros, and drifts that cross one another and zero, some
    of them through zero at a sample, where every chart must end."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(2, 45))
    mags = draw(st.lists(st.sampled_from([0.0, 0.01, 0.04, 0.1, 0.25, 0.5])
                         | st.floats(0.0, 1.0), min_size=1, max_size=3))
    t = np.linspace(0.0, 1.0, n)
    columns = []
    for _ in range(dim):
        slope = draw(st.sampled_from([0.0, 0.0, 0.02, -0.1, 0.6, -1.5]))
        zero_at = draw(st.none() | st.integers(0, n - 1))
        if zero_at is None:
            start = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from(mags))
        else:
            start = -slope * t[zero_at]
        ulps = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        columns.append([nudge(float(start + slope * s), u) for s, u in zip(t, ulps)])
    return diag_path(*np.array(columns).T)


GROW_SETTINGS = st.tuples(
    st.integers(2, 40),
    st.sampled_from([1e-6, 1e-3, 0.02]),
    st.sampled_from([None, 0.05, 0.3]) | st.floats(0.005, 1.0),
)


@settings(max_examples=150)
@given(near_degenerate_families(), GROW_SETTINGS)
def test_grow_chart_matches_forward_scan(f, grow):
    max_chart_len, gap_tol, eps_cap = grow
    for start in range(f.n_samples):
        assert (outcome(_grow_chart, f, start, max_chart_len, gap_tol, eps_cap)
                == outcome(scan_grow_chart, f, start, max_chart_len, gap_tol, eps_cap))
    built = outcome(build_atlas, f, max_chart_len, gap_tol, eps_cap)
    with mock.patch.object(atlas_module, "_grow_chart", scan_grow_chart):
        assert built == outcome(build_atlas, f, max_chart_len, gap_tol, eps_cap)


random_smooth_families = st.builds(
    lambda dim, seed: generate("random_smooth", dim=dim, seed=seed, samples=120),
    st.integers(2, 6), st.integers(0, 10**6))


@settings(max_examples=200)
@given(near_degenerate_families() | random_smooth_families, GROW_SETTINGS)
def test_built_atlas_passes_a_fresh_check(f, grow):
    max_chart_len, gap_tol, eps_cap = grow
    try:
        atlas = build_atlas(f, max_chart_len, gap_tol, eps_cap)
    except AtlasBuildError:
        return
    assert atlas_module._check_atlas(uncached_copy(f), atlas, gap_tol) == (True, "valid atlas")


@pytest.mark.parametrize("f", TABLE_FAMILIES, ids=lambda f: f"dim{f.dim}x{f.n_samples}")
@pytest.mark.parametrize("max_chart_len,gap_tol,eps_cap", [
    (2, 1e-6, None), (7, 1e-3, None), (40, 1e-6, None), (40, 1e-6, 0.05), (13, 0.02, 0.3),
])
def test_build_atlas_matches_forward_scan(f, max_chart_len, gap_tol, eps_cap):
    built = outcome(build_atlas, f, max_chart_len, gap_tol, eps_cap)
    with mock.patch.object(atlas_module, "_grow_chart", scan_grow_chart):
        assert built == outcome(build_atlas, f, max_chart_len, gap_tol, eps_cap)


@pytest.mark.parametrize("eps_cap", [None, 0.3])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_one_radius_search_per_chart(monkeypatch, dim, eps_cap):
    f = generate("random_smooth", dim=dim, seed=dim, samples=200)
    calls = []
    search = atlas_module._radius_candidates

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return search(*args, **kwargs)

    monkeypatch.setattr(atlas_module, "_radius_candidates", counted)
    atlas = build_atlas(f, eps_cap=eps_cap)
    # every chart runs to its length limit or to the last sample ...
    assert all(c.end == min(f.n_samples - 1, c.start + DEFAULT_MAX_CHART_LEN - 1)
               for c in atlas.charts)
    # ... so each is found by one search over its whole range
    assert calls == [(c.start, c.end) for c in atlas.charts]


def test_band_identity_check_makes_no_radius_search(monkeypatch):
    rep = finite_polarized_replace(generate("random_smooth", dim=4, seed=1, samples=200))

    def forbidden(*args, **kwargs):
        raise AssertionError("band_identity_check ran a radius search")

    monkeypatch.setattr(atlas_module, "_radius_candidates", forbidden)
    monkeypatch.setattr(polarize_module, "_radius_candidates", forbidden, raising=False)
    report = band_identity_check(rep.scaled_input, rep.family, rep.radius)
    assert report["samples_checked"] == rep.family.n_samples
