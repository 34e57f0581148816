"""Weak sections, the sandwich predicate, and the two-pass deformation."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bandflow import (
    AdaptedChart,
    Atlas,
    ModelViolationError,
    OperatorFamily,
    ParameterGrid,
    PartitionOfUnity,
    SpectralBoundaryError,
    Subspace,
    ValidationError,
    WeakSpectralSection,
    deform_to_spectral_section,
    default_level_grid,
    discrete_spectrum_check,
    generate,
    is_spectral_section,
    make_weak_section,
    partition_of_unity,
    section_existence,
    subspace_distance,
    tilt_section,
    weak_section_check,
    window_subspace,
)
from bandflow import sections
from bandflow.atlas import DEFAULT_GAP_TOL, gap_midpoints
from bandflow.linalg import (
    first_edge_error,
    inclusion_residual,
    orthogonal_complement,
    orthonormal_image,
    window_inclusions,
)
from bandflow.sections import SECTION_RESIDUAL_TOL, _fixed_point_radius
from conftest import random_subspace


def constant_family(diagonal, samples=3):
    t = np.linspace(0.0, 1.0, samples)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    A = np.diag(np.asarray(diagonal, dtype=np.complex128))
    return OperatorFamily(grid=grid, dim=len(diagonal), operators=(A,) * samples)


def sine_loop(samples=40):
    t = np.linspace(0.0, 1.0, samples)
    grid = ParameterGrid(kind="circle_loop", samples=t, closure="exact_loop")
    ops = tuple(np.diag([np.sin(2 * np.pi * s), 2.0]).astype(np.complex128) for s in t)
    return OperatorFamily(grid=grid, dim=2, operators=ops)


def span(*cols):
    F = np.column_stack([np.asarray(c, dtype=np.complex128) for c in cols])
    Q, _ = np.linalg.qr(F)
    return Subspace(F.shape[0], Q[:, : F.shape[1]])


# ------------------------------------------------------------- weak sections


def test_weak_section_window_above_cut():
    f = generate("crossing")
    S = make_weak_section(f, cut=1.5)
    assert S.n_samples == f.n_samples
    assert all(V.dim == 1 for V in S.subspaces)
    ok, report = weak_section_check(f, S)
    assert ok
    assert report["reason"] == "weak section"
    assert report["cut_clearance"] == pytest.approx(0.5)
    assert report["dim_defects"] == (0,) * f.n_samples
    assert report["max_step"] < 1e-12


def test_weak_section_rejects_cut_on_spectrum():
    f = generate("crossing")
    S = make_weak_section(f, cut=1.5)
    bad = WeakSpectralSection(subspaces=S.subspaces, reference_cut=2.0)
    ok, report = weak_section_check(f, bad)
    assert not ok
    assert "comes within" in report["reason"]


def test_weak_section_detects_jump():
    f = constant_family([-1.0, 1.0], samples=4)
    subs = (span([0, 1]), span([0, 1]), span([1, 0]), span([1, 0]))
    S = WeakSpectralSection(subspaces=subs, reference_cut=0.0)
    ok, report = weak_section_check(f, S)
    assert not ok
    assert "jumps" in report["reason"]
    assert report["max_step"] == pytest.approx(1.0)


def test_weak_section_detects_floor_content():
    f = constant_family([-5.0, 1.0])
    S = WeakSpectralSection(subspaces=(span([1, 0]),) * 3, reference_cut=0.0)
    ok, report = weak_section_check(f, S, floor=-3.0)
    assert not ok
    assert "below the floor" in report["reason"]
    assert report["floor_overlap"] == pytest.approx(1.0)
    # with the default floor one unit under the spectrum the check is vacuous
    ok_default, _ = weak_section_check(f, S)
    assert ok_default


def test_weak_section_shape_validation():
    f = constant_family([-1.0, 1.0], samples=4)
    S = WeakSpectralSection(subspaces=(span([0, 1]),) * 2, reference_cut=0.0)
    with pytest.raises(ValidationError, match="samples"):
        weak_section_check(f, S)
    wide = WeakSpectralSection(subspaces=(span([0, 0, 1]),) * 4, reference_cut=0.0)
    with pytest.raises(ValidationError, match="ambient"):
        weak_section_check(f, wide)
    with pytest.raises(ValidationError, match="at least one"):
        WeakSpectralSection(subspaces=(), reference_cut=0.0)
    with pytest.raises(ValidationError, match="ambient dim"):
        WeakSpectralSection(subspaces=(span([0, 1]), span([0, 0, 1])), reference_cut=0.0)


def test_tilt_section_moves_by_the_mixing_angle():
    f = sine_loop()
    S = make_weak_section(f, cut=1.5)
    T = tilt_section(f, S, angle=0.2)
    for x in range(f.n_samples):
        assert T.subspaces[x].dim == 1
        assert subspace_distance(S.subspaces[x], T.subspaces[x]) == pytest.approx(
            np.sin(0.2), abs=1e-12
        )
    ok, _ = weak_section_check(f, T)
    assert ok


def test_tilt_section_keeps_trivial_subspaces():
    f = generate("crossing")
    S = make_weak_section(f, cut=3.0)
    T = tilt_section(f, S, angle=0.4)
    assert all(T.subspaces[x] is S.subspaces[x] for x in range(f.n_samples))


# ------------------------------------------------------- partition of unity


def test_partition_single_sample_overlap_splits_evenly():
    atlas = Atlas(charts=(AdaptedChart(0, 5, 0.5), AdaptedChart(5, 10, 0.5)))
    pou = partition_of_unity(atlas, 11)
    assert pou.weights[0, 5] == pytest.approx(0.5)
    assert pou.weights[1, 5] == pytest.approx(0.5)
    assert pou.weights[0, 4] == 1.0 and pou.weights[1, 6] == 1.0
    assert pou.active_charts(5) == [0, 1]
    assert pou.active_charts(2) == [0]
    assert pou.active_charts(8) == [1]
    np.testing.assert_allclose(pou.weights.sum(axis=0), 1.0, atol=1e-15)


def test_partition_multi_sample_ramp():
    atlas = Atlas(charts=(AdaptedChart(0, 10, 0.5), AdaptedChart(5, 15, 0.5)))
    pou = partition_of_unity(atlas, 16)
    ramp = pou.weights[0, 5:11]
    np.testing.assert_allclose(ramp, [(6 - k) / 7.0 for k in range(6)], atol=1e-15)
    assert np.all(np.diff(pou.weights[0]) <= 1e-15)
    np.testing.assert_allclose(pou.weights.sum(axis=0), 1.0, atol=1e-15)
    # plateaus are indicators of the tent supports
    assert np.all(pou.plateaus[0, :11] == 1.0)
    assert np.all(pou.plateaus[0, 11:] == 0.0)
    assert np.all(pou.plateaus[1, 5:] == 1.0)


def test_partition_loop_seam_split():
    atlas = Atlas(charts=(AdaptedChart(0, 5, 0.5), AdaptedChart(5, 10, 0.5)))
    pou = partition_of_unity(atlas, 11, loop=True)
    assert pou.weights[0, 0] == pytest.approx(0.5)
    assert pou.weights[1, 0] == pytest.approx(0.5)
    assert pou.weights[0, 10] == pytest.approx(0.5)
    assert pou.weights[1, 10] == pytest.approx(0.5)
    np.testing.assert_allclose(pou.weights.sum(axis=0), 1.0, atol=1e-15)
    assert pou.active_charts(0) == [0, 1]


def test_partition_requires_full_cover():
    atlas = Atlas(charts=(AdaptedChart(0, 5, 0.5), AdaptedChart(5, 10, 0.5)))
    with pytest.raises(ValidationError, match="cover the full grid"):
        partition_of_unity(atlas, 12)


def test_partition_validation():
    ranges = ((0, 0), (0, 0))
    ones = np.ones((2, 1))
    with pytest.raises(ValidationError, match="sum to one"):
        PartitionOfUnity(weights=np.array([[0.6], [0.5]]), plateaus=ones, ranges=ranges)
    with pytest.raises(ValidationError, match=r"lie in \[0, 1\]"):
        PartitionOfUnity(weights=np.array([[1.5], [-0.5]]), plateaus=ones, ranges=ranges)
    with pytest.raises(ValidationError, match="plateaus must equal one"):
        PartitionOfUnity(
            weights=np.array([[1.0]]), plateaus=np.array([[0.5]]), ranges=((0, 0),)
        )
    with pytest.raises(ValidationError, match="leaves its chart range"):
        PartitionOfUnity(
            weights=np.full((2, 2), 0.5),
            plateaus=np.ones((2, 2)),
            ranges=((0, 0), (1, 1)),
        )
    with pytest.raises(ValidationError, match="2d shape"):
        PartitionOfUnity(weights=np.ones((1, 2)), plateaus=np.ones((2, 1)), ranges=((0, 1),))
    with pytest.raises(ValidationError, match="one range per chart"):
        PartitionOfUnity(weights=np.full((2, 2), 0.5), plateaus=np.ones((2, 2)), ranges=((0, 1),))


# ------------------------------------------------------------- level grids


def test_default_level_grid_crossing():
    f = generate("crossing")
    levels = default_level_grid(f)
    assert len(levels) == 4
    assert levels == sorted(levels)
    assert any(abs(m - 1.25) < 1e-12 for m in levels)


def test_default_level_grid_degenerate_spectrum():
    f = constant_family([3.0])
    assert default_level_grid(f) == [2.0, 4.0]


def test_discrete_check_shift_flow_levels():
    f = generate("truncated_shift_flow")
    ok, report = discrete_spectrum_check(f, [-1.5, -0.5, 0.5, 1.5])
    assert ok
    assert report.count("ok") == 4


def test_discrete_check_pinned_level():
    f = constant_family([0.5, 2.0])
    ok, report = discrete_spectrum_check(f, [0.5])
    assert not ok
    assert "stays within" in report


def test_discrete_check_constant_family():
    f = generate("constant")
    ok, _ = discrete_spectrum_check(f, [0.25])
    assert ok


def test_discrete_check_nudges_level_off_spectrum():
    f = constant_family([0.5, 2.0])
    ok, report = discrete_spectrum_check(f, [0.5], gap_tol=1e-9)
    assert ok
    assert "ok" in report


def test_discrete_check_reports_atlas_failure():
    f = constant_family([1.5e-6, -1.5e-6], samples=2)
    ok, report = discrete_spectrum_check(f, [0.0])
    assert not ok
    assert "no admissible gap radius" in report


# -------------------------------------------------------- sandwich predicate


def test_sandwich_holds_for_spectral_window():
    f = constant_family([-0.7, 0.3, 1.2])
    S = make_weak_section(f, cut=0.1)
    ok, report = is_spectral_section(f, S, 0.2)
    assert ok
    assert report["upper_residual"] < 1e-12
    assert report["lower_residual"] < 1e-12
    assert report["max_radius"] == pytest.approx(0.2)
    ok_arr, _ = is_spectral_section(f, S.subspaces, np.full(f.n_samples, 0.2))
    assert ok_arr


def test_sandwich_fails_on_deep_negative_content():
    f = constant_family([-5.0, 1.0])
    subs = (span([1, 0]),) * 3
    for r in (0.5, 4.0):
        ok, report = is_spectral_section(f, subs, r)
        assert not ok
        assert report["lower_residual"] > 0.9


def test_sandwich_radius_validation():
    f = constant_family([-1.0, 1.0])
    subs = (span([0, 1]),) * 3
    with pytest.raises(ValidationError, match="positive"):
        is_spectral_section(f, subs, 0.0)
    with pytest.raises(ValidationError, match="subspaces for"):
        is_spectral_section(f, subs[:2], 0.5)


def reference_inclusions(f, hi, lo, subs):
    """The sandwich residuals one sample and one window subspace at a time:
    (ru, rl), or (sample, error) for the first ambiguous edge."""
    ru, rl = np.zeros(f.n_samples), np.zeros(f.n_samples)
    for x in range(f.n_samples):
        try:
            upper = window_subspace(f, x, hi[x], np.inf)
            lower = window_subspace(f, x, lo[x], np.inf)
        except SpectralBoundaryError as exc:
            return x, exc
        ru[x] = inclusion_residual(upper, subs[x])
        rl[x] = inclusion_residual(subs[x], lower)
    return ru, rl


@given(dim=st.integers(1, 6), samples=st.integers(2, 8), seed=st.integers(0, 10_000),
       kind=st.sampled_from(["zero", "full", "mixed"]),
       on_edge=st.sampled_from([(), ("hi",), ("lo",), ("hi", "lo")]))
def test_window_inclusions_match_the_per_sample_loop(dim, samples, seed, kind, on_edge):
    rng = np.random.default_rng(seed)
    f = generate("random_smooth", dim=dim, seed=seed, samples=samples)
    lam, F = f.eigenvalues, f.frames
    subs = []
    for x in range(samples):
        k = {"zero": 0, "full": dim}.get(kind, int(rng.integers(0, dim + 1)))
        if rng.random() < 0.5:  # top eigenvectors, as a non-contiguous view of the plane
            subs.append(Subspace(dim, F[x][:, dim - k:]))
        else:
            subs.append(random_subspace(rng, dim, k))
    hi = rng.uniform(0.01, 2.0, samples)
    lo = -rng.uniform(0.01, 2.0, samples)
    for edge in on_edge:
        target = hi if edge == "hi" else lo
        x = int(rng.integers(samples))
        target[x] = lam[x, int(rng.integers(dim))]
    ref = reference_inclusions(f, hi, lo, subs)
    if isinstance(ref[1], SpectralBoundaryError):
        with pytest.raises(SpectralBoundaryError) as err:
            window_inclusions(lam, F, hi, lo, [V.frame for V in subs])
        assert str(err.value) == str(ref[1])
        assert first_edge_error(lam, hi, lo)[0] == ref[0]
        return
    ru, rl = window_inclusions(lam, F, hi, lo, [V.frame for V in subs])
    assert (ru == ref[0]).all() and (rl == ref[1]).all()


@given(dim=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_sandwich_report_matches_the_per_sample_loop(dim, seed):
    rng = np.random.default_rng(seed)
    f = generate("random_smooth", dim=dim, seed=seed, samples=8)
    subs = [random_subspace(rng, dim, int(rng.integers(0, dim + 1))) for _ in range(8)]
    r = rng.uniform(0.01, 2.0, 8)
    ru, rl = reference_inclusions(f, r, -r, subs)
    worst_upper = worst_lower = 0.0
    worst_sample = 0
    for x in range(8):
        if max(ru[x], rl[x]) > max(worst_upper, worst_lower):
            worst_sample = x
        worst_upper, worst_lower = max(worst_upper, ru[x]), max(worst_lower, rl[x])
    ok, report = is_spectral_section(f, subs, r)
    assert report == {"upper_residual": worst_upper, "lower_residual": worst_lower,
                      "worst_sample": worst_sample, "max_radius": r.max()}
    assert ok == (max(worst_upper, worst_lower) <= SECTION_RESIDUAL_TOL)


def test_window_inclusions_raise_the_upper_edge_first_at_a_sample():
    f = constant_family([-0.5, 0.5, 2.0])
    subs = [V.frame for V in make_weak_section(f, cut=0.0).subspaces]
    edge = np.full(f.n_samples, 1.0)
    hi, lo = edge.copy(), -edge
    hi[2], lo[1], lo[2] = 2.0, -0.5, -0.5
    with pytest.raises(SpectralBoundaryError, match="eigenvalue -0.5 sits at window endpoint -0.5"):
        window_inclusions(f.eigenvalues, f.frames, hi, lo, subs)
    lo[1] = -1.0
    with pytest.raises(SpectralBoundaryError, match="eigenvalue 2 sits at window endpoint 2"):
        window_inclusions(f.eigenvalues, f.frames, hi, lo, subs)


def reference_fixed_point_radius(f, subs, gap_tol):
    """The sample-by-sample search the rounds of _fixed_point_radius replace."""
    radius = np.zeros(f.n_samples)
    for x in range(f.n_samples):
        mids, clear = gap_midpoints(np.concatenate([[0.0], np.unique(f.abs_eigenvalues[x])]))
        for m in mids[(clear >= gap_tol) & (mids > 0.0)]:
            upper = window_subspace(f, x, m, np.inf)
            lower = window_subspace(f, x, -m, np.inf)
            if (inclusion_residual(upper, subs[x]) <= SECTION_RESIDUAL_TOL
                    and inclusion_residual(subs[x], lower) <= SECTION_RESIDUAL_TOL):
                radius[x] = m
                break
        else:
            return None
    return radius


def fixed_point_outcome(search, f, subs, gap_tol):
    try:
        return search(f, subs, gap_tol)
    except SpectralBoundaryError as exc:
        return str(exc)


@given(dim=st.integers(1, 5), seed=st.integers(0, 10_000),
       cut=st.sampled_from([-0.3, 0.0, 0.2]), tilt=st.sampled_from([0.0, 1e-9, 0.3]),
       gap_tol=st.sampled_from([0.0, DEFAULT_GAP_TOL, 0.05]), loop=st.booleans(),
       scale=st.sampled_from([1.0, 1e4]))
# four samples fail on their residuals at their first feasible candidate, and again
# at the next one, before they pass
@example(dim=3, seed=1, cut=-0.3, tilt=0.3, gap_tol=0.0, loop=True, scale=1.0)
def test_fixed_point_rounds_match_the_sequential_search(dim, seed, cut, tilt, gap_tol, loop,
                                                        scale):
    f = generate("random_smooth", dim=dim, seed=seed, samples=12, loop=loop)
    if scale != 1.0:  # edge tolerances of 1e-9 * |lam| ~ 1e-5 exceed the gap_tol choices
        f = OperatorFamily(grid=f.grid, dim=dim, operators=f.operator_stack * scale)
    subs = tilt_section(f, make_weak_section(f, cut * scale), tilt).subspaces
    got = fixed_point_outcome(_fixed_point_radius, f, subs, gap_tol)
    want = fixed_point_outcome(reference_fixed_point_radius, f, subs, gap_tol)
    if want is None or isinstance(want, str):
        assert got == want
    else:
        radius, *res = got
        assert np.array_equal(radius, want)
        # the residuals that accepted the radius are those of one pass at it
        full = window_inclusions(f.eigenvalues, f.frames, radius, -radius,
                                 [V.frame for V in subs])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(res, full))


# per case: the sample that runs out of candidates, the sample that meets an
# ambiguous edge (each a diagonal and the columns spanning its subspace), and
# the gap_tol
EARLIEST_CASES = {
    # one sample runs out after three rounds; the other meets an ambiguous
    # edge (|eigenvalues| 1 and 1 + 1e-10) in round two
    "unit": (([-2.0, -1.0, 0.5], slice(0, 1)), ([-(1.0 + 1e-10), 1.0, 3.0], slice(0, 1)), 0.0),
    # at |lam| up to 2e5 the edge tolerance 2e-4 exceeds gap_tol: the midpoint
    # of 1e4 and 1e4 + 3e-6 is a candidate, ambiguous, and rank-infeasible for
    # the top four columns (three eigenvalues above -m), so the search skips
    # it and checks its edge up front; the other sample's feasible candidates
    # 7e4 and 1.45e5 fail on their residuals until it runs out
    "large": (([-9e4, -5e4, 1e4, 3e4, 2e5], slice(0, 4)),
              ([-9e4, -5e4, 1e4, 1e4 + 3e-6, 2e5], slice(1, 5)), DEFAULT_GAP_TOL),
}


@pytest.mark.parametrize("hit_first", [False, True])
def test_fixed_point_earliest_sample_decides(monkeypatch, hit_first):
    rounds = []
    monkeypatch.setattr(sections, "window_inclusions",
                        lambda *args: rounds.append(args[2].tolist()) or window_inclusions(*args))
    grid = ParameterGrid(kind="interval_path", samples=np.array([0.0, 1.0]), closure="open_path")
    for case, (runs_out, ambiguous, gap_tol) in EARLIEST_CASES.items():
        pair = (ambiguous, runs_out) if hit_first else (runs_out, ambiguous)
        ops = tuple(np.diag(d).astype(np.complex128) for d, _ in pair)
        f = OperatorFamily(grid=grid, dim=len(ops[0]), operators=ops)
        subs = [Subspace(f.dim, f.frames[x][:, cols]) for x, (_, cols) in enumerate(pair)]
        want = fixed_point_outcome(reference_fixed_point_radius, f, subs, gap_tol)
        rounds.clear()
        assert fixed_point_outcome(_fixed_point_radius, f, subs, gap_tol) == want
        assert (want is not None and "sits at window endpoint" in want) == hit_first
        if case == "large":  # decided up front, or by the other sample's feasible candidates
            assert rounds == ([] if hit_first else [[7e4], [1.45e5]])


def test_fixed_point_tests_only_rank_feasible_candidates(monkeypatch):
    f = generate("random_smooth", dim=40, seed=1, samples=30)
    subs = make_weak_section(f, cut=0.3).subspaces
    rows = []

    def counted(lam, F, hi, lo, frames):
        rows.extend(zip((lam > hi[:, None]).sum(axis=1), [V.shape[1] for V in frames],
                        (lam > lo[:, None]).sum(axis=1)))
        return window_inclusions(lam, F, hi, lo, frames)

    monkeypatch.setattr(sections, "window_inclusions", counted)
    assert _fixed_point_radius(f, subs, DEFAULT_GAP_TOL) is not None
    assert len(rows) >= f.n_samples
    assert all(up <= k <= down for up, k, down in rows)


def test_sandwich_and_fixed_point_build_no_window_subspaces(request):
    f = sine_loop()
    flat = make_weak_section(f, cut=1.5)
    tilted = tilt_section(f, flat, angle=0.2)
    calls = request.getfixturevalue("window_builds")  # after the sections are made
    assert is_spectral_section(f, flat, 1.2)[0]
    assert not is_spectral_section(f, tilted, 1.2)[0]
    assert _fixed_point_radius(f, flat.subspaces, DEFAULT_GAP_TOL) is not None
    assert _fixed_point_radius(f, tilted.subspaces, DEFAULT_GAP_TOL) is None
    assert calls == []


# References: the one-sample radius search _aligned_radii replaces, over the
# sample's distinct |eigenvalues|, and the per-row np.unique candidate route.


def reference_aligned_radius(abs_vals, r0, clearance):
    """Smallest radius at least r0 keeping a safe distance from |spectrum|."""
    r0 = max(r0, clearance)
    vals = np.asarray(abs_vals, dtype=float)
    if vals.size == 0 or float(np.abs(vals - r0).min()) >= clearance:
        return r0
    mids, clear = gap_midpoints(np.concatenate(([0.0], vals)), floor=r0)
    mids = mids[clear >= clearance]
    return float(mids[0]) if mids.size else float(max(r0, float(vals[-1]) + 1.0))


# few distinct values, so rows repeat |lam| and r0 often lands on one of them
LEVELS = st.sampled_from([0.0, 1e-7, 0.1, 0.25, 0.25 + 1e-12, 0.5, 1.0, 2.0, 1e4])
ABS_TABLES = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(LEVELS | st.floats(0.0, 3.0), min_size=n, max_size=n).map(sorted),
    min_size=1, max_size=8).map(np.array))


@given(table=ABS_TABLES, data=st.data(),
       clearance=st.sampled_from([0.0, 1e-6, 0.05, 0.3]))
@example(table=np.array([[0.25, 0.25, 0.5]]), data=None, clearance=0.0)
def test_aligned_radii_match_the_per_row_search(table, data, clearance):
    if data is None:
        r0 = np.array([0.25])
    else:
        r0 = np.array(data.draw(st.lists(LEVELS | st.floats(0.0, 3.0), min_size=len(table),
                                         max_size=len(table))))
    want = [reference_aligned_radius(np.unique(row), float(r), clearance)
            for row, r in zip(table, r0)]
    got = sections._aligned_radii(table, r0, clearance)
    assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


@given(table=ABS_TABLES, gap_tol=st.sampled_from([0.0, 1e-6, 0.05]))
@example(table=np.array([[0.0, 0.0, 0.3, 0.3]]), gap_tol=0.0)
def test_fixed_point_candidates_match_the_per_row_unique_route(table, gap_tol):
    ok, mids = sections._gap_candidates(table, gap_tol)
    for row, keep, m in zip(table, ok, mids):
        want, clear = gap_midpoints(np.concatenate([[0.0], np.unique(row)]))
        assert m[keep].tobytes() == want[(clear >= gap_tol) & (want > 0.0)].tobytes()


@pytest.mark.parametrize("make", [
    lambda: generate("rotation", m=2, samples=40),
    lambda: generate("random_smooth", dim=3, seed=4, samples=60, loop=True),
    lambda: generate("random_smooth", dim=5, seed=2, samples=60, loop=True),
], ids=["rotation", "random-3", "random-5"])
def test_existence_witness_radius_is_the_per_sample_search(make):
    f = make()
    ex = section_existence(f)
    assert ex.exists
    split = int(np.searchsorted(f.eigenvalues[0], 0.0, side="left"))
    want = []
    for lam in f.eigenvalues:
        r0 = 0.0
        if split > 0:
            r0 = max(r0, float(lam[split - 1]))
        if split < f.dim:
            r0 = max(r0, -float(lam[split]))
        want.append(reference_aligned_radius(np.unique(np.abs(lam)), max(r0, DEFAULT_GAP_TOL),
                                             DEFAULT_GAP_TOL))
    assert ex.radius.tobytes() == np.array(want).tobytes()


# ------------------------------------------------- deformation: fixed points


def test_deform_returns_spectral_input_unchanged():
    f = generate("constant")
    S = make_weak_section(f, cut=0.0)
    res = deform_to_spectral_section(f, S)
    assert res.report["fixed_point"] is True
    assert res.nu == () and res.nu_perp == ()
    assert res.pou is None
    np.testing.assert_allclose(res.radius, 0.5)
    np.testing.assert_allclose(res.mu, -0.5)
    np.testing.assert_allclose(res.mu_perp, 0.5)
    assert all(res.sections[x] is S.subspaces[x] for x in range(f.n_samples))
    assert res.homotopy(3, 0.7) is S.subspaces[3]
    with pytest.raises(ValidationError, match="outside"):
        res.homotopy(0, 1.5)


@pytest.mark.parametrize("name, params, cut", [
    ("constant", {}, 0.0),
    ("truncated_shift_flow", {}, 0.5),
    ("random_smooth", {"dim": 4, "seed": 2, "samples": 40, "loop": True}, 0.1),
])
def test_fixed_point_report_is_the_sandwich_report_at_its_radius(monkeypatch, name, params, cut):
    f = generate(name, **params)
    S = tilt_section(f, make_weak_section(f, cut), 1e-9)  # residuals of about 1e-9
    passes = []
    monkeypatch.setattr(sections, "window_inclusions",
                        lambda *args: passes.append(args[2]) or window_inclusions(*args))
    res = deform_to_spectral_section(f, S)
    assert res.report.pop("fixed_point") is True
    assert sum(len(r) for r in passes) == f.n_samples  # no second sandwich pass
    assert res.report == is_spectral_section(f, S, res.radius)[1]
    assert res.report["upper_residual"] > 0.0 or res.report["lower_residual"] > 0.0


def test_deform_fixed_point_shift_flow_window():
    f = generate("truncated_shift_flow")
    S = make_weak_section(f, cut=0.5)
    res = deform_to_spectral_section(f, S)
    assert res.report["fixed_point"] is True
    for x in range(f.n_samples):
        assert subspace_distance(res.sections[x], S.subspaces[x]) < 1e-8
    assert res.radius[0] == pytest.approx(0.5)
    assert res.radius[50] == pytest.approx(0.2475)
    ok, _ = is_spectral_section(f, res.sections, res.radius)
    assert ok


def test_deform_rejects_jumping_section():
    f = constant_family([-1.0, 1.0], samples=4)
    subs = (span([0, 1]), span([0, 1]), span([1, 0]), span([1, 0]))
    S = WeakSpectralSection(subspaces=subs, reference_cut=0.0)
    with pytest.raises(ValidationError, match="not a weak section"):
        deform_to_spectral_section(f, S)


def test_deform_rejects_sample_mismatch():
    f = constant_family([-1.0, 1.0], samples=4)
    S = WeakSpectralSection(subspaces=(span([0, 1]),) * 2, reference_cut=0.0)
    with pytest.raises(ValidationError, match="subspaces for"):
        deform_to_spectral_section(f, S)


def test_deform_discrete_precheck_failure():
    f = constant_family([1.0 + 1.5e-6, 1.0 - 1.5e-6], samples=2)
    S = tilt_section(f, make_weak_section(f, cut=1.0), angle=0.3)
    with pytest.raises(ValidationError, match="discrete-spectrum precheck"):
        deform_to_spectral_section(f, S)


def test_deform_rejects_bad_atlas():
    f = sine_loop()
    S = tilt_section(f, make_weak_section(f, cut=1.5), angle=0.2)
    not_adapted = Atlas(charts=(AdaptedChart(0, 39, 0.5),))
    with pytest.raises(ValidationError, match="atlas rejected"):
        deform_to_spectral_section(f, S, atlas=not_adapted)
    partial = Atlas(charts=(AdaptedChart(0, 10, 1.5),))
    with pytest.raises(ValidationError, match="covers samples"):
        deform_to_spectral_section(f, S, atlas=partial)


# --------------------------------------------------- deformation: full path


def test_deform_sine_loop_tilted_section():
    f = sine_loop()
    S = tilt_section(f, make_weak_section(f, cut=1.5), angle=0.2)
    res = deform_to_spectral_section(f, S)
    target = span([0, 1])
    for x in range(f.n_samples):
        assert res.sections[x].dim == 1
        assert subspace_distance(res.sections[x], target) < 1e-9
    ok, _ = is_spectral_section(f, res.sections, res.radius)
    assert ok
    ok_fixed, _ = is_spectral_section(f, res.sections, 1.2)
    assert ok_fixed
    np.testing.assert_allclose(res.radius, 1.75, atol=1e-9)
    assert res.mu_perp[0] == pytest.approx(1.75)
    assert len(res.nu) == res.pou.n_charts
    assert all(v < 0 for v in res.nu)
    assert len(res.intermediate) == f.n_samples


def test_deform_homotopy_endpoints_and_dims():
    f = sine_loop()
    S = tilt_section(f, make_weak_section(f, cut=1.5), angle=0.2)
    res = deform_to_spectral_section(f, S)
    for x in (0, 7, 20, 39):
        assert subspace_distance(res.homotopy(x, 0.0), S.subspaces[x]) < 1e-9
        assert subspace_distance(res.homotopy(x, 1.0), res.sections[x]) < 1e-9
        for s in (0.25, 0.5, 0.75):
            assert res.homotopy(x, s).dim == 1
    with pytest.raises(ValidationError, match="outside"):
        res.homotopy(0, -0.1)


def test_deform_control_envelopes():
    """The combined level functions stay on the safe side of every active level.

    Pass one must place the section above the lower envelope, pass two must
    cap the complement below the upper one; both reduce to envelope-versus-
    level inequalities at each sample.
    """
    f = sine_loop()
    S = tilt_section(f, make_weak_section(f, cut=1.5), angle=0.2)
    res = deform_to_spectral_section(f, S)
    for x in range(f.n_samples):
        active = res.pou.active_charts(x)
        assert res.mu[x] <= min(res.nu[i] for i in active) + 1e-12
        assert res.mu_perp[x] >= max(res.nu_perp[i] for i in active) - 1e-12
        L = res.intermediate[x]
        assert inclusion_residual(L, window_subspace(f, x, res.mu[x], np.inf)) < 1e-8
        upper = window_subspace(f, x, res.mu_perp[x] + 1e-9, np.inf)
        assert inclusion_residual(upper, res.sections[x]) < 1e-8


def test_deform_random_loop_smoke():
    f = generate("random_smooth", dim=5, seed=11, samples=80, loop=True)
    levels = default_level_grid(f, count=4)

    def clearance(c):
        return min(
            float(np.abs(f.eigen(x).eigenvalues - c).min()) for x in range(f.n_samples)
        )

    cut = max(levels, key=clearance)
    S = tilt_section(f, make_weak_section(f, cut), angle=0.15)
    res = deform_to_spectral_section(f, S)
    ok, report = is_spectral_section(f, res.sections, res.radius)
    assert ok, report
    for x in range(f.n_samples):
        assert res.sections[x].dim == S.subspaces[x].dim
    for x in (0, 40, 79):
        assert subspace_distance(res.homotopy(x, 0.0), S.subspaces[x]) < 1e-9
        assert subspace_distance(res.homotopy(x, 1.0), res.sections[x]) < 1e-9


def reference_pass(f, pou, levels, inputs, upper):
    """The per-sample route the deformation passes replaced: window_subspace
    chains over the active charts ordered by level, the weighted sum of
    their projectors, then orthonormal_image. Returns frames and M K."""
    frames, products = [], []
    for x in range(f.n_samples):
        order = sorted(pou.active_charts(x), key=lambda i: (levels[i] if upper else -levels[i], i))
        chain = [window_subspace(f, x, *((levels[i], np.inf) if upper else (-np.inf, levels[i])))
                 for i in order]
        M = sum(pou.weights[i, x] * H.projector() for i, H in zip(order, chain))
        products.append(M @ inputs[x].frame)
        frames.append(orthonormal_image(products[-1], expect_dim=inputs[x].dim))
    return frames, products


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make, cut, angle, max_chart_len", [
    (sine_loop, 1.5, 0.2, 5),
    (sine_loop, 1.5, 0.2, 10),
    (lambda: generate("random_smooth", dim=5, seed=2, samples=60, loop=True), None, 0.15, 8),
    (lambda: generate("random_smooth", dim=5, seed=2, samples=60), None, 0.15, 8),
], ids=["sine-5", "sine-10", "random-loop-8", "random-path-8"])
def test_deformation_passes_are_bitwise_the_per_sample_route(make, cut, angle, max_chart_len):
    f = make()
    if cut is None:
        cut = max(default_level_grid(f), key=lambda c: float(np.abs(f.eigenvalues - c).min()))
    S = tilt_section(f, make_weak_section(f, cut), angle)
    res = deform_to_spectral_section(f, S, max_chart_len=max_chart_len)
    assert res.pou.n_charts > 1
    first, mk1 = reference_pass(f, res.pou, res.nu, S.subspaces, upper=True)
    assert all(_same_bits(L.frame, F) for L, F in zip(res.intermediate, first))
    comps = [orthogonal_complement(L) for L in res.intermediate]
    images, mk2 = reference_pass(f, res.pou, res.nu_perp, comps, upper=False)
    final = [orthogonal_complement(Subspace(f.dim, F)) for F in images]
    assert all(_same_bits(M.frame, R.frame) for M, R in zip(res.sections, final))
    radius = [reference_aligned_radius(np.unique(row), max(abs(a), abs(b)), DEFAULT_GAP_TOL)
              for row, a, b in zip(f.abs_eigenvalues, res.mu, res.mu_perp)]
    assert _same_bits(res.radius, np.array(radius))
    for x in range(0, f.n_samples, 3):
        for s in (0.3, 0.8):
            K, MK = (S.subspaces[x], mk1[x]) if s <= 0.5 else (comps[x], mk2[x])
            u = 2.0 * s if s <= 0.5 else 2.0 * s - 1.0
            want = Subspace(f.dim, orthonormal_image((1.0 - u) * K.frame + u * MK, expect_dim=K.dim))
            if s > 0.5:
                want = orthogonal_complement(want)
            assert _same_bits(res.homotopy(x, s).frame, want.frame)


def test_homotopy_call_makes_at_most_three_svds(monkeypatch):
    f = sine_loop()
    S = tilt_section(f, make_weak_section(f, cut=1.5), angle=0.2)
    res = deform_to_spectral_section(f, S, max_chart_len=10)
    overlap = [x for x in range(f.n_samples) if len(res.pou.active_charts(x)) > 1]
    assert overlap
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for x in overlap:
        for s, most in ((0.25, 2), (0.5, 2), (0.75, 3), (1.0, 3)):
            calls.clear()
            res.homotopy(x, s)
            assert len(calls) <= most


# ------------------------------------------------------------- existence


def test_existence_rotation_loop():
    f = generate("rotation")
    ex = section_existence(f)
    assert ex.exists and ex.flow == 0 and ex.obstruction == 0
    ok, _ = is_spectral_section(f, ex.sections, ex.radius)
    assert ok
    assert "witness" in ex.note


# random loops of dims 2-6 at 30 and 80 samples, three seeds each, three
# loops whose edges do not separate, and rotation m = 0..3
EXISTENCE_LOOPS = [
    *(lambda d=d, n=n, s=s: generate("random_smooth", dim=d, seed=s, samples=n, loop=True)
      for d in range(2, 7) for n in (30, 80) for s in (0, 5, 10)),
    *(lambda d=d, s=s: generate("random_smooth", dim=d, seed=s, samples=30, loop=True)
      for d, s in ((3, 7), (6, 11), (7, 9))),
    *(lambda m=m: generate("rotation", m=m) for m in range(4)),
]


@pytest.mark.parametrize("max_chart_len", [40, 10])
def test_existence_glues_where_the_deformation_fixes_the_witness(max_chart_len):
    """Where the witness's edges separate, the note names the gluing, and
    the deformation run on the witness at that cut returns it as its fixed
    point; the note then has the bytes the deformation used to decide."""
    glued = unglued = 0
    for make in EXISTENCE_LOOPS:
        f = make()
        try:
            ex = section_existence(f, max_chart_len=max_chart_len)
        except ModelViolationError as exc:
            # a crossing between samples can trip the chartwise count before any
            # witness is built (random_smooth dim 4, seed 5, 80 samples)
            assert "below-zero count drops" in str(exc)
            continue
        if not ex.exists:
            continue
        lam = f.eigenvalues
        split = int(np.searchsorted(lam[0], 0.0, side="left"))
        assert 0 < split < f.dim
        upper, lower = float(lam[:, split].min()), float(lam[:, split - 1].max())
        cut = 0.5 * (upper + lower)
        separated = upper - lower > 2 * DEFAULT_GAP_TOL
        assert ("glued" in ex.note) == separated
        if not separated:
            unglued += 1
            continue
        glued += 1
        assert ex.note == f"witness from sorted branches; glued through the deformation at cut {cut:.6g}"
        res = deform_to_spectral_section(f, WeakSpectralSection(ex.sections, cut),
                                         max_chart_len=max_chart_len)
        assert res.report.get("fixed_point") is True
        assert all(a is b for a, b in zip(res.sections, ex.sections))
    assert glued >= 30 and unglued >= 2


def test_existence_witness_frames_are_the_plane_columns():
    f = generate("random_smooth", dim=4, seed=5, samples=30, loop=True)
    ex = section_existence(f)
    split = int(np.searchsorted(f.eigenvalues[0], 0.0, side="left"))
    for V, F in zip(ex.sections, f.frames):
        assert V.ambient_dim == f.dim and V.frame.dtype == np.complex128
        assert np.shares_memory(V.frame, F) and np.array_equal(V.frame, F[:, split:])
        assert Subspace(f.dim, V.frame).dim == V.dim


def test_existence_obstruction_shift_flow():
    f = generate("truncated_shift_flow")
    ex = section_existence(f)
    assert not ex.exists
    assert ex.flow == 1 and ex.obstruction == 1
    assert ex.sections == () and ex.radius is None
    assert "obstruction" in ex.note


def test_existence_constant_loop_witness():
    t = np.linspace(0.0, 1.0, 30)
    grid = ParameterGrid(kind="circle_loop", samples=t, closure="exact_loop")
    A = np.diag([-1.0, 1.0, 2.0]).astype(np.complex128)
    f = OperatorFamily(grid=grid, dim=3, operators=(A,) * 30)
    ex = section_existence(f)
    assert ex.exists
    for x in range(f.n_samples):
        ref = window_subspace(f, x, 0.0, np.inf)
        assert subspace_distance(ex.sections[x], ref) < 1e-12
    assert np.all(ex.radius > 0)


def test_existence_rejects_open_path():
    with pytest.raises(ValidationError, match="loop"):
        section_existence(generate("crossing"))
