"""Squash profile, radius function, finite polarized replacement, flow survival."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
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
    chi,
    finite_polarized_replace,
    flow_preservation_check,
    generate,
    partition_of_unity,
    radius_function,
    strictly_adapted_check,
    subspace_distance,
    window_subspace,
)
from bandflow.atlas import _radius_candidates
from bandflow.linalg import RECON_TOL, hermitian_eig_stack
from bandflow.polarize import BAND_IDENTITY_TOL


def constant_family(diagonal, samples=3):
    return diagonal_family([diagonal] * samples)


def diagonal_family(diagonals):
    t = np.linspace(0.0, 1.0, len(diagonals))
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    ops = tuple(np.diag(np.asarray(d, dtype=np.complex128)) for d in diagonals)
    return OperatorFamily(grid=grid, dim=len(diagonals[0]), operators=ops)


# ------------------------------------------------------------ squash profile


def test_chi_piecewise_values():
    assert chi(0.2, 0.5) == 0.2
    assert abs(chi(0.3, 0.5) - 0.4) <= 1e-12
    assert chi(-0.8, 0.5) == -1.0
    out = chi(np.array([-0.8, 0.2, 0.3]), 0.5)
    np.testing.assert_allclose(out, [-1.0, 0.2, 0.4], atol=1e-12)


def test_chi_knots_exact(rng):
    for r in rng.uniform(0.01, 1.0, 50):
        r = float(r)
        assert chi(r / 2.0, r) == r / 2.0
        assert chi(r, r) == 1.0
        assert chi(-r, r) == -1.0


def test_chi_unit_radius_is_identity():
    u = np.linspace(-1.0, 1.0, 41)
    # the affine clause evaluates (u + 1) - 1, exact only to one ulp
    np.testing.assert_allclose(chi(u, 1.0), u, rtol=0, atol=1e-15)
    half = u[np.abs(u) <= 0.5]
    np.testing.assert_array_equal(chi(half, 1.0), half)
    assert chi(1.7, 1.0) == 1.0
    assert chi(-2.3, 1.0) == -1.0


@given(
    u=st.floats(-3.0, 3.0, allow_nan=False),
    r=st.floats(0.01, 1.0, allow_nan=False),
)
def test_chi_odd_bounded_identity_zone(u, r):
    v = chi(u, r)
    assert chi(-u, r) == -v
    assert abs(v) <= 1.0
    if abs(u) <= r / 2.0:
        assert v == u


@given(
    pair=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    r=st.floats(0.01, 1.0),
)
def test_chi_monotone(pair, r):
    lo, hi = sorted(pair)
    assert chi(lo, r) <= chi(hi, r) + 1e-15


def test_chi_radius_validation():
    for r in (0.0, -0.3, 1.2):
        with pytest.raises(ValidationError, match="radius"):
            chi(0.1, r)


# ------------------------------------------------------------ radius function


def test_radius_single_chart_constant():
    atlas = Atlas(charts=(AdaptedChart(0, 5, 0.3),))
    pou = partition_of_unity(atlas, 6)
    np.testing.assert_allclose(radius_function(atlas, pou), 0.3)


def test_radius_overlap_average():
    atlas = Atlas(charts=(AdaptedChart(0, 2, 0.2), AdaptedChart(2, 4, 0.4)))
    pou = partition_of_unity(atlas, 5)
    r = radius_function(atlas, pou)
    np.testing.assert_allclose(r, [0.2, 0.2, 0.3, 0.4, 0.4])


def test_radius_validation():
    big = Atlas(charts=(AdaptedChart(0, 5, 1.2),))
    pou = partition_of_unity(big, 6)
    with pytest.raises(ValidationError, match="normalize"):
        radius_function(big, pou)
    two = Atlas(charts=(AdaptedChart(0, 2, 0.2), AdaptedChart(2, 4, 0.4)))
    with pytest.raises(ValidationError, match="chart count"):
        radius_function(two, pou)


def reference_radius_bounds(atlas, pou, r):
    """The per-sample bound check radius_function replaces."""
    eps = [c.eps for c in atlas.charts]
    for x in range(r.size):
        lo = min(eps[i] for i in pou.active_charts(x))
        if r[x] < lo - 1e-12 or not 0.0 < r[x] < 1.0:
            raise ValidationError(f"squash radius {r[x]:.6g} at sample {x} escapes its bounds")


def test_radius_bound_failure_names_the_first_sample():
    atlas = Atlas(charts=(AdaptedChart(0, 3, 0.2), AdaptedChart(2, 5, 0.4)))
    pou = partition_of_unity(atlas, 6)
    assert reference_radius_bounds(atlas, pou, radius_function(atlas, pou)) is None
    # tents that no longer sum to one put samples 4 and 2 below their smallest
    # active radius, after validation
    pou.weights[:, 4] = [0.0, 0.5]
    pou.weights[:, 2] = [0.5, 0.1]
    with pytest.raises(ValidationError) as old:
        reference_radius_bounds(atlas, pou, pou.weights.T @ np.array([0.2, 0.4]))
    with pytest.raises(ValidationError) as new:
        radius_function(atlas, pou)
    assert str(new.value) == str(old.value)
    assert "at sample 2 " in str(new.value)


def test_radius_dominates_smallest_active_eps():
    rep = finite_polarized_replace(generate("random_smooth", dim=4, seed=5))
    eps = [c.eps for c in rep.atlas.charts]
    for x in range(rep.family.n_samples):
        active = rep.pou.active_charts(x)
        assert rep.radius[x] >= min(eps[i] for i in active) - 1e-12
        assert 0.0 < rep.radius[x] < 1.0


# ------------------------------------------------------- replacement families


def test_replace_squashes_outer_spectrum():
    f = constant_family([-2.0, 0.05, 2.0])
    rep = finite_polarized_replace(f)
    assert rep.scale == pytest.approx(2.0)
    for x in range(f.n_samples):
        lam = rep.family.eigen(x).eigenvalues
        np.testing.assert_allclose(lam, [-1.0, 0.025, 1.0], atol=1e-12)
    assert rep.family.polarized_bands == (1, 1)


def test_replace_matches_profile_eigenvalue_by_eigenvalue():
    for f in (generate("crossing"), generate("random_smooth", dim=5, seed=2)):
        rep = finite_polarized_replace(f)
        g = rep.scaled_input
        for x in range(f.n_samples):
            expected = np.sort(chi(g.eigen(x).eigenvalues, float(rep.radius[x])))
            got = rep.family.eigen(x).eigenvalues
            np.testing.assert_allclose(got, expected, atol=1e-9)
        assert rep.family.spectral_radius() == pytest.approx(1.0, abs=1e-12)


def test_replace_fixes_already_polarized_family():
    f = generate("polarized_crossing")
    rep = finite_polarized_replace(f)
    assert rep.scale == pytest.approx(1.0)
    worst = max(
        float(np.abs(rep.family.operators[x] - f.operators[x]).max())
        for x in range(f.n_samples)
    )
    assert worst <= 1e-12
    again = finite_polarized_replace(rep.family)
    worst2 = max(
        float(np.abs(again.family.operators[x] - rep.family.operators[x]).max())
        for x in range(f.n_samples)
    )
    assert worst2 <= 1e-9


def test_replace_shift_flow_family():
    f = generate("truncated_shift_flow")
    rep = finite_polarized_replace(f)
    assert rep.scale == pytest.approx(4.005)
    assert rep.family.grid.closure == "shifted_loop"
    assert rep.family.polarized_bands == (0, 1)
    # the seam carries one squash radius, split between the end charts
    assert rep.radius[0] == pytest.approx(rep.radius[-1])
    assert 0.4 < rep.radius[0] < 0.55
    assert rep.band_report["worst_residual"] <= rep.band_report["tolerance"]
    assert rep.band_report["samples_checked"] == f.n_samples


def test_replace_validation():
    t = np.linspace(0.0, 1.0, 3)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    B = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    skew = OperatorFamily(grid=grid, dim=2, operators=(B,) * 3, hermitian=False)
    with pytest.raises(ValidationError, match="Hermitian"):
        finite_polarized_replace(skew)
    with pytest.raises(ValidationError, match="no spectrum"):
        finite_polarized_replace(constant_family([0.0, 0.0]))


def test_replace_with_supplied_atlas_and_partition():
    f = generate("crossing")
    rep = finite_polarized_replace(f)
    rep2 = finite_polarized_replace(f, atlas=rep.atlas, pou=rep.pou)
    np.testing.assert_allclose(rep2.radius, rep.radius)
    for x in range(f.n_samples):
        np.testing.assert_allclose(
            rep2.family.operators[x], rep.family.operators[x], atol=1e-14
        )


def test_replace_rejects_misfit_atlas():
    f = generate("crossing")
    on_edge = Atlas(charts=(AdaptedChart(0, 100, 0.25),))
    with pytest.raises(AtlasBuildError, match="rejected its own atlas"):
        finite_polarized_replace(f, atlas=on_edge)
    unscaled = Atlas(charts=(AdaptedChart(0, 100, 1.25),))
    with pytest.raises(ValidationError, match="normalize"):
        finite_polarized_replace(f, atlas=unscaled)


# --------------------------------------------------------------- band identity


def _resolved(fam):
    """The same operators as a fresh family, whose plane comes from its own eigh."""
    return OperatorFamily(grid=fam.grid, dim=fam.dim, operators=fam.operator_stack)


def test_band_identity_report():
    rep = finite_polarized_replace(generate("crossing"))
    report = band_identity_check(rep.scaled_input, rep.family, rep.radius)
    assert report == rep.band_report
    assert report["samples_checked"] == rep.family.n_samples
    # the spectator saturates at 1, so the bound is RECON_TOL * (1 + 1)
    assert report["tolerance"] == 2.0 * RECON_TOL
    assert report["worst_residual"] <= report["tolerance"]
    assert 0 <= report["worst_sample"] < rep.family.n_samples


def test_band_identity_detects_mismatch():
    g = constant_family([-1.0, 0.025, 1.0])
    wrong = constant_family([-1.0, -0.025, 1.0])
    with pytest.raises(ModelViolationError, match="band identity fails at sample 0:"):
        band_identity_check(g, wrong, np.full(3, 0.5))


def _band_identity_loop(g, replaced, radius, gap_tol=1e-6):
    """Window-by-window band identity, the reference for the residual check.

    For every sample and every admissible level under half the squash
    radius, the (level, inf) windows of the two families must agree within
    BAND_IDENTITY_TOL.
    """
    worst, checked, skipped = 0.0, 0, 0
    for x in range(g.n_samples):
        cap = float(radius[x]) / 2.0 - gap_tol
        levels = [] if cap <= gap_tol else [
            eps for eps, _clear, _rank in _radius_candidates(g, x, x, gap_tol, eps_cap=cap)]
        skipped += not levels
        for eps in levels:
            d = subspace_distance(window_subspace(g, x, eps, np.inf),
                                  window_subspace(replaced, x, eps, np.inf))
            worst = max(worst, d)
            checked += 1
            if d > BAND_IDENTITY_TOL:
                raise ValidationError(
                    f"band identity fails at sample {x}, level {eps:.6g}: "
                    f"distance {d:.3e}"
                )
    return {"worst_distance": worst, "levels_checked": checked,
            "samples_skipped": skipped}


def _assert_band_identity_on_resolved_operators(rep):
    """Re-solve the written operators: their eigenvalues are the closed-form
    table within the residual rule, and every window the reference compares
    agrees with the re-solved input's."""
    g = rep.scaled_input
    expected = chi(g.eigenvalues, rep.radius[:, None])
    lam, _ = hermitian_eig_stack(rep.family.operator_stack)
    tol = RECON_TOL * (1.0 + np.abs(expected).max(axis=1))
    assert (np.abs(lam - expected).max(axis=1) <= tol).all()
    reference = _band_identity_loop(_resolved(g), _resolved(rep.family), rep.radius)
    assert reference["worst_distance"] <= BAND_IDENTITY_TOL
    return reference


@pytest.mark.parametrize("name,params", [
    ("crossing", {}),
    ("rotation", {}),
    ("truncated_shift_flow", {}),
    ("polarized_crossing", {}),
    ("random_smooth", {"dim": 4, "samples": 80, "seed": 2}),
    ("random_smooth", {"dim": 7, "samples": 60, "seed": 5}),
])
def test_band_identity_matches_per_sample_loop(name, params):
    rep = finite_polarized_replace(generate(name, **params))
    assert rep.band_report["worst_residual"] <= rep.band_report["tolerance"]
    assert _assert_band_identity_on_resolved_operators(rep)["levels_checked"] > 0


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.builds(lambda dim, seed, loop, samples: ("random_smooth", {
            "dim": dim, "seed": seed, "loop": loop, "samples": samples}),
            st.integers(2, 8), st.integers(0, 10_000), st.booleans(), st.integers(20, 60)),
        st.builds(lambda k, m_minus, m_plus, samples: ("polarized_crossing", {
            "k": k, "m_minus": m_minus, "m_plus": m_plus, "samples": samples}),
            st.sampled_from([-2, -1, 1, 2]), st.integers(1, 3), st.integers(1, 3),
            st.integers(5, 60)),
        st.builds(lambda k, m, samples: ("crossing", {"k": k, "m": m, "samples": samples}),
                  st.sampled_from([-2, -1, 1, 2]), st.integers(0, 3), st.integers(6, 60)),
    )
)
def test_closed_form_planes_hold_on_resolved_operators(case):
    name, params = case
    f = generate(name, **params)
    try:
        rep = finite_polarized_replace(f)
    except AtlasBuildError:
        reject()
    # the closed-form planes are the ones the families carry
    np.testing.assert_array_equal(rep.scaled_input.frames, f.frames)
    np.testing.assert_array_equal(rep.family.frames, f.frames)
    np.testing.assert_array_equal(rep.family.eigenvalues,
                                  chi(rep.scaled_input.eigenvalues, rep.radius[:, None]))
    _assert_band_identity_on_resolved_operators(rep)


@pytest.mark.parametrize("x", [0, 17, 79])
def test_band_identity_names_a_corrupted_sample(x):
    rep = finite_polarized_replace(generate("random_smooth", dim=4, samples=80, seed=2))
    stack = rep.family.operator_stack.copy()
    stack[x, 0, 1] += 1e-7
    stack[x, 1, 0] += 1e-7
    corrupted = OperatorFamily(grid=rep.family.grid, dim=rep.family.dim, operators=stack)
    with pytest.raises(ModelViolationError, match=f"band identity fails at sample {x}:"):
        band_identity_check(rep.scaled_input, corrupted, rep.radius)


# Sample 2 moves an eigenvalue across the level 0.0125 (a distance of 1);
# sample 4 puts one on that level, where the window edge is ambiguous.
MOVED = [-1.0, -0.025, 1.0]
ON_LEVEL = [-1.0, 0.0125, 1.0]


@pytest.mark.parametrize("at2,at4,error", [
    (MOVED, ON_LEVEL, ValidationError),
    (ON_LEVEL, MOVED, SpectralBoundaryError),
    (ON_LEVEL, ON_LEVEL, SpectralBoundaryError),
])
def test_band_identity_raises_at_first_failing_pair(at2, at4, error):
    base = [-1.0, 0.025, 1.0]
    g = constant_family(base, samples=6)
    replaced = diagonal_family([base, base, at2, base, at4, base])
    radius = np.full(6, 0.5)
    # the window-by-window reference stops at sample 2 with its own error ...
    with pytest.raises(error):
        _band_identity_loop(g, replaced, radius)
    # ... and the residual check names the same sample
    with pytest.raises(ModelViolationError, match="band identity fails at sample 2:"):
        band_identity_check(g, replaced, radius)


# ------------------------------------------------------------ flow preservation


@pytest.mark.parametrize(
    "name,expected",
    [("crossing", 1), ("rotation", 0), ("truncated_shift_flow", 1)],
)
def test_flow_survives_replacement(name, expected):
    f = generate(name)
    rep = finite_polarized_replace(f)
    equal, report = flow_preservation_check(f, rep)
    assert equal
    assert report["flow_input"] == expected
    assert report["flow_replacement"] == expected
    assert report["flow_oracle_unscaled"] == expected
    assert report["shared_charts"] >= 1


def test_replacement_no_rougher_than_input():
    """Upper-subspace continuity on a deep shared atlas survives the squash.

    Below half the squash radius the replacement acts as the identity, so
    chart by chart the band-subspace steps of the replacement can exceed the
    input's only by rounding.
    """
    rep = finite_polarized_replace(generate("crossing"))
    cap = float(rep.radius.min()) / 2.0 - 1e-6
    shared = build_atlas(rep.scaled_input, eps_cap=cap)
    for chart in shared.charts:
        rin, _ = strictly_adapted_check(rep.scaled_input, chart)
        rout, _ = strictly_adapted_check(rep.family, chart)
        assert rout.max_band_subspace_step <= rin.max_band_subspace_step + 1e-9
