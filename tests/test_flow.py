"""Enhanced operators, index chains, the three flow routes, stabilization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bandflow import (
    BoundaryZeroError,
    BranchResolutionError,
    OperatorFamily,
    ParameterGrid,
    PolarizedBand,
    SpectralBoundaryError,
    Subspace,
    ValidationError,
    atiyah_stabilize,
    build_atlas,
    check_atlas,
    enhanced_check,
    fredholm_pair,
    generate,
    index_chain,
    polarized_triple,
    spectral_flow_chartwise,
    spectral_flow_endpoints,
    spectral_flow_oracle,
    spectral_flow_routes,
    spectral_projection,
    subspace_distance,
    window_subspace,
)
from bandflow import Atlas, AdaptedChart
import bandflow.flow
from bandflow.flow import _refined_eigenvalue_table, net_up_crossings
from bandflow.linalg import hermitian_eig

from conftest import random_complex


def diag_path(*diagonals, t=None):
    if t is None:
        t = np.linspace(0.0, 1.0, len(diagonals))
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    ops = tuple(np.diag(d).astype(np.complex128) for d in diagonals)
    return OperatorFamily(grid=grid, dim=len(diagonals[0]), operators=ops)


def span(*cols):
    F = np.column_stack([np.asarray(c, dtype=np.complex128) for c in cols])
    Q, _ = np.linalg.qr(F)
    return Subspace(F.shape[0], Q[:, : F.shape[1]])


# ---------------------------------------------------------------- enhanced ops


def test_enhanced_check_band():
    A = np.diag([-2.0, 0.5, 3.0])
    enh = enhanced_check(A, eps=1.0)
    assert enh.interior_rank == 1
    assert subspace_distance(enh.band, span([0, 1, 0])) < 1e-12
    assert enh.eps == 1.0


@pytest.mark.parametrize("gap_tol", [-1.0, np.nan, np.inf])
def test_bad_gap_tol_is_rejected(gap_tol):
    # a negative clearance let a radius of 1.5 pass the frozen-band guard 1.5 < 1 - gap_tol
    with pytest.raises(ValidationError, match="gap tolerance must be finite and nonnegative"):
        enhanced_check(np.diag([0.2, 1.0]), 1.5, declared_bands=(0, 1), gap_tol=gap_tol)
    with pytest.raises(ValidationError, match="gap tolerance"):
        polarized_triple(np.diag([0.2, 1.0]), 0.5, gap_tol=gap_tol)
    f = generate("crossing", samples=21)
    with pytest.raises(ValidationError, match="gap tolerance"):
        build_atlas(f, gap_tol=gap_tol)
    with pytest.raises(ValidationError, match="gap tolerance"):
        check_atlas(f, build_atlas(f), gap_tol)


def test_enhanced_check_full_band():
    enh = enhanced_check(np.diag([-2.0, 0.5, 3.0]), eps=10.0)
    assert enh.interior_rank == 3


def test_enhanced_check_rejects_level_on_edge():
    with pytest.raises(SpectralBoundaryError):
        enhanced_check(np.diag([-2.0, 0.5, 3.0]), eps=0.5)


def test_enhanced_check_rejects_bad_radius():
    with pytest.raises(ValidationError):
        enhanced_check(np.eye(2), eps=0.0)


def test_enhanced_check_frozen_band_window():
    A = np.diag([-1.0, 0.2, 1.0])
    enh = enhanced_check(A, eps=0.9, declared_bands=(1, 1))
    assert enh.interior_rank == 1
    with pytest.raises(ValidationError, match="collides"):
        enhanced_check(A, eps=1.0 - 1e-7, declared_bands=(1, 1))


def test_enhanced_check_guards_frozen_vector_capture():
    # a loosened gap_tol lets a nearly-frozen eigenvalue come within 4e-10 of
    # the band edge, but the relative edge rule still refuses it, before the
    # frozen-vector guard is reached
    A = np.diag([1.0 - 5e-10])
    with pytest.raises(SpectralBoundaryError, match="window endpoint"):
        enhanced_check(A, eps=1.0 - 1e-10, declared_bands=(0, 1), gap_tol=1e-12)


def test_enhanced_check_applies_the_window_edge_rule():
    # 3e-6 clears the absolute gap_tol of 1e-6 but not the relative rule,
    # 1e-9 times the spectral radius 5000: the same error as any window
    A = np.diag([-5000.0, 1.000003, 5000.0])
    with pytest.raises(SpectralBoundaryError) as window:
        spectral_projection(A, -1.0, 1.0)
    with pytest.raises(SpectralBoundaryError) as enhanced:
        enhanced_check(A, 1.0)
    assert str(enhanced.value) == str(window.value)
    with pytest.raises(SpectralBoundaryError) as triple:
        polarized_triple(A, 1.0)
    assert str(triple.value) == str(window.value)


def test_polarized_triple_dims():
    trip = polarized_triple(np.diag([-2.0, 0.5, 3.0]), eps=1.0)
    assert (trip.H_minus.dim, trip.V.dim, trip.H_plus.dim) == (1, 1, 1)
    assert subspace_distance(trip.V, span([0, 1, 0])) < 1e-12
    assert subspace_distance(trip.H_minus, span([1, 0, 0])) < 1e-12
    assert subspace_distance(trip.H_plus, span([0, 0, 1])) < 1e-12


def test_polarized_triple_solves_once_and_keeps_the_mask_frames(monkeypatch):
    """One hermitian_eig call; the three parts are bitwise the boolean-mask
    columns of that one frame that the two-solve route cut."""
    rng = np.random.default_rng(3)
    A = random_complex(rng, 6)
    A = A + A.conj().T
    eps = 0.5 * float(np.median(np.abs(np.linalg.eigvalsh(A))))
    dec = hermitian_eig(A)
    lam = dec.eigenvalues
    calls = []

    def counted(M):
        calls.append(1)
        return hermitian_eig(M)

    monkeypatch.setattr(bandflow.flow, "hermitian_eig", counted)
    trip = polarized_triple(A, eps)
    assert len(calls) == 1
    for part, mask in ((trip.H_minus, lam < -eps), (trip.V, np.abs(lam) < eps),
                       (trip.H_plus, lam > eps)):
        np.testing.assert_array_equal(part.frame, dec.frame[:, mask])
    assert 0 < trip.V.dim < 6


def test_polarized_band_validation():
    e1, e2 = span([1, 0]), span([0, 1])
    zero2 = Subspace.zero(2)
    with pytest.raises(ValidationError, match="different spaces"):
        PolarizedBand(V=e1, H_minus=Subspace.zero(3), H_plus=e2)
    with pytest.raises(ValidationError, match="not orthogonal"):
        PolarizedBand(V=e1, H_minus=e1, H_plus=e2)
    with pytest.raises(ValidationError, match="fill"):
        PolarizedBand(V=e1, H_minus=zero2, H_plus=zero2)


# ---------------------------------------------------------------- index chain


def test_index_chain_constant_family():
    f = generate("constant", dim=3, samples=30)
    atlas = build_atlas(f)
    chain = index_chain(f, atlas)
    assert len(chain.charts) == 1 and not chain.overlaps
    c = chain.charts[0]
    assert c.n_below_left == c.n_below_right
    assert spectral_flow_chartwise(chain) == 0


def test_index_chain_overlap_decomposition():
    f = generate("truncated_shift_flow", N=2)
    chain = index_chain(f, build_atlas(f))
    assert chain.overlaps
    for ov in chain.overlaps:
        lam = np.linalg.eigvalsh(f.operators[ov.sample])
        # annular windows counted straight off the spectrum
        n_minus = int(np.sum((lam > -ov.eps_big) & (lam < -ov.eps_small)))
        n_plus = int(np.sum((lam > ov.eps_small) & (lam < ov.eps_big)))
        n_small = int(np.sum(np.abs(lam) < ov.eps_small))
        n_big = int(np.sum(np.abs(lam) < ov.eps_big))
        assert ov.u_minus.dim == n_minus
        assert ov.u_plus.dim == n_plus
        assert ov.small_band.dim == n_small
        assert ov.big_band.dim == n_big
        assert n_big == n_minus + n_small + n_plus
        # the annuli are orthogonal to the small band inside the big one
        if ov.u_minus.dim and ov.small_band.dim:
            cross = ov.u_minus.frame.conj().T @ ov.small_band.frame
            assert np.abs(cross).max() < 1e-10


def test_index_chain_nudges_overlap_with_zero():
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    f = diag_path(*[(tj - 0.5, 2.0) for tj in t], t=t)
    atlas = Atlas(charts=(AdaptedChart(0, 3, 1.25), AdaptedChart(2, 4, 1.25)))
    ok, report = check_atlas(f, atlas)
    assert ok, report
    chain = index_chain(f, atlas)
    # sample 2 carries the zero eigenvalue, so the overlap moves to sample 3
    assert chain.overlaps[0].sample == 3
    assert spectral_flow_chartwise(chain) == 1


def test_index_chain_rejects_zero_at_grid_end():
    f = diag_path(*[(tj, 1.0) for tj in np.linspace(0, 1, 11)])
    atlas = build_atlas(f)
    with pytest.raises(BoundaryZeroError, match="first grid sample"):
        index_chain(f, atlas)


def test_index_chain_rejects_unavoidable_overlap_zero():
    t = np.array([0.0, 0.5, 1.0])
    f = diag_path(*[(tj - 0.5, 2.0) for tj in t], t=t)
    atlas = Atlas(charts=(AdaptedChart(0, 1, 0.75), AdaptedChart(1, 2, 0.75)))
    with pytest.raises(BoundaryZeroError, match="overlap sample"):
        index_chain(f, atlas)


def test_index_chain_requires_valid_atlas():
    f = generate("crossing", k=1, m=1)
    bad = Atlas(charts=(AdaptedChart(0, 100, 0.05),))
    with pytest.raises(ValidationError, match="atlas rejected"):
        index_chain(f, bad)


@pytest.mark.parametrize("name, params", [
    ("truncated_shift_flow", {"N": 2}),
    ("random_smooth", {"dim": 5, "seed": 3, "samples": 300}),
    ("crossing", {"k": 2, "m": 2}),
])
def test_index_chain_builds_subspaces_only_at_overlaps(window_builds, name, params):
    f = generate(name, **params)
    atlas = build_atlas(f, max_chart_len=12)
    chain = index_chain(f, atlas)
    assert chain.overlaps and window_builds == []
    want = reference_overlap_frames(f, atlas, [ov.sample for ov in chain.overlaps])
    for ov, frames in zip(chain.overlaps, want):
        got = [ov.small_band.frame, ov.big_band.frame]
        if ov.eps_big > ov.eps_small:
            got += [ov.u_minus.frame, ov.u_plus.frame]
        else:
            assert ov.u_minus.dim == ov.u_plus.dim == 0
        assert len(got) == len(frames)
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, frames))
    if name == "truncated_shift_flow":  # some overlaps have equal radii on both sides
        assert any(ov.eps_big == ov.eps_small for ov in chain.overlaps)


def reference_overlap_frames(f, atlas, samples):
    """The per-sample window_subspace reads of each overlap that index_chain
    replaced: the small band, the big band, and the annuli when e2 > e1."""
    out = []
    for j, y in enumerate(samples):
        e1 = min(atlas.charts[j].eps, atlas.charts[j + 1].eps)
        e2 = max(atlas.charts[j].eps, atlas.charts[j + 1].eps)
        windows = [(-e1, e1), (-e2, e2)] + ([(-e2, -e1), (e1, e2)] if e2 > e1 else [])
        out.append([window_subspace(f, y, a, b).frame for a, b in windows])
    return out


@pytest.mark.parametrize("diagonals, charts", [
    (((0.5, 1.0), (0.5, 1.0)), [(0, 1, 0.5)]),
    (((-0.3, 0.5, 1.0), (-0.2, 0.5, 1.0), (0.1, 0.5, 1.0)), [(0, 1, 0.7), (1, 2, 0.5)]),
])
def test_index_chain_rejects_a_chart_edge_on_an_eigenvalue(diagonals, charts):
    # gap_tol 0 lets the clearance test pass; the band walk of check_atlas
    # is what must stop the chain
    f = diag_path(*diagonals)
    atlas = Atlas(tuple(AdaptedChart(*c) for c in charts))
    with pytest.raises(SpectralBoundaryError) as err:
        index_chain(f, atlas, gap_tol=0.0)
    assert str(err.value) == (
        "eigenvalue 0.5 sits at window endpoint 0.5 (distance 0.000e+00 <= tol 1.000e-09)"
    )


# ---------------------------------------------------------------- flow routes


def test_chartwise_flow_examples():
    for name, kwargs, want in [
        ("crossing", dict(k=1, m=1), 1),
        ("constant", dict(dim=3), 0),
        ("truncated_shift_flow", dict(N=3), 1),
    ]:
        f = generate(name, **kwargs)
        chain = index_chain(f, build_atlas(f))
        assert spectral_flow_chartwise(chain) == want, name


def test_oracle_flow_examples():
    assert spectral_flow_oracle(generate("crossing", k=2, m=1)) == 2
    assert spectral_flow_oracle(generate("rotation", m=1)) == 0
    f = generate("random_smooth", dim=6, seed=3)
    assert spectral_flow_oracle(f) == spectral_flow_endpoints(f)


def test_endpoint_flow_crossing():
    assert spectral_flow_endpoints(generate("crossing", k=1, m=1)) == 1


def test_routes_agree_on_generators():
    cases = [
        ("crossing", dict(k=-2, m=1), -2),
        ("crossing", dict(k=-1, m=1), -1),
        ("crossing", dict(k=0, m=2), 0),
        ("crossing", dict(k=1, m=1), 1),
        ("crossing", dict(k=2, m=1), 2),
        ("rotation", dict(m=1), 0),
        ("constant", dict(dim=4), 0),
        ("truncated_shift_flow", dict(N=2), 1),
        ("polarized_crossing", dict(), 1),
    ]
    for name, kwargs, want in cases:
        f = generate(name, **kwargs)
        routes = spectral_flow_routes(f)
        assert routes["agree"], (name, routes)
        assert routes["chartwise"] == routes["oracle"] == want, name


def test_routes_agree_on_random_families():
    for seed in range(6):
        f = generate("random_smooth", dim=5, seed=seed, samples=120)
        routes = spectral_flow_routes(f)
        assert routes["agree"], seed
        assert routes["endpoints"] == routes["chartwise"]


def test_flow_independent_of_atlas():
    f = generate("crossing", k=1, m=1)
    coarse = spectral_flow_routes(f, atlas=build_atlas(f))
    fine = spectral_flow_routes(f, atlas=build_atlas(f, max_chart_len=15))
    assert coarse["atlas"].n_charts != fine["atlas"].n_charts
    assert coarse["chartwise"] == fine["chartwise"] == 1


def test_shifted_loop_flow_equals_declared_shift():
    f = generate("truncated_shift_flow", N=2)
    routes = spectral_flow_routes(f)
    assert routes["endpoints"] == f.grid.shift == 1


def test_oracle_rejects_pinned_branch():
    f = diag_path((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(BranchResolutionError, match="branch 0"):
        spectral_flow_oracle(f)


def test_endpoint_flow_needs_invertible_ends():
    f = diag_path(*[(tj, 1.0) for tj in np.linspace(0, 1, 11)])
    with pytest.raises(ValidationError, match="first sample"):
        spectral_flow_endpoints(f)


def test_oracle_refinement_keeps_integer():
    f = generate("crossing", k=1, m=1)
    assert spectral_flow_oracle(f, refine=1) == spectral_flow_oracle(f, refine=4) == 1
    with pytest.raises(ValidationError):
        spectral_flow_oracle(f, refine=0)


# ---------------------------------------------------------------- band pairs


def test_fredholm_pair_nilpotent_shift():
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    pair = fredholm_pair(B, eps=0.5)
    assert subspace_distance(pair.e1, span([1, 0])) < 1e-12
    assert subspace_distance(pair.e2, span([0, 1])) < 1e-12
    assert pair.numeric_index == 0
    # the tail isometry is the polar factor on the complement: here B itself
    assert np.abs(pair.tail_isometry.matrix - B).max() < 1e-12


def test_fredholm_pair_invertible():
    pair = fredholm_pair(np.eye(3), eps=0.5)
    assert pair.e1.dim == 0 and pair.e2.dim == 0
    assert pair.numeric_index == 0
    assert np.abs(pair.tail_isometry.matrix - np.eye(3)).max() < 1e-12


def test_fredholm_pair_band_sweep(rng):
    sigma = np.array([3.0, 2.0, 1.0, 0.5, 0.0, 0.0])
    W, _ = np.linalg.qr(random_complex(rng, 6))
    V, _ = np.linalg.qr(random_complex(rng, 6))
    B = W @ np.diag(sigma) @ V.conj().T
    for eps in (0.2, 0.7, 1.5, 2.5):
        pair = fredholm_pair(B, eps)
        assert pair.e1.dim == pair.e2.dim == int(np.sum(sigma <= eps))
        assert pair.numeric_index == 0  # index is radius-independent
        M = pair.tail_isometry.matrix
        F = pair.tail_isometry.initial_space.frame
        if F.shape[1]:
            assert np.abs(np.linalg.norm(M @ F, axis=0) - 1.0).max() < 1e-10


def test_fredholm_pair_boundary_rejection():
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SpectralBoundaryError):
        fredholm_pair(B, eps=1.0)
    with pytest.raises(ValidationError):
        fredholm_pair(B, eps=-0.1)


# ---------------------------------------------------------------- stabilization


def constant_square_family(B, samples=5):
    t = np.linspace(0.0, 1.0, samples)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    M = np.asarray(B, dtype=np.complex128)
    return OperatorFamily(grid=grid, dim=M.shape[0], operators=(M,) * samples,
                          hermitian=False)


def test_stabilize_invertible_family():
    f = constant_square_family(np.diag([1.0, -2.0, 3.0]))
    data = atiyah_stabilize(f)
    assert data.m == 0
    assert data.kernel_dims == (0,) * 5
    assert data.index_value == 0


def test_stabilize_shift_matrix():
    S = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    data = atiyah_stabilize(constant_square_family(S))
    assert data.m == 1
    assert data.kernel_dims == (1,) * 5
    assert data.index_value == 0
    # the added direction spans the constant cokernel
    assert subspace_distance(data.cokernel_frame, span([0, 0, 1])) < 1e-10
    for frame in data.kernel_frames:
        assert frame.ambient_dim == 4 and frame.dim == 1


def test_stabilize_padded_domain():
    # third input coordinate is declared padding, so the honest domain is
    # two-dimensional and the map loses one dimension of index
    B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    f = constant_square_family(B)
    data = atiyah_stabilize(f, domain_codim=1)
    assert data.m == 1
    assert data.kernel_dims == (0,) * 5
    assert data.index_value == -1


def test_stabilize_varying_family():
    t = np.linspace(0.0, 1.0, 9)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    ops = []
    for tj in t:
        c, s = np.cos(tj), np.sin(tj)
        R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.complex128)
        ops.append(R @ np.diag([1.0, 1.0, 0.0]) @ R.conj().T)
    f = OperatorFamily(grid=grid, dim=3, operators=tuple(ops), hermitian=False)
    data = atiyah_stabilize(f)
    assert data.m >= 1
    assert len(set(data.kernel_dims)) == 1
    assert data.index_value == 0


def test_stabilize_rejects_bad_codim():
    f = constant_square_family(np.eye(2))
    with pytest.raises(ValidationError):
        atiyah_stabilize(f, domain_codim=2)
    with pytest.raises(ValidationError):
        atiyah_stabilize(f, domain_codim=-1)


def reference_refined_table(f, refine):
    """Refined eigenvalue table, one eigvalsh per interpolant."""
    rows = [f.eigen(0).eigenvalues]
    for k in range(1, f.n_samples):
        A0, A1 = f.operators[k - 1], f.operators[k]
        for j in range(1, refine):
            s = j / refine
            rows.append(np.linalg.eigvalsh((1.0 - s) * A0 + s * A1))
        rows.append(f.eigen(k).eigenvalues)
    return np.vstack(rows)


@pytest.mark.parametrize("refine", [1, 2, 3, 5])
def test_refined_table_equals_per_interpolant_solves(refine):
    for f in (generate("random_smooth", dim=5, seed=2, samples=30),
              generate("crossing", k=-2, m=2, samples=21),
              generate("random_smooth", dim=3, seed=1, samples=2)):
        assert np.array_equal(_refined_eigenvalue_table(f, refine),
                              reference_refined_table(f, refine))


@pytest.mark.parametrize("refine", [2, 3])
def test_refined_table_solves_only_the_given_intervals(refine):
    f = generate("random_smooth", dim=4, seed=2, samples=12)
    ref = reference_refined_table(f, refine)
    for intervals in ([], [0, 3, 10], list(range(11))):
        table = _refined_eigenvalue_table(f, refine, np.array(intervals, dtype=int))
        solved = np.zeros(len(table), dtype=bool)
        solved[::refine] = True
        for j in intervals:
            solved[j * refine + 1:(j + 1) * refine] = True
        assert np.array_equal(table[solved], ref[solved])
        assert np.all(table[~solved] == np.inf)


_BRANCH_VALUES = [0.0, 0.0, 1e-13, -1e-13, 2e-12, -2e-12, 0.3, -0.7, 1.0]


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.one_of(st.sampled_from(_BRANCH_VALUES + [np.inf, -np.inf]),
                                     st.floats(-2.0, 2.0))))
def test_net_up_crossings_is_the_endpoint_positive_count_change(table):
    assert net_up_crossings(table) == int(np.sum(table[-1] > 0) - np.sum(table[0] > 0))


def reference_oracle(f, refine):
    """spectral_flow_oracle over the fully solved per-interpolant table."""
    table = reference_refined_table(f, refine)
    pinned = np.abs(table) <= 1e-12
    runs = np.argwhere((pinned[:-1] & pinned[1:]).T)
    if runs.size:
        i, k = runs[0]
        raise BranchResolutionError(
            f"branch {i} sits at 0 across consecutive samples near row {k}; "
            f"refine the grid or perturb the family"
        )
    return net_up_crossings(table)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BranchResolutionError as exc:
        return str(exc)


def test_oracle_matches_the_fully_solved_table():
    """Same integer or same error text at refine 1-4, on diagonal families
    with exact and 1e-13 zeros, some under a Hermitian perturbation."""
    rng = np.random.default_rng(21)
    cases = [
        diag_path((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),  # pinned at grid samples
        diag_path((-1.0, 2e-12), (0.5, -2e-12), (1.0, 0.3)),  # pinned between interpolants
        diag_path((-1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (1.0, -1.0)),
    ]
    for _ in range(600):
        dim, samples = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        diagonals = rng.choice(_BRANCH_VALUES, size=(samples, dim))
        f = diag_path(*diagonals)
        scale = rng.choice([0.0, 1e-14, 1e-3])
        if scale:
            X = rng.standard_normal((samples, dim, dim)) + 1j * rng.standard_normal((samples, dim, dim))
            ops = f.operator_stack + scale * (X + X.conj().transpose(0, 2, 1))
            f = OperatorFamily(grid=f.grid, dim=dim, operators=tuple(ops))
        cases.append(f)
    errors = set()
    for f in cases:
        for refine in (1, 2, 3, 4):
            got = _outcome(spectral_flow_oracle, f, refine)
            assert got == _outcome(reference_oracle, f, refine)
            if isinstance(got, str):
                errors.add(refine)
    assert errors == {1, 2, 3, 4}
    # the branch at 2e-12 -> -2e-12 passes 0 between two interpolants at refine 3
    assert isinstance(_outcome(spectral_flow_oracle, cases[1], 2), int)
    assert _outcome(spectral_flow_oracle, cases[1], 3).startswith("branch 1 sits at 0")


def test_oracle_solves_only_beside_pinned_samples(monkeypatch):
    eigvalsh, shapes = np.linalg.eigvalsh, []
    for f, want in ((generate("random_smooth", dim=5, seed=3), []),
                    (generate("crossing"), [(2, 1, 2, 2)])):  # exact 0 at sample 50
        f.eigenvalues  # the plane is solved before counting
        shapes.clear()
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
            spectral_flow_oracle(f, refine=2)
        assert shapes == want
