"""Parameter grids, family closure rules, and the built-in generators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bandflow import (
    BandflowError,
    ModelViolationError,
    OperatorFamily,
    ParameterGrid,
    SpectralBoundaryError,
    Subspace,
    ValidationError,
    continuity_check,
    generate,
    hermitian_eig,
    subspace_distance,
    window_subspace,
)
from bandflow.families import _validated_stack, window_steps
import bandflow.families
import bandflow.linalg
from bandflow.linalg import (HERMITIAN_TOL_FACTOR, checked_stack, first_edge_error,
                             window_boundary_error)

from conftest import random_hermitian


def constant_family(matrix, samples=2, closure="open_path"):
    """Wrap one matrix as a family that never moves."""
    kind = "interval_path" if closure == "open_path" else "circle_loop"
    grid = ParameterGrid(kind=kind, samples=np.linspace(0, 1, samples), closure=closure)
    M = np.asarray(matrix, dtype=np.complex128)
    return OperatorFamily(grid=grid, dim=M.shape[0], operators=(M,) * samples)


# ---------------------------------------------------------------- grids


def test_grid_rejects_non_increasing_samples():
    with pytest.raises(ValidationError):
        ParameterGrid(kind="interval_path", samples=np.array([0.0, 0.5, 0.5]),
                      closure="open_path")


def test_grid_rejects_single_sample():
    with pytest.raises(ValidationError):
        ParameterGrid(kind="interval_path", samples=np.array([0.3]), closure="open_path")


def test_grid_rejects_unknown_kind_and_closure():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValidationError):
        ParameterGrid(kind="mystery", samples=t, closure="open_path")
    with pytest.raises(ValidationError):
        ParameterGrid(kind="interval_path", samples=t, closure="sideways")


def test_grid_pairs_open_paths_with_intervals():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValidationError):
        ParameterGrid(kind="circle_loop", samples=t, closure="open_path")
    with pytest.raises(ValidationError):
        ParameterGrid(kind="interval_path", samples=t, closure="exact_loop")


def test_grid_shift_only_for_shifted_loops():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValidationError):
        ParameterGrid(kind="interval_path", samples=t, closure="open_path", shift=1)
    g = ParameterGrid(kind="circle_loop", samples=t, closure="shifted_loop", shift=1)
    assert g.closure == "shifted_loop" and g.n_samples == 5


# ---------------------------------------------------------------- generators


def test_crossing_is_explicit_diagonal():
    f = generate("crossing", k=1, m=1)
    assert f.n_samples == 101 and f.dim == 2
    assert f.grid.closure == "open_path"
    t = f.grid.samples
    assert t[0] == 0.0 and t[-1] == 1.0
    for i in (0, 37, 100):
        expect = np.diag([t[i] - 0.5, 2.0])
        assert np.abs(f.operators[i] - expect).max() == 0.0


def test_crossing_variants():
    down = generate("crossing", k=-1, m=1, samples=11)
    t = down.grid.samples
    assert np.allclose([down.operators[i][0, 0] for i in range(11)], 0.5 - t)
    flat = generate("crossing", k=0, m=2, samples=7)
    assert flat.dim == 2
    assert np.allclose(np.linalg.eigvalsh(flat.operators[3]), [-2.0, 2.0])
    with pytest.raises(ValidationError):
        generate("crossing", k=0, m=0)


def test_spectator_ladder_is_gapped():
    f = generate("crossing", k=1, m=4, samples=5)
    lam = np.sort(np.diag(f.operators[2]).real)
    assert np.allclose(lam, [-3.0, -2.0, 0.0, 2.0, 3.0])


def test_truncated_shift_flow_closes_after_one_level_shift():
    f = generate("truncated_shift_flow", N=3)
    assert f.dim == 7 and f.grid.shift == 1
    lam0 = np.linalg.eigvalsh(f.operators[0])
    lam1 = np.linalg.eigvalsh(f.operators[-1])
    # one traversal pushes every rung up by exactly one level
    assert np.abs(lam1[:-1] - lam0[1:]).max() <= 1e-12
    # the half-step grid offset keeps all samples away from integer levels
    all_lam = np.concatenate([np.diag(op).real for op in f.operators])
    dist = np.abs(all_lam - np.round(all_lam))
    assert abs(dist.min() - 0.005) < 1e-12


def test_truncated_shift_flow_spectral_radius():
    f = generate("truncated_shift_flow", N=3)
    assert abs(f.spectral_radius() - 4.005) < 1e-12


def test_wrong_shift_declaration_rejected():
    # a ladder that moves by one level cannot close with shift 2
    t = np.linspace(0.0, 1.0, 21) + 0.025
    levels = np.arange(-2.0, 3.0)
    grid = ParameterGrid(kind="circle_loop", samples=t, closure="shifted_loop", shift=2)
    ops = tuple(np.diag(levels + tj).astype(np.complex128) for tj in t)
    with pytest.raises(ValidationError, match="shifted loop"):
        OperatorFamily(grid=grid, dim=5, operators=ops)


def test_exact_loop_must_close():
    t = np.linspace(0.0, 1.0, 9)
    grid = ParameterGrid(kind="circle_loop", samples=t, closure="exact_loop")
    ops = tuple(np.diag([tj, 2.0]).astype(np.complex128) for tj in t)
    with pytest.raises(ValidationError, match="fails to close"):
        OperatorFamily(grid=grid, dim=2, operators=ops)


def test_rotation_loop_has_constant_spectrum():
    f = generate("rotation", m=1)
    assert f.grid.closure == "exact_loop" and f.dim == 3
    assert np.abs(f.operators[0] - np.diag([-1.0, 1.0, 2.0])).max() < 1e-12
    for i in range(0, f.n_samples, 13):
        assert np.allclose(np.linalg.eigvalsh(f.operators[i]), [-1.0, 1.0, 2.0])


def test_rotation_fractional_turns_is_open():
    f = generate("rotation", m=1, turns=0.5, samples=40)
    assert f.grid.closure == "open_path"


def test_random_smooth_has_small_steps():
    f = generate("random_smooth", dim=5, seed=11)
    # probe band far below the spectrum so only eigenvalue motion registers
    rep = continuity_check(f, -100.0, -50.0)
    assert rep.max_band_subspace_step == 0.0
    assert rep.max_eigenvalue_step <= 0.1


def test_random_smooth_loop_closes_exactly():
    f = generate("random_smooth", dim=4, seed=3, samples=80, loop=True)
    assert f.grid.closure == "exact_loop"
    assert np.abs(f.operators[0] - f.operators[-1]).max() == 0.0


# References: the generators as they built one operator per sample.


def reference_random_smooth(dim, seed, samples, loop, harmonics, drift):
    rng = np.random.default_rng(seed)

    def rand_herm(scale):
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return scale * ((X + X.conj().T) / (2.0 * math.sqrt(dim)))

    t = np.linspace(0.0, 1.0, samples)
    base = rand_herm(1.0)
    terms = [(rand_herm(0.35 / k**2), rand_herm(0.35 / k**2)) for k in range(1, harmonics + 1)]
    drift_op = None if loop else rand_herm(drift)
    ops = []
    for tj in t:
        A = base.copy()
        for k, (Bk, Ck) in enumerate(terms, start=1):
            A = A + math.cos(2 * math.pi * k * tj) * Bk + math.sin(2 * math.pi * k * tj) * Ck
        if drift_op is not None:
            A = A + tj * drift_op
        ops.append(A)
    if loop:
        ops[-1] = ops[0].copy()
    return ops


def reference_rotation(m, turns, samples):
    D = np.diag([-1.0, 1.0] + [(2.0 + j // 2) * (-1) ** j for j in range(m)])
    D = D.astype(np.complex128)
    ops = []
    for th in 2.0 * math.pi * turns * np.linspace(0.0, 1.0, samples):
        R = np.eye(2 + m, dtype=np.complex128)
        c, s = math.cos(th), math.sin(th)
        R[0, 0], R[0, 1], R[1, 0], R[1, 1] = c, -s, s, c
        ops.append(R @ D @ R.conj().T)
    return ops


def reference_diag(columns):
    return [np.diag(columns[:, j]).astype(np.complex128) for j in range(columns.shape[1])]


def built_stack(monkeypatch, name, **params):
    """The operators a generator hands to OperatorFamily, before validation."""
    seen = []
    real = bandflow.families.OperatorFamily
    with monkeypatch.context() as m:
        m.setattr(bandflow.families, "OperatorFamily",
                  lambda **kw: seen.append(np.asarray(kw["operators"])) or real(**kw))
        generate(name, **params)
    return seen[0]


@pytest.mark.parametrize("params", [
    {"dim": 1, "seed": 0, "samples": 2, "loop": False, "harmonics": 3, "drift": 0.8},
    {"dim": 3, "seed": 4, "samples": 60, "loop": True, "harmonics": 3, "drift": 0.8},
    {"dim": 8, "seed": 1, "samples": 80, "loop": False, "harmonics": 3, "drift": 0.8},
    {"dim": 5, "seed": 7, "samples": 33, "loop": True, "harmonics": 0, "drift": 0.8},
    {"dim": 4, "seed": 2, "samples": 41, "loop": False, "harmonics": 5, "drift": -1.7},
])
def test_random_smooth_is_the_per_sample_construction(monkeypatch, params):
    want = np.array(reference_random_smooth(**params))
    assert built_stack(monkeypatch, "random_smooth", **params).tobytes() == want.tobytes()


@pytest.mark.parametrize("m, turns, samples", [(0, 1.0, 2), (1, 1.0, 120), (2, 2.0, 40),
                                               (3, 0.5, 31), (1, -1.3, 17)])
def test_rotation_is_the_per_sample_construction(monkeypatch, m, turns, samples):
    want = np.array(reference_rotation(m, turns, samples))
    got = built_stack(monkeypatch, "rotation", m=m, turns=turns, samples=samples)
    assert got.tobytes() == want.tobytes()


def test_diagonal_generators_are_the_per_sample_construction(monkeypatch):
    t = np.linspace(0.0, 1.0, 21)
    cases = [("crossing", {"k": -2, "m": 3, "samples": 21},
              np.array([0.5 - t, 0.5 - t, 2 + 0 * t, -2 + 0 * t, 3 + 0 * t])),
             ("truncated_shift_flow", {"N": 1, "samples": 21},
              np.arange(-1.0, 2.0)[:, None] + (t + 0.025)[None, :]),
             ("constant", {"dim": 3, "samples": 21}, np.array([1 + 0 * t, -1 + 0 * t, 2 + 0 * t]))]
    for name, params, columns in cases:
        want = np.array(reference_diag(columns))
        # bytes, so the off-diagonal zeros beside negative levels stay +0.0
        assert built_stack(monkeypatch, name, **params).tobytes() == want.tobytes(), name


def test_refining_the_grid_shrinks_steps():
    coarse = generate("random_smooth", dim=4, seed=5, samples=150)
    fine = generate("random_smooth", dim=4, seed=5, samples=300)
    # same trig-polynomial curve either way, so halving the step halves motion
    assert np.abs(coarse.operators[0] - fine.operators[0]).max() == 0.0
    rc = continuity_check(coarse, -100.0, -50.0).max_eigenvalue_step
    rf = continuity_check(fine, -100.0, -50.0).max_eigenvalue_step
    assert rf <= 0.75 * rc


def test_constant_family_levels():
    f = generate("constant", dim=4, samples=10)
    assert np.allclose(np.sort(np.diag(f.operators[0]).real), [-2.0, -1.0, 1.0, 2.0])
    rep = continuity_check(f, 0.0, 3.0)
    assert rep.max_eigenvalue_step == 0.0
    assert rep.max_band_subspace_step == 0.0


def test_polarized_crossing_declares_frozen_bands():
    f = generate("polarized_crossing")
    assert f.polarized_bands == (1, 1) and f.dim == 3
    lam = np.array([np.linalg.eigvalsh(op) for op in f.operators])
    assert lam.min() >= -1.0 and lam.max() <= 1.0
    branch = np.array([op[0, 0].real for op in f.operators])
    assert abs(branch[0] + 0.3) < 1e-12 and abs(branch[-1] - 0.3) < 1e-12
    wide = generate("polarized_crossing", k=1, m_minus=2, m_plus=1, samples=9)
    assert wide.polarized_bands == (2, 1) and wide.dim == 4


def test_polarized_band_declaration_is_checked():
    t = np.linspace(0, 1, 3)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    grid4 = ParameterGrid(kind="interval_path", samples=np.linspace(0, 1, 4),
                          closure="open_path")
    # spectrum escapes [-1, 1]
    ops = (np.diag([2.0]),) * 3
    with pytest.raises(ValidationError, match="leaves"):
        OperatorFamily(grid=grid, dim=1, operators=ops, polarized_bands=(0, 0))
    # fewer frozen eigenvalues than declared
    ops = (np.diag([0.5]),) * 3
    with pytest.raises(ValidationError, match="declared"):
        OperatorFamily(grid=grid, dim=1, operators=ops, polarized_bands=(1, 0))
    # the first offending sample is named, whichever rule it breaks
    ops = tuple(np.diag([v]) for v in (0.5, 1.0, 2.0, 0.5))
    with pytest.raises(ValidationError, match="sample 0: found 0/0"):
        OperatorFamily(grid=grid4, dim=1, operators=ops, polarized_bands=(0, 1))
    with pytest.raises(ValidationError, match="sample 2: spectrum leaves"):
        OperatorFamily(grid=grid4, dim=1, operators=ops, polarized_bands=(0, 0))
    # multiplicities exceed the dimension
    ops = (np.diag([1.0]),) * 3
    with pytest.raises(ValidationError, match="multiplicities"):
        OperatorFamily(grid=grid, dim=1, operators=ops, polarized_bands=(1, 1))
    # frozen bands need a Hermitian family
    nh = (np.array([[0.0, 1.0], [0.0, 0.0]]),) * 3
    with pytest.raises(ValidationError, match="Hermitian"):
        OperatorFamily(grid=grid, dim=2, operators=nh, hermitian=False,
                       polarized_bands=(0, 0))


# ---------------------------------------------------------------- windows


def test_window_subspace_on_ladder_midpoint():
    f = generate("truncated_shift_flow", N=3)
    i = int(np.argmin(np.abs(f.grid.samples - 0.5)))
    V = window_subspace(f, i, 0.0, 2.0)
    # rungs 0 + t and 1 + t sit inside (0, 2) near the middle of the sweep
    assert V.dim == 2
    expect = Subspace(7, np.eye(7, dtype=np.complex128)[:, 3:5])
    assert subspace_distance(V, expect) < 1e-12


def test_window_subspace_isolated_level():
    f = constant_family(np.diag([-2.0, 0.5, 3.0]))
    V = window_subspace(f, 0, -1.0, 1.0)
    expect = Subspace(3, np.eye(3, dtype=np.complex128)[:, 1:2])
    assert V.dim == 1 and subspace_distance(V, expect) < 1e-12


@given(st.integers(min_value=0, max_value=400))
def test_window_dims_add_over_partitions(seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, 6)
    f = constant_family(A)
    lam = np.linalg.eigvalsh(A)
    lo, hi = lam[0] - 1.0, lam[-1] + 1.0
    mid = 0.5 * (lam[2] + lam[3])  # midpoint of a spectral gap (maybe tiny, still open)
    if min(mid - lam[2], lam[3] - mid) < 1e-6:
        return  # degenerate draw, the window boundary rule would refuse it
    left = window_subspace(f, 0, lo, mid)
    right = window_subspace(f, 0, mid, hi)
    full = window_subspace(f, 0, lo, hi)
    assert left.dim + right.dim == full.dim == 6
    overlap = np.abs(left.frame.conj().T @ right.frame).max()
    assert overlap < 1e-10


def reference_window_subspace(f, x, a, b):
    """The per-sample route window_subspace replaced: the sample's
    decomposition, its edges checked by window_boundary_error, then a mask."""
    dec = f.eigen(x)
    if not a < b:
        raise ValidationError(f"empty window ({a}, {b})")
    hit = window_boundary_error(dec.eigenvalues[None], a, b)
    if hit is not None:
        raise hit[1]
    mask = (dec.eigenvalues > a) & (dec.eigenvalues < b)
    return Subspace(f.dim, dec.frame[:, mask])


def _outcome(route, *args):
    try:
        return route(*args).frame
    except BandflowError as exc:
        return type(exc), str(exc)


def assert_same_window(f, x, a, b):
    got = _outcome(window_subspace, f, x, a, b)
    want = _outcome(reference_window_subspace, f, x, a, b)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)
    return want


@pytest.mark.parametrize("x, a, b, expect", [
    (0, 0.5, np.inf, SpectralBoundaryError),  # edge on an eigenvalue
    (1, -np.inf, 0.5 + 1e-12, SpectralBoundaryError),  # within the boundary tolerance
    (-1, -np.inf, np.inf, 4),  # full, negative index
    (-2, 3.0, np.inf, 0),  # zero-dimensional
    (0, 0.0, 1.0, 2),  # repeated level inside
    (1, 1.0, 1.0, ValidationError),  # empty
    (0, 2.0, -1.0, ValidationError),  # reversed
    (-1, -np.inf, 0.0, 1),
])
def test_window_subspace_matches_the_per_sample_route_on_edge_cases(x, a, b, expect):
    f = constant_family(np.diag([-1.0, 0.5, 0.5, 2.0]), samples=3)
    want = assert_same_window(f, x, a, b)
    if isinstance(expect, int):
        assert want.shape == (4, expect)
    else:
        assert want[0] is expect


@settings(max_examples=150)
@given(st.integers(0, 2**16), st.integers(1, 5), st.integers(2, 4), st.booleans(), st.data())
def test_window_subspace_matches_the_per_sample_route(seed, dim, samples, diagonal, data):
    rng = np.random.default_rng(seed)
    if diagonal:  # repeated, round levels, so edges can land on them exactly
        levels = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0], size=(samples, dim))
        ops = [np.diag(row).astype(np.complex128) for row in levels]
    else:
        ops = [random_hermitian(rng, dim) for _ in range(samples)]
    grid = ParameterGrid(kind="interval_path", samples=np.linspace(0, 1, samples),
                         closure="open_path")
    f = OperatorFamily(grid=grid, dim=dim, operators=tuple(ops))
    pooled = f.eigenvalues.ravel().tolist()
    on_level = st.tuples(st.sampled_from(pooled), st.sampled_from([0.0, 1e-12, -1e-12, 1e-6]))
    edge = st.one_of(
        st.sampled_from([-np.inf, np.inf, -100.0, 100.0, 0.0]),
        st.floats(-4.0, 4.0),
        on_level.map(sum),
    )
    x = data.draw(st.integers(-samples, samples - 1), label="sample")
    a, b = sorted(data.draw(st.lists(edge, min_size=2, max_size=2, unique=True), label="edges"))
    a, b = data.draw(st.sampled_from([(a, b)] * 6 + [(b, a), (a, a)]), label="window")
    assert_same_window(f, x, a, b)


def test_continuity_check_flags_band_jump():
    f = generate("crossing", k=1, m=1)
    # the moving branch enters (-0.105, 0.105) between samples 39 and 40
    rep = continuity_check(f, -0.105, 0.105)
    assert rep.max_band_subspace_step == 1.0
    assert rep.worst_step_index == 39
    assert abs(rep.max_eigenvalue_step - 0.01) < 1e-12


# ---------------------------------------------------------------- plumbing


def test_eigen_cache_returns_same_object():
    f = generate("constant", dim=3, samples=5)
    assert f.eigen(2) is f.eigen(2)


def test_eigen_requires_hermitian():
    t = np.linspace(0, 1, 2)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = OperatorFamily(grid=grid, dim=2, operators=(B, B), hermitian=False)
    with pytest.raises(ValidationError):
        f.eigen(0)


def test_operator_count_must_match_grid():
    t = np.linspace(0, 1, 4)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    with pytest.raises(ValidationError, match="4 samples"):
        OperatorFamily(grid=grid, dim=1, operators=(np.eye(1),) * 3)


def test_operator_dim_must_match_declaration():
    t = np.linspace(0, 1, 2)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    with pytest.raises(ValidationError, match="dim"):
        OperatorFamily(grid=grid, dim=3, operators=(np.eye(2), np.eye(2)))


def test_generate_unknown_name_lists_available():
    with pytest.raises(ValidationError, match="crossing"):
        generate("spiral")


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValidationError, match="bad parameters"):
        generate("crossing", bogus=3)


# ---------------------------------------------------------------- spectral plane


def _reference_eig(A):
    """Per-matrix eigh with the column-by-column phase rule, as a reference."""
    lam, F = np.linalg.eigh(A)
    F = F.copy()
    for k in range(F.shape[1]):
        col = F[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-9)
        if idx.size:
            c = col[idx[0]]
            F[:, k] = col * (np.conj(c) / np.abs(c))
    return lam, F


PLANE_FAMILIES = (
    [generate("random_smooth", dim=d, seed=d, samples=30) for d in range(1, 9)]
    + [generate("random_smooth", dim=4, seed=1, samples=2),
       generate("constant", dim=5, samples=7),
       generate("crossing", k=2, m=3, samples=21),
       generate("polarized_crossing", k=-1, m_minus=2, m_plus=1, samples=21),
       generate("rotation", m=2, samples=30)]
)


@pytest.mark.parametrize("f", PLANE_FAMILIES,
                         ids=lambda f: f"dim{f.dim}x{f.n_samples}")
def test_plane_equals_per_sample_eig(f):
    f = OperatorFamily(grid=f.grid, dim=f.dim, operators=f.operators,
                       polarized_bands=f.polarized_bands)
    for k, A in enumerate(f.operators):
        lam, F = _reference_eig(A)
        dec = hermitian_eig(A)
        for got in (f.eigen(k), dec):
            assert np.array_equal(got.eigenvalues, lam)
            assert np.array_equal(got.frame, F)
        assert np.array_equal(f.eigenvalues[k], lam)
        assert np.array_equal(f.frames[k], F)
        assert np.array_equal(f.abs_eigenvalues[k], np.sort(np.abs(lam)))
    assert f.spectral_radius() == max(np.abs(f.eigenvalues[k]).max()
                                      for k in range(f.n_samples))


def test_plane_is_one_eigh_and_operators_are_views(monkeypatch):
    f = generate("random_smooth", dim=3, seed=2, samples=25)
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or real(A))
    for k in range(f.n_samples):
        f.eigen(k)
    assert calls == [(25, 3, 3)]
    assert f.eigen(4).eigenvalues.base is not None
    assert all(np.shares_memory(A, f.operator_stack) for A in f.operators)


def _corrupt_eigh(monkeypatch, sample, how):
    real = np.linalg.eigh

    def fake(A):
        lam, F = real(A)
        if how == "value":
            lam[sample, 0] += 1e-3
        elif how == "order":
            lam[sample], F[sample] = lam[sample][::-1].copy(), F[sample][:, ::-1].copy()
        else:
            F[sample][:, 0] *= 2.0
        return lam, F

    monkeypatch.setattr(np.linalg, "eigh", fake)


@pytest.mark.parametrize("how, message", [
    ("value", "sample 7: eigendecomposition residual"),
    ("order", "sample 7: eigenvalues are not sorted ascending"),
    ("frame", "sample 7: eigenvector frame is not orthonormal"),
])
def test_plane_names_first_bad_sample(monkeypatch, how, message):
    f = generate("random_smooth", dim=4, seed=5, samples=20)
    _corrupt_eigh(monkeypatch, 7, how)
    with pytest.raises(ModelViolationError, match=message):
        f.eigen(0)


def _reference_steps(f, start, end, a, b):
    """The per-step walk: window subspaces and subspace_distance, sample by sample."""
    prev = window_subspace(f, start, a, b)
    for k in range(start + 1, end + 1):
        cur = window_subspace(f, k, a, b)
        yield k, subspace_distance(prev, cur)
        prev = cur


def _walk(steps):
    """Steps taken before the walk ends, and the error that ended it."""
    taken = []
    try:
        for step in steps:
            taken.append(step)
    except (SpectralBoundaryError, ValidationError) as exc:
        return taken, f"{type(exc).__name__}: {exc}"
    return taken, None


def _edge_reads(monkeypatch):
    """The rows each first_edge_error call reads from here on, one entry a call."""
    reads = []

    def counted(lam, *edges):
        reads.append(len(lam))
        return first_edge_error(lam, *edges)

    monkeypatch.setattr(bandflow.linalg, "first_edge_error", counted)
    return reads


@pytest.mark.parametrize("name, params, start, end, a, b", [
    ("random_smooth", {"dim": 5, "seed": 4, "samples": 60}, 0, 59, -0.3, 0.3),
    ("random_smooth", {"dim": 8, "seed": 1, "samples": 80}, 10, 45, 0.1, np.inf),
    ("random_smooth", {"dim": 3, "seed": 7, "samples": 40}, 0, 39, -np.inf, -0.2),
    ("rotation", {"m": 2, "samples": 50}, 0, 49, -1.5, 0.0),
    ("crossing", {"k": 1, "m": 1}, 0, 100, -0.105, 0.105),
    ("crossing", {"k": 2, "m": 2, "samples": 31}, 3, 3, -0.2, 0.2),
])
def test_window_steps_match_per_step_walk(monkeypatch, name, params, start, end, a, b):
    f = generate(name, **params)
    ref, ref_err = _walk(_reference_steps(f, start, end, a, b))
    reads = _edge_reads(monkeypatch)
    got, err = _walk(window_steps(f, start, end, a, b))
    assert reads == [end - start + 1]  # one edge read per walk
    assert ref_err is None and err is None
    assert [k for k, _ in got] == [k for k, _ in ref] == list(range(start + 1, end + 1))
    assert np.allclose([d for _, d in got], [d for _, d in ref], rtol=0, atol=1e-12)


@pytest.mark.parametrize("start, end, a, b", [
    (0, 100, 0.0, np.inf),      # branch t - 0.5 is exactly 0 at sample 50
    (30, 100, -0.2, 0.0),
    (50, 60, 0.0, 1.0),         # the first sample of the walk is the bad one
    (0, 100, -1.5, 0.2),        # 0.2 is t - 0.5 at sample 70, up to roundoff
    (0, 100, 0.3, -0.3),        # empty window
])
def test_window_steps_raise_where_the_per_step_walk_does(monkeypatch, start, end, a, b):
    f = generate("crossing", k=1, m=2)
    ref = _walk(_reference_steps(f, start, end, a, b))
    reads = _edge_reads(monkeypatch)
    got = _walk(window_steps(f, start, end, a, b))
    assert len(reads) == (1 if a < b else 0)  # an empty window raises before any edge read
    assert ref[1] is not None
    assert [k for k, _ in got[0]] == [k for k, _ in ref[0]]
    assert got[1] == ref[1]


def test_continuity_check_rejects_empty_window():
    f = generate("crossing", k=1, m=1)
    with pytest.raises(ValidationError, match="empty window"):
        continuity_check(f, 0.3, -0.3)


def test_window_steps_stop_before_a_later_boundary():
    f = generate("crossing", k=1, m=1)
    # the band jumps between samples 39 and 40; the edge 0 sits on the
    # moving branch only at sample 50, which a caller stopping at the jump
    # never reaches
    first = next(k for k, d in window_steps(f, 0, 100, -0.105, 0.0) if d > 0.5)
    assert first == 40


WINDOWS = {
    "band": lambda e: (-abs(e), abs(e)),
    "upper": lambda e: (e, np.inf),
    "lower": lambda e: (-np.inf, e),
}


@given(dim=st.integers(1, 12), seed=st.integers(0, 10_000), samples=st.integers(2, 30),
       loop=st.booleans(), start=st.integers(0, 5), kind=st.sampled_from(sorted(WINDOWS)),
       level=st.floats(-3.0, 3.0), on_edge=st.booleans())
@example(dim=6, seed=0, samples=20, loop=False, start=0, kind="upper", level=9.0,
         on_edge=False)                                             # rank 0 throughout
@example(dim=6, seed=0, samples=20, loop=True, start=0, kind="lower", level=9.0,
         on_edge=False)                                             # rank n throughout
@example(dim=3, seed=1, samples=20, loop=True, start=0, kind="upper", level=0.021,
         on_edge=False)                                             # rank 2 of 3 throughout
@example(dim=12, seed=3, samples=30, loop=True, start=0, kind="upper", level=-0.6,
         on_edge=False)                                             # ranks 8 and 9 of 12
@example(dim=8, seed=1, samples=30, loop=False, start=0, kind="band", level=0.3,
         on_edge=False)                                             # rank jumps
@example(dim=8, seed=1, samples=30, loop=False, start=2, kind="band", level=0.3,
         on_edge=True)                                              # an edge on the spectrum
@example(dim=6, seed=0, samples=40, loop=False, start=0, kind="band", level=0.2,
         on_edge=False)                                             # ranks 1 and 2 recur
def test_window_steps_match_the_projector_walk(dim, seed, samples, loop, start, kind, level,
                                               on_edge):
    f = generate("random_smooth", dim=dim, seed=seed, samples=samples, loop=loop)
    start, lam = min(start, samples - 1), f.eigenvalues
    if on_edge:  # an eigenvalue of a sample the walk reaches
        level = float(lam[start + seed % (samples - start), seed % dim])
    a, b = WINDOWS[kind](level)
    ref, ref_err = _walk(_reference_steps(f, start, samples - 1, a, b))
    got, err = _walk(window_steps(f, start, samples - 1, a, b))
    assert err == ref_err
    assert [k for k, _ in got] == [k for k, _ in ref]
    rank = ((lam > a) & (lam < b)).sum(axis=1)
    for (k, d), (_, want) in zip(got, ref):
        assert abs(d - want) <= 1e-12
        if rank[k - 1] != rank[k]:
            assert d == 1.0
        elif rank[k] in (0, dim):
            assert d == 0.0


def test_window_steps_solve_small_problems_without_projector_stacks(monkeypatch):
    """eigvalsh sees min(r, n - r) square matrices, and no (N, n, n) stack is built.

    At every sample 18 eigenvalues lie below -0.15 and 22 below 0.236, so the
    first window is columns 18:22 throughout; the others move, and
    (-1.2, inf) holds 31 to 34 columns."""
    f = generate("random_smooth", dim=40, seed=3, samples=120)
    frames = f.frames  # the plane is solved before anything is measured
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: shapes.append(M.shape) or eigvalsh(M))
    for a, b in [(-0.15, 0.236), (-1.2, np.inf), (-np.inf, -1.2), (-0.15, 0.15)]:
        rank = ((f.eigenvalues > a) & (f.eigenvalues < b)).sum(axis=1)
        shapes.clear()
        tracemalloc.start()
        try:
            steps = list(window_steps(f, 0, 119, a, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(steps) == 119
        assert shapes
        assert all(s[-1] == s[-2] <= np.minimum(rank, 40 - rank).max() for s in shapes)
        assert peak < 0.9 * frames.nbytes


# ---------------------------------------------------------------- stack validation


def _square_loop(entries):
    """as_square_matrix as it was coded per matrix, the reference below."""
    B = np.asarray(entries, dtype=np.complex128)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {B.shape}")
    if not np.all(np.isfinite(B.real)) or not np.all(np.isfinite(B.imag)):
        raise ValidationError("matrix has non-finite entries")
    return B


def _hermitian_loop(entries):
    A = _square_loop(entries)
    scale = float(np.abs(A).max())
    defect = float(np.abs(A - A.conj().T).max())
    if defect > HERMITIAN_TOL_FACTOR * max(scale, 1.0):
        raise ValidationError(
            f"matrix is not Hermitian: max|A - A*| = {defect:.3e} "
            f"exceeds {HERMITIAN_TOL_FACTOR:.0e} * max|A|"
        )
    return 0.5 * (A + A.conj().T)


def per_operator_stack(ops, dim, hermitian):
    """The validation loop OperatorFamily used to run, one operator at a time."""
    stack = None
    for k, op in enumerate(ops):
        M = _hermitian_loop(op) if hermitian else _square_loop(op)
        if M.shape[0] != dim:
            raise ValidationError(f"operator {k} has dim {M.shape[0]}, declared {dim}")
        if stack is None:
            stack = np.empty((len(ops),) + M.shape, dtype=np.complex128)
        stack[k] = M
    return stack


def stack_outcome(fn, *args):
    """fn's stack as int64 bits, or the type and message of what it raises."""
    try:
        S = fn(*args)
    except (ValidationError, TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return S.shape, S.view(np.int64).tolist()


@st.composite
def operator_lists(draw):
    """Operator lists with one or two defects each: non-finite entries,
    Hermitian defects either side of the bound, misfit shapes, ragged rows."""
    n = draw(st.integers(1, 4))
    N = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-3, 0.25, 1.0, 7.0, 1e4]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["complex", "real", "int"]))
    ops = []
    for _ in range(N):
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = scale * (X + X.conj().T)
        if kind == "real":
            H = H.real.copy()
        elif kind == "int":
            H = np.rint(H.real).astype(np.int64)
        ops.append(H)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, N - 1))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        how = draw(st.sampled_from(["nonfinite", "defect", "non-square", "wrong-dim",
                                    "ragged"]))
        if how in ("nonfinite", "defect") and np.asarray(ops[k], dtype=object).shape != (n, n):
            continue
        if how == "nonfinite" and kind != "int":
            A = ops[k].astype(np.complex128)
            bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            if draw(st.booleans()):
                A[i, j] = complex(bad, A[i, j].imag)
            else:
                A[i, j] = complex(A[i, j].real, bad)
            ops[k] = A
        elif how == "defect":
            A = ops[k].astype(np.complex128)
            bound = HERMITIAN_TOL_FACTOR * max(float(np.abs(A).max()), 1.0)
            step = draw(st.sampled_from([0.5, 0.999, 1.001, 3.0])) * bound
            A[i, j] += step if i != j else 0.5j * step
            ops[k] = A
        elif how == "non-square":
            ops[k] = np.ones((n, n + 1))
        elif how == "wrong-dim":
            m = draw(st.sampled_from([m for m in (n - 1, n + 1) if m >= 0]))
            ops[k] = np.eye(m) * draw(st.sampled_from([1.0, np.nan]))
        elif how == "ragged":
            ops[k] = [[1.0] * n] * max(n - 1, 1) + [[1.0] * (n + 1)]
    container = draw(st.sampled_from([list, tuple, np.asarray]))
    if container is np.asarray:
        try:
            ops = np.asarray(ops)
        except ValueError:
            pass
    else:
        ops = container(ops)
    return ops, n, draw(st.booleans())


@settings(max_examples=400)
@given(operator_lists())
def test_stack_validation_matches_per_operator_loop(case):
    ops, dim, hermitian = case
    want = stack_outcome(per_operator_stack, ops, dim, hermitian)
    assert stack_outcome(_validated_stack, ops, dim, hermitian) == want
    if len(ops) >= 2:
        grid = ParameterGrid(kind="interval_path", samples=np.linspace(0.0, 1.0, len(ops)),
                             closure="open_path")
        fam = stack_outcome(lambda: OperatorFamily(grid=grid, dim=dim, operators=ops,
                                                   hermitian=hermitian).operator_stack)
        assert fam == want


def test_stack_validation_raises_at_the_first_bad_operator():
    herm = np.eye(2)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="not Hermitian"):
        _validated_stack([herm, skew, nan], 2)
    with pytest.raises(ValidationError, match="non-finite"):
        _validated_stack([herm, nan, skew], 2)
    # a misfit shape is reached only after the operators before it pass
    with pytest.raises(ValidationError, match="not Hermitian"):
        _validated_stack([skew, np.ones((2, 3))], 2)
    with pytest.raises(ValidationError, match="operator 1 has dim 3"):
        _validated_stack([herm, np.eye(3)], 2)
    assert _validated_stack([herm, skew], 2, hermitian=False)[1].tolist() == skew.tolist()


def test_stack_validation_allocates_little_beyond_its_result():
    """The result's buffer is the scratch for the parts of A - A*, so a whole
    dim-40 stack is validated without stack-sized temporaries."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 40, 40)) + 1j * rng.standard_normal((60, 40, 40))
    S = X + X.conj().transpose(0, 2, 1)
    tracemalloc.start()
    try:
        out = checked_stack(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == S.shape
    assert peak <= 1.2 * S.nbytes
