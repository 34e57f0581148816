import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandflow import (
    InjectivityError,
    ModelViolationError,
    SpectralBoundaryError,
    SpectralDecomposition,
    Subspace,
    ValidationError,
    absolute_value,
    combination_path,
    convex_combination_image,
    hermitian_eig,
    orthogonal_complement,
    polar_partial_isometry,
    spectral_projection,
    subspace_distance,
)
from bandflow.linalg import (
    as_hermitian,
    fix_phases,
    inclusion_residual,
    orthonormal_image,
    subspace_distances,
    svd_matched,
)
from conftest import random_complex, random_hermitian, random_subspace

E = np.eye(6, dtype=np.complex128)


def span(*cols):
    M = np.column_stack([np.asarray(c, dtype=np.complex128) for c in cols])
    Q, _ = np.linalg.qr(M)
    return Subspace(M.shape[0], Q[:, : M.shape[1]])


# --- eigendecomposition -----------------------------------------------------

def test_eig_diagonal():
    dec = hermitian_eig(np.diag([3.0, -1.0]))
    assert np.allclose(dec.eigenvalues, [-1.0, 3.0])
    # reordered standard basis vectors, phases fixed to +1
    assert np.allclose(np.abs(dec.frame), [[0, 1], [1, 0]])
    assert np.allclose(dec.frame.imag, 0)


def test_eig_swap_matrix():
    dec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(dec.frame[:, 0], [s, -s])
    assert np.allclose(dec.frame[:, 1], [s, s])


def test_eig_reconstruction_seed42():
    A = random_hermitian(np.random.default_rng(42), 6)
    dec = hermitian_eig(A)
    resid = np.abs(A @ dec.frame - dec.frame @ np.diag(dec.eigenvalues)).max()
    assert resid <= 1e-10


def test_eig_deterministic():
    A = random_hermitian(np.random.default_rng(1), 5)
    d1, d2 = hermitian_eig(A), hermitian_eig(A)
    assert np.array_equal(d1.frame, d2.frame)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)


def test_eig_phase_convention():
    dec = hermitian_eig(random_hermitian(np.random.default_rng(3), 7))
    for k in range(7):
        col = dec.frame[:, k]
        lead = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_as_hermitian_rejects():
    with pytest.raises(ValidationError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        as_hermitian(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        as_hermitian(np.array([[np.nan, 0], [0, 1]]))


# --- spectral projections ---------------------------------------------------

def test_projection_windows_diag():
    A = np.diag([-2.0, 0.5, 3.0])
    mid = spectral_projection(A, -1.0, 1.0)
    assert mid.dim == 1
    assert subspace_distance(mid, span([0, 1, 0])) < 1e-12
    hi = spectral_projection(A, 1.0, np.inf)
    assert subspace_distance(hi, span([0, 0, 1])) < 1e-12


def test_projection_swap():
    V = spectral_projection(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5, 1.5)
    assert subspace_distance(V, span([1, 1])) < 1e-12


def test_projection_full_window():
    A = random_hermitian(np.random.default_rng(5), 4)
    V = spectral_projection(A, -np.inf, np.inf)
    assert V.dim == 4


def test_projection_boundary_rejected():
    A = np.diag([-2.0, 0.5, 3.0])
    with pytest.raises(SpectralBoundaryError):
        spectral_projection(A, 0.5, np.inf)
    with pytest.raises(ValidationError):
        spectral_projection(A, 1.0, 1.0)


@given(st.integers(0, 10_000))
def test_projection_partition_dims(seed):
    """Disjoint windows are orthogonal and dims add up over a partition."""
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, 5)
    lam = np.linalg.eigvalsh(A)
    cuts = sorted(rng.uniform(lam[0], lam[-1], size=2))
    if min(np.abs(lam - cuts[0]).min(), np.abs(lam - cuts[1]).min()) < 1e-6:
        return
    parts = [
        spectral_projection(A, -np.inf, cuts[0]),
        spectral_projection(A, cuts[0], cuts[1]),
        spectral_projection(A, cuts[1], np.inf),
    ]
    assert sum(p.dim for p in parts) == 5
    for i in range(3):
        for j in range(i + 1, 3):
            if parts[i].dim and parts[j].dim:
                cross = parts[i].frame.conj().T @ parts[j].frame
                assert np.abs(cross).max() <= 1e-9


# --- absolute value and polar data -------------------------------------------

def test_absolute_value_shift():
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(absolute_value(B), np.diag([0.0, 1.0]), atol=1e-12)


def test_absolute_value_unitary():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(random_complex(rng, 4))
    assert np.abs(absolute_value(Q) - np.eye(4)).max() < 1e-9


def test_absolute_value_vs_svd_seed7():
    B = random_complex(np.random.default_rng(7), 5)
    lam = np.sort(np.linalg.eigvalsh(absolute_value(B)))
    sig = np.sort(np.linalg.svd(B, compute_uv=False))
    assert np.abs(lam - sig).max() <= 1e-10


@given(st.integers(0, 10_000))
def test_absolute_value_square_identity(seed):
    B = random_complex(np.random.default_rng(seed), 4)
    absB = absolute_value(B)
    scale = max(1.0, np.abs(B).max() ** 2)
    assert np.abs(absB @ absB - B.conj().T @ B).max() <= 1e-9 * scale


def test_absolute_value_keeps_a_small_band_under_a_large_norm():
    # through B*B the band below 0.0502 came out 1.8e-3 from the plane's band
    Q, _ = np.linalg.qr(random_complex(np.random.default_rng(0), 3))
    A = as_hermitian(Q @ np.diag([0.05, 0.0505, 5e4]) @ Q.conj().T)
    dec = hermitian_eig(A)
    band = Subspace(3, dec.frame[:, np.abs(dec.eigenvalues) < 0.0502])
    low = spectral_projection(absolute_value(A), -1.0, 0.0502)
    assert low.dim == band.dim == 1
    assert subspace_distance(low, band) <= 1e-6


def test_polar_shift_matrix():
    U = polar_partial_isometry(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(U.matrix @ np.array([0.0, 1.0]), [1.0, 0.0])
    assert subspace_distance(U.initial_space, span([0, 1])) < 1e-12
    assert subspace_distance(U.final_space, span([1, 0])) < 1e-12


def test_polar_invertible_is_unitary():
    B = random_complex(np.random.default_rng(9), 4) + 4.0 * np.eye(4)
    U = polar_partial_isometry(B).matrix
    assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-9


def test_polar_rank2_projector():
    rng = np.random.default_rng(11)
    X = random_complex(rng, 4)
    B = X[:, :2] @ X[:2, :]  # rank 2
    U = polar_partial_isometry(B)
    # U*U projects onto the orthogonal complement of Ker B
    _, sig, Vh = np.linalg.svd(B)
    cokernel = Vh.conj().T[:, :2]
    P = cokernel @ cokernel.conj().T
    assert np.abs(U.matrix.conj().T @ U.matrix - P).max() <= 1e-9


def test_polar_identity_200_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        B = random_complex(rng, n)
        U = polar_partial_isometry(B)
        absB = absolute_value(B)
        assert np.abs(U.matrix @ absB - B).max() <= 1e-9 * max(1.0, np.abs(B).max())


def test_svd_matched_reconstructs():
    B = random_complex(np.random.default_rng(13), 5)
    W, sig, V = svd_matched(B)
    assert np.abs(W @ np.diag(sig) @ V.conj().T - B).max() < 1e-10


# --- subspace geometry --------------------------------------------------------

def test_distance_examples():
    assert subspace_distance(span([1, 0]), span([1, 0])) == 0.0
    assert abs(subspace_distance(span([1, 0]), span([0, 1])) - 1.0) < 1e-12
    th = 0.3
    tilted = span([np.cos(th), np.sin(th)])
    assert abs(subspace_distance(span([1, 0]), tilted) - abs(np.sin(th))) < 1e-12


@given(st.integers(0, 10_000))
def test_distance_triangle(seed):
    rng = np.random.default_rng(seed)
    n = 5
    U = random_subspace(rng, n, int(rng.integers(1, n)))
    V = random_subspace(rng, n, int(rng.integers(1, n)))
    W = random_subspace(rng, n, int(rng.integers(1, n)))
    duv = subspace_distance(U, V)
    duw = subspace_distance(U, W)
    dwv = subspace_distance(W, V)
    assert duv <= duw + dwv + 1e-9


def test_inclusion_residual_semantics():
    inner = span([1, 0, 0])
    outer = span([1, 0, 0], [0, 1, 0])
    assert inclusion_residual(inner, outer) < 1e-12
    assert abs(inclusion_residual(span([0, 0, 1]), outer) - 1.0) < 1e-12
    th = 0.25
    tilted = span([np.cos(th), 0, np.sin(th)])
    assert abs(inclusion_residual(tilted, outer) - abs(np.sin(th))) < 1e-12


@given(st.integers(0, 10_000))
def test_stacked_distances_and_inclusions_match_the_one_pair_formulas(seed):
    # the per-pair formulas written out: projector difference norm by
    # eigvalsh, inclusion residual as the 2-norm of (I - P_outer) inner
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    A = [random_subspace(rng, n, int(rng.integers(0, n + 1))) for _ in range(6)]
    B = [random_subspace(rng, n, int(rng.integers(0, n + 1))) for _ in range(6)]
    d = subspace_distances([V.frame for V in A], [W.frame for W in B])
    for k, (V, W) in enumerate(zip(A, B)):
        want = float(np.abs(np.linalg.eigvalsh(V.projector() - W.projector())).max())
        assert d[k] == subspace_distance(V, W) == want
        R = V.frame - W.projector() @ V.frame
        assert inclusion_residual(V, W) == (float(np.linalg.norm(R, 2)) if V.dim else 0.0)


def test_zero_subspace_first_class():
    z = Subspace.zero(4)
    assert z.dim == 0
    assert subspace_distance(z, z) == 0.0
    assert inclusion_residual(z, span([1, 0, 0, 0])) == 0.0
    assert orthogonal_complement(z).dim == 4


def test_orthogonal_complement_props():
    rng = np.random.default_rng(17)
    V = random_subspace(rng, 6, 2)
    W = orthogonal_complement(V)
    assert W.dim == 4
    assert np.abs(V.frame.conj().T @ W.frame).max() < 1e-10
    assert subspace_distance(orthogonal_complement(W), V) < 1e-9


def test_subspace_validation():
    with pytest.raises(ValidationError):
        Subspace(3, np.ones((3, 2)))  # not orthonormal
    with pytest.raises(ValidationError):
        Subspace(3, np.eye(4))


def test_caller_built_decomposition_is_checked():
    lam = np.array([-1.0, 2.0])
    with pytest.raises(ValidationError, match="sorted ascending"):
        SpectralDecomposition(eigenvalues=lam[::-1], frame=np.eye(2))
    with pytest.raises(ValidationError, match="not orthonormal"):
        SpectralDecomposition(eigenvalues=lam, frame=2.0 * np.eye(2))
    with pytest.raises(ValidationError, match="shape mismatch"):
        SpectralDecomposition(eigenvalues=lam, frame=np.eye(3))
    SpectralDecomposition(eigenvalues=lam, frame=np.eye(2))


def test_orthonormal_image_expect_dim():
    cols = np.column_stack([E[:, 0], E[:, 0]])  # rank 1
    with pytest.raises(ModelViolationError):
        orthonormal_image(cols, expect_dim=2)
    F = orthonormal_image(cols, expect_dim=1)
    assert F.shape == (6, 1)


def test_fix_phases_idempotent():
    rng = np.random.default_rng(23)
    F, _ = np.linalg.qr(random_complex(rng, 5))
    G = fix_phases(F)
    assert np.allclose(fix_phases(G), G, atol=1e-14)
    # the leading significant entry of every column ends up real positive
    for k in range(G.shape[1]):
        lead = G[:, k][np.flatnonzero(np.abs(G[:, k]) > 1e-9)[0]]
        assert abs(lead.imag) < 1e-14 and lead.real > 0


# --- convex combinations of nested projections -------------------------------

def c2_example():
    K = span([1, 1])
    chain = [Subspace.full(2), span([1, 0])]
    return K, chain


def test_combination_c2_half_half():
    K, chain = c2_example()
    L = convex_combination_image(K, chain, [0.5, 0.5])
    assert subspace_distance(L, span([1.0, 0.5])) < 1e-12


def test_combination_weight_on_identity():
    K, chain = c2_example()
    L = convex_combination_image(K, chain, [1.0, 0.0])
    assert subspace_distance(L, K) < 1e-12


def test_combination_trivial_chain_returns_K():
    rng = np.random.default_rng(29)
    K = random_subspace(rng, 4, 2)
    L = convex_combination_image(K, [Subspace.full(4)], [1.0])
    assert subspace_distance(L, K) < 1e-12


@given(st.integers(0, 10_000))
def test_combination_matches_operator_sum(seed):
    """dim L = dim K and L equals the image under the explicit sum of
    weighted projectors, for random nested chains in C^6."""
    rng = np.random.default_rng(seed)
    dims = sorted(rng.choice(np.arange(1, 6), size=2, replace=False))[::-1]
    big = random_subspace(rng, 6, int(dims[0]))
    keep = rng.permutation(int(dims[0]))[: int(dims[1])]
    small = Subspace(6, big.frame[:, sorted(keep)])
    chain = [Subspace.full(6), big, small]
    w = rng.uniform(0.1, 1.0, size=3)
    w /= w.sum()
    K = random_subspace(rng, 6, int(dims[1]))
    M = w[0] * np.eye(6) + w[1] * big.projector() + w[2] * small.projector()
    mapped = M @ K.frame
    if np.linalg.svd(mapped, compute_uv=False)[-1] < 1e-6:
        return  # tail not injective enough for the oracle comparison
    try:
        L = convex_combination_image(K, chain, w)
    except InjectivityError:
        return
    assert L.dim == K.dim
    Q, _ = np.linalg.qr(mapped)
    assert subspace_distance(L, Subspace(6, Q[:, : K.dim])) < 1e-8


def test_combination_rejects_non_nested():
    chain = [span([1, 0, 0]), span([0, 1, 0])]
    with pytest.raises(ValidationError):
        convex_combination_image(span([1, 0, 0]), chain, [0.5, 0.5])


def test_combination_rejects_bad_weights():
    K, chain = c2_example()
    with pytest.raises(ValidationError):
        convex_combination_image(K, chain, [0.7, 0.7])
    with pytest.raises(ValidationError):
        convex_combination_image(K, chain, [1.5, -0.5])


def test_combination_tail_injectivity_error():
    K = span([0, 1])  # orthogonal to the chain tail span{e1}
    chain = [Subspace.full(2), span([1, 0])]
    with pytest.raises(InjectivityError) as exc:
        convex_combination_image(K, chain, [0.5, 0.5])
    # the failing direction is attached for diagnostics
    assert getattr(exc.value, "direction", None) is not None


def test_combination_path_endpoints_and_midpoint():
    K, chain = c2_example()
    w = [0.5, 0.5]
    assert subspace_distance(combination_path(K, chain, w, 0.0), K) < 1e-12
    L = convex_combination_image(K, chain, w)
    assert subspace_distance(combination_path(K, chain, w, 1.0), L) < 1e-12
    mid = combination_path(K, chain, w, 0.5)
    assert subspace_distance(mid, span([1.0, 0.75])) < 1e-12


def test_combination_path_validates_s():
    K, chain = c2_example()
    with pytest.raises(ValidationError):
        combination_path(K, chain, [0.5, 0.5], 1.5)


@settings(max_examples=20)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_combination_path_keeps_dimension(seed, s):
    rng = np.random.default_rng(seed)
    big = random_subspace(rng, 5, 3)
    small = Subspace(5, big.frame[:, :2])
    chain = [Subspace.full(5), big, small]
    w = np.array([0.2, 0.3, 0.5])
    K = Subspace(5, small.frame)  # safely injective onto the tail
    V = combination_path(K, chain, w, s)
    assert V.dim == K.dim
