"""Dense Hermitian linear algebra primitives.

Everything downstream (atlas construction, flow counting, band bookkeeping,
section deformation) reduces to a handful of operations on complex matrices:
eigendecomposition with deterministic output, spectral window projections,
polar data of a general square matrix, distances and inclusions between
subspaces, and convex combinations of projections onto a nested chain.

All functions are pure. Matrices are numpy arrays of complex128; subspaces
are carried as orthonormal column frames. Zero-dimensional subspaces are
first-class values (frames with zero columns) so kernels of invertible
operators need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InjectivityError,
    ModelViolationError,
    PathDegeneracyError,
    RankThresholdError,
    SpectralBoundaryError,
    ValidationError,
)

# Relative tolerance for the Hermitian symmetry check, scaled by max|A|.
HERMITIAN_TOL_FACTOR = 1e-12
# Orthonormality defect allowed in a frame (frame* frame vs identity).
FRAME_ORTHO_TOL = 1e-10
# Window endpoints must clear every eigenvalue by this factor times the
# spectral radius; anything closer is treated as an input error.
BOUNDARY_TOL_FACTOR = 1e-9
# Rank cutoff for singular values, relative to the largest one.
RANK_TOL_FACTOR = 1e-10
# Smallest singular value of a restricted projection still counted injective.
INJ_TOL = 1e-8
# Residual allowed in A @ frame = frame @ diag(eigenvalues).
RECON_TOL = 1e-9

_PHASE_TOL = 1e-9


def checked_stack(S: np.ndarray, hermitian: bool = True) -> np.ndarray:
    """Validate a (N, n, n) complex stack in one pass; returns a new stack.

    Each A_k must be finite and, when hermitian, have max|A_k - A_k*| within
    HERMITIAN_TOL_FACTOR * max(max|A_k|, 1); it then comes back as the exactly
    Hermitian 0.5 (A_k + A_k*). The first failing A_k raises."""
    finite = np.isfinite(S).all(axis=(1, 2))
    if not hermitian:
        if not finite.all():
            raise ValidationError("matrix has non-finite entries")
        return S.copy()
    St, out = S.transpose(0, 2, 1), np.empty_like(S)  # the scratch, so no stack temporaries
    tol = HERMITIAN_TOL_FACTOR * np.maximum(np.abs(S, out=out.real).max(axis=(1, 2)), 1.0)
    with np.errstate(invalid="ignore"):
        defect = np.hypot(np.subtract(S.real, St.real, out=out.real),
                          np.add(S.imag, St.imag, out=out.imag), out=out.real).max(axis=(1, 2))
    bad = ~finite | (defect > tol)
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            raise ValidationError("matrix has non-finite entries")
        raise ValidationError(f"matrix is not Hermitian: max|A - A*| = {defect[k]:.3e} "
                              f"exceeds {HERMITIAN_TOL_FACTOR:.0e} * max|A|")
    np.add(S.real, St.real, out=out.real)
    np.subtract(S.imag, St.imag, out=out.imag)
    return np.multiply(out, 0.5, out=out)


def _square(entries) -> np.ndarray:
    B = np.asarray(entries, dtype=np.complex128)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {B.shape}")
    return B


def as_square_matrix(entries) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    return checked_stack(_square(entries)[None], hermitian=False)[0]


def as_hermitian(entries) -> np.ndarray:
    """The symmetrized matrix, validated as the one-matrix case of checked_stack."""
    return checked_stack(_square(entries)[None])[0]


def _fix_phases_inplace(F: np.ndarray) -> None:
    """Rotate each column of each frame in F (..., n, k) so its first
    significant component is real positive; numerically zero columns stay."""
    mag = np.abs(F)
    first = np.argmax(mag > _PHASE_TOL, axis=-2)[..., None, :]
    c = np.take_along_axis(F, first, axis=-2)
    r = np.take_along_axis(mag, first, axis=-2)
    has = r > _PHASE_TOL
    np.multiply(F, np.conj(c) / np.where(has, r, 1.0), out=F, where=has)


def fix_phases(frame: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive.

    Makes eigenvector and singular-vector frames deterministic up to the
    underlying LAPACK call. Columns that are numerically zero are left alone.
    """
    F = np.array(frame, dtype=np.complex128, copy=True)
    _fix_phases_inplace(F)
    return F


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues sorted ascending with a matching orthonormal frame."""

    eigenvalues: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        F = np.asarray(self.frame, dtype=np.complex128)
        if lam.ndim != 1 or F.ndim != 2 or F.shape[1] != lam.size:
            raise ValidationError("eigenvalue/frame shape mismatch")
        if np.any(np.diff(lam) < 0):
            raise ValidationError("eigenvalues must be sorted ascending")
        gram = F.conj().T @ F
        if np.abs(gram - np.eye(lam.size)).max() > FRAME_ORTHO_TOL:
            raise ValidationError("eigenvector frame is not orthonormal")

    @classmethod
    def _checked(cls, eigenvalues: np.ndarray, frame: np.ndarray) -> "SpectralDecomposition":
        """Wrap one row of hermitian_eig_stack output, which has already been
        checked for order, orthonormality and residual, without re-checking."""
        dec = object.__new__(cls)
        object.__setattr__(dec, "eigenvalues", eigenvalues)
        object.__setattr__(dec, "frame", frame)
        return dec

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max()) if self.dim else 0.0


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace carried as an orthonormal column frame.

    dim 0 is allowed; the frame then has shape (ambient_dim, 0).
    """

    ambient_dim: int
    frame: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.frame, dtype=np.complex128)
        if F.ndim != 2 or F.shape[0] != self.ambient_dim:
            raise ValidationError(
                f"frame shape {F.shape} does not match ambient dim {self.ambient_dim}"
            )
        if F.shape[1] > 0:
            gram = F.conj().T @ F
            if np.abs(gram - np.eye(F.shape[1])).max() > FRAME_ORTHO_TOL:
                raise ValidationError("subspace frame is not orthonormal")
        object.__setattr__(self, "frame", F)

    @classmethod
    def _checked(cls, ambient_dim: int, frame: np.ndarray) -> "Subspace":
        """Wrap a complex128 run of the certified plane's frame columns unchecked."""
        V = object.__new__(cls)
        object.__setattr__(V, "ambient_dim", ambient_dim)
        object.__setattr__(V, "frame", frame)
        return V

    @property
    def dim(self) -> int:
        return int(self.frame.shape[1])

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class PartialIsometry:
    """Matrix acting isometrically from initial_space onto final_space."""

    matrix: np.ndarray
    initial_space: Subspace
    final_space: Subspace

    def __post_init__(self):
        U = np.asarray(self.matrix, dtype=np.complex128)
        p_init = self.initial_space.projector()
        p_fin = self.final_space.projector()
        if np.abs(U.conj().T @ U - p_init).max() > 1e-9:
            raise ValidationError("U*U does not match the initial-space projector")
        if np.abs(U @ U.conj().T - p_fin).max() > 1e-9:
            raise ValidationError("UU* does not match the final-space projector")
        object.__setattr__(self, "matrix", U)


def _residual(As: np.ndarray, lam: np.ndarray, F: np.ndarray) -> np.ndarray:
    """R = A F - F diag(lam) over a stack, from one stacked matmul."""
    R = As @ F
    R -= F * lam[:, None, :]
    return R


def eigen_residual(As: np.ndarray, lam: np.ndarray, F: np.ndarray) -> tuple:
    """Per-sample eigen-residual of a stack and the bound it must meet.

    As is (N, n, n), lam (N, n) and F (N, n, n). Returns (resid, tol), both
    (N,): resid[x] is max|A F - F diag(lam)| at sample x and tol[x] is
    RECON_TOL * (1 + max|lam[x]|).
    """
    resid = np.abs(_residual(As, lam, F)).max(axis=(1, 2))
    return resid, RECON_TOL * (1.0 + np.abs(lam).max(axis=1))


def plane_certificate(As: np.ndarray, lam: np.ndarray, F: np.ndarray) -> tuple:
    """(eta, cols, ortho) per sample: how far the exact spectrum of the
    Hermitian stack As lies from its plane (lam, F), rows of lam ascending.

    cols[x, j] bounds the exact ||A v_j - lam_j v_j||, the computed value plus
    2 g (||A||_F + max|lam|) ||v_j|| for forming it, g = gamma_{n+2} =
    (n + 2) u / (1 - (n + 2) u), u = 2^-53; ortho[x] bounds ||F*F - I||_F, plus
    g ||F||_F^2. By Kahan's residual bound (B. Parlett, The Symmetric
    Eigenvalue Problem, 1980, ch. 11) the sorted exact eigenvalues lie within
    eta = ||cols[x]|| / sqrt(1 - ortho) of lam (inf once ortho >= 1).
    """
    n = As.shape[-1]
    g = (n + 2) * 2.0**-53 / (1.0 - (n + 2) * 2.0**-53)
    vnorm = np.linalg.norm(F, axis=1)
    scale = np.linalg.norm(As, axis=(1, 2)) + np.abs(lam).max(axis=1)
    cols = np.linalg.norm(_residual(As, lam, F), axis=1) + 2.0 * g * scale[:, None] * vnorm
    E = F.conj().transpose(0, 2, 1) @ F - np.eye(n)
    ortho = np.linalg.norm(E, axis=(1, 2)) + g * (vnorm**2).sum(axis=1)
    with np.errstate(divide="ignore"):
        eta = np.linalg.norm(cols, axis=1) / np.sqrt(np.maximum(1.0 - ortho, 0.0))
    return np.where(ortho < 1.0, eta, np.inf), cols, ortho


def hermitian_eig_stack(As: np.ndarray) -> tuple:
    """Eigendecompositions of a (N, n, n) stack of Hermitian matrices.

    One np.linalg.eigh call solves the whole stack. Each row of eigenvalues
    comes back ascending; each eigenvector's phase is fixed, in place, so
    that its first significant component is real positive. For every sample
    the residual A F - F diag(lam) (within eigen_residual's bound),
    the ascending order and the orthonormality of F (within FRAME_ORTHO_TOL)
    are asserted; a failure raises ModelViolationError naming the first bad
    sample. The inputs must already be exactly Hermitian (see as_hermitian).

    Returns (lam, F) with shapes (N, n) and (N, n, n).
    """
    lam, F = np.linalg.eigh(As)
    _fix_phases_inplace(F)
    resid, tol = eigen_residual(As, lam, F)
    ortho = np.abs(F.conj().transpose(0, 2, 1) @ F - np.eye(As.shape[-1])).max(axis=(1, 2))
    unsorted = np.any(np.diff(lam, axis=1) < 0, axis=1)
    bad_resid = resid > tol
    bad_ortho = ortho > FRAME_ORTHO_TOL
    bad = bad_resid | unsorted | bad_ortho
    if bad.any():
        k = int(np.argmax(bad))
        if bad_resid[k]:
            raise ModelViolationError(
                f"sample {k}: eigendecomposition residual {resid[k]:.3e} exceeds tolerance"
            )
        if unsorted[k]:
            raise ModelViolationError(f"sample {k}: eigenvalues are not sorted ascending")
        raise ModelViolationError(
            f"sample {k}: eigenvector frame is not orthonormal (defect {ortho[k]:.3e})"
        )
    return lam, F


def hermitian_eig(A) -> SpectralDecomposition:
    """Eigendecomposition of one Hermitian matrix, deterministic for fixed input.

    The one-matrix case of hermitian_eig_stack: eigenvalues ascending, each
    eigenvector's first significant component real positive, and the same
    residual, order and orthonormality checks (the sample named is 0).
    """
    lam, F = hermitian_eig_stack(as_hermitian(A)[None])
    return SpectralDecomposition._checked(lam[0], F[0])


def window_boundary_error(lam: np.ndarray, lo, hi: float):
    """first_edge_error for the window (lo, hi), lo checked before hi.

    lo is a float or an (N,) array of per-row lower ends. An empty window
    raises ValidationError at once.
    """
    if not (np.less(lo, hi).all() if isinstance(lo, np.ndarray) else lo < hi):
        raise ValidationError(f"empty window ({lo}, {hi})")
    return first_edge_error(lam, lo, hi)


def first_edge_error(lam: np.ndarray, *edges):
    """First row of the (N, n) eigenvalue table lam with an ambiguous edge.

    Each edge is a float (infinite ones are skipped) or an (N,) array. An edge
    is ambiguous at a row within BOUNDARY_TOL_FACTOR times that row's spectral
    radius of one of its eigenvalues. Returns (row, SpectralBoundaryError
    naming that eigenvalue), earlier edges first within a row, or None."""
    if lam.shape[1] == 0:
        return None
    tol = BOUNDARY_TOL_FACTOR * np.abs(lam).max(axis=1)
    first = None
    for edge in edges:
        per_row = isinstance(edge, np.ndarray)
        if not per_row and not np.isfinite(edge):
            continue
        d = np.abs(lam - (edge[:, None] if per_row else edge))
        j = np.argmin(d, axis=1)
        dj = d[np.arange(lam.shape[0]), j]
        hit = np.flatnonzero(dj <= tol)
        if hit.size and (first is None or hit[0] < first[0]):
            x = int(hit[0])
            at = edge[x] if per_row else edge
            first = (x, SpectralBoundaryError(
                f"eigenvalue {lam[x, j[x]]:.12g} sits at window endpoint {at:.12g} "
                f"(distance {dj[x]:.3e} <= tol {tol[x]:.3e})"
            ))
    return first


def window_runs(lam: np.ndarray, lo: float, hi: float) -> tuple:
    """(window_boundary_error's hit, a, b) for the window (lo, hi) over an (N, n)
    table lam with ascending rows: the eigenvalues strictly inside it at a row
    x before the hit are the columns a[x]:b[x] of that row's frame."""
    hit = window_boundary_error(lam, lo, hi)
    return hit, (lam <= lo).sum(axis=1), (lam < hi).sum(axis=1)


def window_columns(lam: np.ndarray, lo: float, hi: float) -> tuple:
    """(a, b) of window_runs; an empty window or an ambiguous edge raises."""
    hit, a, b = window_runs(lam, lo, hi)
    if hit is not None:
        raise hit[1]
    return a, b


def spectral_projection(A, lo: float, hi: float) -> Subspace:
    """Span of eigenvectors with eigenvalues strictly inside (lo, hi).

    Either endpoint may be infinite. Finite endpoints must clear every
    eigenvalue by BOUNDARY_TOL_FACTOR times the spectral radius, otherwise
    the window is ambiguous and a SpectralBoundaryError names the offender.
    """
    dec = hermitian_eig(A)
    (a,), (b,) = window_columns(dec.eigenvalues[None], lo, hi)
    return Subspace(dec.frame.shape[0], dec.frame[:, a:b])


def absolute_value(B) -> np.ndarray:
    """|B| = sqrt(B* B) as V diag(sigma) V* from svd_matched, which keeps small
    singular values accurate where forming B* B would square B's condition."""
    _, sigma, V = svd_matched(B)
    out = (V * sigma) @ V.conj().T
    return 0.5 * (out + out.conj().T)


def svd_matched(B) -> tuple:
    """SVD with phases matched between the two frames.

    Returns (W, sigma, V) with B = W diag(sigma) V*. Each column of V gets
    its first significant component made real positive and the same phase is
    applied to the matching column of W, so the product is untouched while
    both frames become deterministic.
    """
    B = as_square_matrix(B)
    W, sigma, Vh = np.linalg.svd(B)
    V = Vh.conj().T
    for k in range(sigma.size):
        col = V[:, k]
        idx = np.flatnonzero(np.abs(col) > _PHASE_TOL)
        if idx.size == 0:
            continue
        ph = np.conj(col[idx[0]]) / np.abs(col[idx[0]])
        V[:, k] = col * ph
        W[:, k] = W[:, k] * ph
    return W, sigma, V


def polar_partial_isometry(B) -> PartialIsometry:
    """Polar factor U with B = U |B|, Ker U = Ker B, Im U = Im B.

    Rank is decided by the singular-value cutoff RANK_TOL_FACTOR * sigma_max.
    Singular values falling strictly inside (cutoff/10, cutoff*10) make the
    rank ill conditioned and raise RankThresholdError.
    """
    B = as_square_matrix(B)
    n = B.shape[0]
    W, sigma, V = svd_matched(B)
    smax = float(sigma[0]) if sigma.size else 0.0
    cutoff = RANK_TOL_FACTOR * smax
    if smax > 0.0:
        bad = (sigma > cutoff / 10.0) & (sigma < cutoff * 10.0)
        if np.any(bad):
            raise RankThresholdError(
                f"singular value {sigma[bad][0]:.3e} lies in the ambiguous band "
                f"around rank cutoff {cutoff:.3e}"
            )
    rank = int(np.sum(sigma > cutoff))
    V = V[:, :rank]
    Wl = W[:, :rank]
    U = Wl @ V.conj().T
    absB = (V * sigma[:rank]) @ V.conj().T if rank else np.zeros_like(B)
    # Complete |B| on the kernel with zeros; U |B| must reproduce B.
    if np.abs(U @ absB - B).max() > 1e-9 * max(smax, 1.0):
        raise ModelViolationError("polar identity U|B| = B failed beyond tolerance")
    return PartialIsometry(
        matrix=U,
        initial_space=Subspace(n, V),
        final_space=Subspace(n, Wl),
    )


def orthogonal_complement(V: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space, deterministically framed."""
    n = V.ambient_dim
    if V.dim == 0:
        return Subspace.full(n)
    if V.dim == n:
        return Subspace.zero(n)
    W, _, _ = np.linalg.svd(V.frame, full_matrices=True)
    return Subspace(n, fix_phases(W[:, V.dim:]))


def _stacks(frames, *keys):
    """Rows grouped by frame dim and the (N,) keys: (keys, rows, frame stack)."""
    K = np.stack([[V.shape[1] for V in frames], *keys], axis=1)
    for row in np.unique(K, axis=0):
        xs = np.flatnonzero((K == row).all(axis=1))
        yield row[1:].tolist(), xs, np.stack([frames[x] for x in xs])


def _projectors(S: np.ndarray) -> np.ndarray:
    return S @ S.conj().transpose(0, 2, 1)


def _projector_stack(frames) -> np.ndarray:
    """(N, n, n) projectors of N frames, one stacked matmul per frame dim."""
    P = np.empty((len(frames),) + (frames[0].shape[0],) * 2, dtype=np.complex128)
    for _, xs, S in _stacks(frames):
        P[xs] = _projectors(S)
    return P


def subspace_distances(frames_a, frames_b) -> np.ndarray:
    """(N,) norms of P_a - P_b over two lists of N frames, bitwise subspace_distance:
    projectors by stacked matmul, then one stacked eigvalsh of the differences."""
    D = _projector_stack(frames_a)
    D -= _projector_stack(frames_b)
    return np.abs(np.linalg.eigvalsh(D)).max(axis=1)


def subspace_distance(V: Subspace, W: Subspace) -> float:
    """Operator norm of the projector difference P_V - P_W."""
    if V.ambient_dim != W.ambient_dim:
        raise ValidationError(
            f"ambient dims differ: {V.ambient_dim} vs {W.ambient_dim}"
        )
    return float(subspace_distances([V.frame], [W.frame])[0])


def _inclusion_stack(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """(G,) norms of (I - P_outer) inner for stacks inner (G, n, k), outer (G, n, m)."""
    if inner.shape[2] == 0:
        return np.zeros(inner.shape[0])
    R = inner - _projectors(outer) @ inner
    return np.linalg.svd(R, compute_uv=False)[:, 0]


def inclusion_residual(inner: Subspace, outer: Subspace) -> float:
    """Spectral norm of (I - P_outer) applied to inner's frame.

    Zero iff inner is contained in outer; equals the sine of the largest
    principal angle from inner to outer. The one-pair case of the kernel of
    window_inclusions.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise ValidationError("ambient dims differ")
    return float(_inclusion_stack(inner.frame[None], outer.frame[None])[0])


def window_inclusions(lam: np.ndarray, F: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                      frames) -> tuple:
    """Sandwich residuals of N frames V_x against the windows of a spectral plane.

    lam (N, n) has ascending rows, so the window (a, inf) at row x is the last
    count(lam[x] > a) columns of F[x]. Returns (ru, rl), bitwise
    ru[x] = inclusion_residual(window(hi[x], inf), V_x) and rl[x] =
    inclusion_residual(V_x, window(lo[x], inf)): rows sharing (dim V_x, window
    rank) run as stacked matmuls and one stacked svd. An ambiguous edge raises
    first_edge_error(lam, hi, lo)."""
    hit = first_edge_error(lam, hi, lo)
    if hit is not None:
        raise hit[1]
    N, n = lam.shape
    if any(V.shape[0] != n for V in frames):
        raise ValidationError("ambient dims differ")
    out = (np.zeros(N), np.zeros(N))
    for res, edge, upper in zip(out, (hi, lo), (True, False)):
        for (m,), xs, V in _stacks(frames, (lam > edge[:, None]).sum(axis=1)):
            W = F[xs, :, n - m:]
            res[xs] = _inclusion_stack(W, V) if upper else _inclusion_stack(V, W)
    return out


def orthonormal_image(columns: np.ndarray, expect_dim: int | None = None) -> np.ndarray:
    """Orthonormal frame for the column span, via SVD with a relative cutoff.

    When expect_dim is given, a span of lower dimension raises
    ModelViolationError (the caller promised an injective map).
    """
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.shape[1] == 0:
        return cols
    W, sigma, _ = np.linalg.svd(cols, full_matrices=False)
    cut = max(float(sigma[0]), 0.0) * 1e-10
    rank = int(np.sum(sigma > cut))
    if expect_dim is not None and rank != expect_dim:
        raise ModelViolationError(
            f"column span has rank {rank}, expected {expect_dim}"
        )
    return fix_phases(W[:, :rank])


def _check_chain(chain: list[Subspace]) -> None:
    if not chain:
        raise ValidationError("chain must be nonempty")
    amb = chain[0].ambient_dim
    for i, H in enumerate(chain):
        if H.ambient_dim != amb:
            raise ValidationError("chain members live in different ambient spaces")
        if i + 1 < len(chain):
            resid = inclusion_residual(chain[i + 1], H)
            if resid > 1e-8:
                raise ValidationError(
                    f"chain is not nested at position {i}: residual {resid:.3e}"
                )


def _check_weights(weights, n: int) -> np.ndarray:
    t = np.asarray(weights, dtype=float)
    if t.ndim != 1 or t.size != n:
        raise ValidationError(f"expected {n} weights, got shape {t.shape}")
    if np.any(t < -1e-15):
        raise ValidationError("weights must be nonnegative")
    if abs(t.sum() - 1.0) > 1e-12:
        raise ValidationError(f"weights sum to {t.sum():.15f}, expected 1")
    return np.clip(t, 0.0, None)


def _combination_product(K: np.ndarray, chain, t: np.ndarray) -> np.ndarray:
    """M K for M = sum_i t_i P_i over the nested chain frames, from the
    projectors P_i formed in chain order.

    The projection onto the last member must be injective on the span of the
    frame K: its smallest singular value below INJ_TOL raises InjectivityError
    carrying the worst direction. Writing s_i for the partial sums of t and
    q_i for the projector onto the orthogonal complement of chain[i+1] inside
    chain[i], M equals sum_i s_i q_i plus the projector onto the last member:
    with the weights summing to 1 that telescoping is algebra.
    """
    P = [H @ H.conj().T for H in chain]
    if K.shape[1]:
        mapped = P[-1] @ K
        smin = float(np.linalg.svd(mapped, compute_uv=False)[-1])
        if smin < INJ_TOL:
            err = InjectivityError(
                f"projection onto the chain tail is not injective on the input "
                f"subspace (smallest singular value {smin:.3e} < {INJ_TOL:.0e})"
            )
            err.direction = K @ np.linalg.svd(mapped, full_matrices=False)[2].conj().T[:, -1]
            raise err
    return sum(ti * Pi for ti, Pi in zip(t, P)) @ K


def _combination_image(MK: np.ndarray, top: np.ndarray) -> Subspace:
    """The span of MK, orthonormalized, which must keep MK's column count
    (orthonormal_image's expect_dim) and lie inside the span of the frame top."""
    out = Subspace(MK.shape[0], orthonormal_image(MK, expect_dim=MK.shape[1]))
    resid = float(_inclusion_stack(out.frame[None], top[None])[0])
    if resid > 1e-8:
        raise ModelViolationError(
            f"combination image escapes the top chain member: residual {resid:.3e}"
        )
    return out


def _combination_step(K: Subspace, MK: np.ndarray, s: float) -> Subspace:
    """The span of (1 - s) K + s M K; a rank drop raises PathDegeneracyError."""
    if K.dim == 0:
        return K
    mapped = (1.0 - s) * K.frame + s * MK
    sigma = np.linalg.svd(mapped, compute_uv=False)
    if float(sigma[-1]) <= 1e-10 * float(sigma[0]):
        raise PathDegeneracyError(f"path loses dimension at s = {s}")
    return Subspace(K.ambient_dim, orthonormal_image(mapped, expect_dim=K.dim))


def convex_combination_image(K: Subspace, chain: list[Subspace], weights) -> Subspace:
    """Image of K under the weighted sum of chain projectors, orthonormalized.

    chain must be nested descending (chain[0] contains chain[1] and so on)
    and the projection onto the last member must be injective on K; then the
    image lies inside chain[0] and has the dimension of K, which
    orthonormal_image enforces (expect_dim), so callers need not re-check it.
    """
    _check_chain(chain)
    t = _check_weights(weights, len(chain))
    return _combination_image(_combination_product(K.frame, [H.frame for H in chain], t),
                              chain[0].frame)


def combination_path(K: Subspace, chain: list[Subspace], weights, s: float) -> Subspace:
    """Linear homotopy from K (s=0) to convex_combination_image (s=1).

    Returns the image of (1-s) I + s M applied to K, where M is the weighted
    projector sum. Dimension must stay constant along the path; a rank drop
    raises PathDegeneracyError naming the offending s.
    """
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"path parameter s={s} outside [0, 1]")
    _check_chain(chain)
    t = _check_weights(weights, len(chain))
    return _combination_step(K, _combination_product(K.frame, [H.frame for H in chain], t), s)
