"""Suspension of a self-adjoint family into a loop of unitaries-to-be.

Each operator A is swept into B(t) = cos(t) I + i sin(t) A for t in [0, pi].
At the ends B collapses to +-I, and kernels of B(t) can only appear on the
equator t = pi/2, exactly over the parameters where A itself is singular.
Counting those equatorial kernels with the direction of the crossing branch
reproduces the spectral flow of the base family by a completely different
route than the chartwise bookkeeping.

B(t) is normal with the eigenbasis of A and eigenvalues cos t + i sin t lam,
so no operator grid is stored: SuspensionFamily.operator builds B(t) on
demand. Equatorial kernel samples come from the closed-form smallest
singular value sqrt(cos^2 t + min lam^2 sin^2 t), and the index is the
signed zero-crossing count of the base's sorted branches, since the equator
slice -i B(pi/2) is A itself.

suspension_spectrum_check, band_correspondence_check and spectrum_surface
still form |B(t)|^2 explicitly, with one stacked Gram solve per angle over
every operator they are given. The base spectrum, and the base band, come
from the family's spectral plane; a single matrix is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atlas import DEFAULT_GAP_TOL
from .errors import ModelViolationError, ValidationError
from .families import OperatorFamily
from .flow import band_gap_error, net_up_crossings
from .linalg import as_hermitian, hermitian_eig_stack, window_boundary_error

SPECTRUM_IDENTITY_TOL = 1e-9
BAND_MATCH_TOL = 1e-8
KERNEL_TOL = 1e-8
EQUATOR_COS_TOL = 1e-12
WINDING_INT_TOL = 0.1


def _suspension_operator(A: np.ndarray, t: float) -> np.ndarray:
    n = A.shape[0]
    return np.cos(t) * np.eye(n, dtype=np.complex128) + 1j * np.sin(t) * A


def _suspension_grams(stack: np.ndarray, ts: list):
    """Yield (t, G) for each angle t: G holds |B(t)|^2 = B* B, symmetrized,
    for every operator of the (N, n, n) stack at once.

    B is built exactly as _suspension_operator builds it, so each Gram
    matrix is bitwise the one formed matrix by matrix. G is a buffer that
    the next angle overwrites.
    """
    eye = np.eye(stack.shape[-1], dtype=np.complex128)
    B = np.empty_like(stack)
    C = np.empty_like(stack)
    G = np.empty_like(stack)
    for tk in ts:
        np.multiply(1j * np.sin(tk), stack, out=B)
        np.add(np.cos(tk) * eye, B, out=B)
        np.conjugate(B, out=C)
        np.matmul(C.transpose(0, 2, 1), B, out=G)
        np.conjugate(G.transpose(0, 2, 1), out=C)
        np.add(G, C, out=G)
        np.multiply(0.5, G, out=G)
        yield tk, G


def _base_plane(A) -> tuple:
    """(operator stack, eigenvalue table, frames) of a family's plane, or of
    one Hermitian matrix as a stack of one."""
    if isinstance(A, OperatorFamily):
        return A.operator_stack, A.eigenvalues, A.frames
    H = as_hermitian(A)[None]
    return (H,) + hermitian_eig_stack(H)


def _angles(t) -> list:
    return np.atleast_1d(np.asarray(t, dtype=float)).tolist()


@dataclass(frozen=True, eq=False)
class SuspensionFamily:
    """Suspension of a base family over an angle grid from 0 to pi."""

    base: OperatorFamily
    t_samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_samples, dtype=np.float64)
        if t.ndim != 1 or t.size < 3:
            raise ValidationError("need at least 3 suspension angles")
        if abs(t[0]) > 0 or abs(t[-1] - np.pi) > 1e-15:
            raise ValidationError("suspension angles must run from 0 to pi")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("suspension angles must strictly increase")
        object.__setattr__(self, "t_samples", t)

    def operator(self, x: int, k: int) -> np.ndarray:
        """B(t_samples[k]) over base operator x, built on demand."""
        return _suspension_operator(self.base.operators[x], float(self.t_samples[k]))

    @property
    def n_parameters(self) -> int:
        return self.base.n_samples

    @property
    def n_angles(self) -> int:
        return int(self.t_samples.size)

    def equator_index(self) -> int:
        """Index of the angle sample sitting on the equator t = pi/2."""
        cos_t = np.cos(self.t_samples)
        hits = np.nonzero(np.abs(cos_t) <= EQUATOR_COS_TOL)[0]
        if hits.size != 1:
            raise ValidationError(
                "the angle grid must sample the equator t = pi/2 exactly once; "
                "use an odd number of angles"
            )
        return int(hits[0])


def suspend(f: OperatorFamily, t_count: int = 41) -> SuspensionFamily:
    """Build the suspension family of f on an odd uniform angle grid."""
    if t_count < 3 or t_count % 2 == 0:
        raise ValidationError(
            "t_count must be odd and at least 3 so the equator is sampled"
        )
    if not f.hermitian:
        raise ValidationError("suspension needs a self-adjoint base family")
    t = np.linspace(0.0, np.pi, t_count)
    t[(t_count - 1) // 2] = np.pi / 2
    return SuspensionFamily(base=f, t_samples=t)


def spectrum_identity_tolerance(lam: np.ndarray, t) -> np.ndarray:
    """(N, T) tolerances of the spectrum identity over angles t.

    lam is an (N, n) eigenvalue table; the cell of sample x and angle tk
    is SPECTRUM_IDENTITY_TOL times max(1, largest closed-form value
    cos^2 tk + lam^2 sin^2 tk).
    """
    lam2 = (lam**2).max(axis=1)
    top = np.stack([np.cos(tk) ** 2 + lam2 * np.sin(tk) ** 2 for tk in _angles(t)], axis=1)
    return SPECTRUM_IDENTITY_TOL * np.maximum(1.0, top)


def _spectrum_deviation(stack: np.ndarray, lam: np.ndarray, ts: list) -> np.ndarray:
    """(N, T) table: max deviation between the sorted spectrum of |B(t)|^2
    and its closed form, per operator of the stack and angle of ts."""
    dev = np.empty((len(stack), len(ts)))
    for k, (tk, G) in enumerate(_suspension_grams(stack, ts)):
        right = np.sort(np.cos(tk) ** 2 + lam**2 * np.sin(tk) ** 2, axis=1)
        dev[:, k] = np.abs(np.linalg.eigvalsh(G) - right).max(axis=1)
    return dev


def spectrum_identity_deviation(f: OperatorFamily, t) -> np.ndarray:
    """The (N, T) deviation table that suspension_spectrum_check judges.

    Computed the same way, over the family's samples and the angles t, but
    never raises: compare it with spectrum_identity_tolerance(f.eigenvalues,
    t) to judge it.
    """
    return _spectrum_deviation(f.operator_stack, f.eigenvalues, _angles(t))


def suspension_spectrum_check(A, t):
    """Verify |B(t)|^2 has spectrum {cos^2 t + lam^2 sin^2 t} over lam in spec(A).

    A is an OperatorFamily, whose eigenvalues come from its spectral plane,
    or one Hermitian matrix. t may be one angle or an array of angles. The
    Gram matrices of all operators are solved with one eigvalsh per angle.
    Returns the max absolute deviation between the two sorted spectra: an
    (N, T) table for a family, (T,) for a matrix, with the angle axis
    dropped for a scalar angle. Raises at the first (sample, angle) whose
    deviation exceeds spectrum_identity_tolerance.
    """
    stack, lam, _ = _base_plane(A)
    ts = _angles(t)
    dev = _spectrum_deviation(stack, lam, ts)
    bad = dev > spectrum_identity_tolerance(lam, ts)
    if bad.any():
        x, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ModelViolationError(
            f"suspension spectrum identity violated at t={ts[k]}: "
            f"deviation {float(dev[x, k]):.3e}"
        )
    if np.isscalar(t):
        dev = dev[:, 0]
    if not isinstance(A, OperatorFamily):
        return float(dev[0]) if np.isscalar(t) else dev[0]
    return dev


def band_correspondence_check(A, eps: float, t, samples=None):
    """Low band of |B(t)| below delta(t) matches the band of |A| below eps.

    delta(t) = sqrt(cos^2 t + eps^2 sin^2 t). Requires sin t away from 0 and
    +-eps clearing the spectrum of A by the default gap tolerance. A is an
    OperatorFamily, checked at the given sample indices (all by default)
    with its band read from the spectral plane, or one Hermitian matrix.
    The low band of |B| comes from one stacked eigh of the Gram matrices
    per angle, and the distances between bands from one stacked eigvalsh.
    Returns an (M, T) bool table for a family, (T,) for a matrix, with the
    angle axis dropped for a scalar angle (a bool for a matrix). Errors
    arise in the order of a sample-by-sample walk: at each sample the base
    gap first, then a window edge on an eigenvalue of |B| angle by angle.
    """
    ts = _angles(t)
    if np.any(np.abs(np.sin(ts)) < 1e-9):
        raise ValidationError("band correspondence needs sin t bounded away from 0")
    if not eps > 0:
        raise ValidationError(f"band radius must be positive, got {eps}")
    stack, lam, F = _base_plane(A)
    if samples is not None:
        rows = np.asarray(samples, dtype=int)
        stack, lam, F = stack[rows], lam[rows], F[rows]
    first = band_gap_error(lam, eps, DEFAULT_GAP_TOL)
    inside = np.abs(lam) < eps
    P_base = np.where(inside[:, None, :], F, 0.0) @ F.conj().transpose(0, 2, 1)
    dims = inside.sum(axis=1)
    oks = np.empty((len(stack), len(ts)), dtype=bool)
    for k, (tk, G) in enumerate(_suspension_grams(stack, ts)):
        delta = float(np.sqrt(np.cos(tk) ** 2 + eps**2 * np.sin(tk) ** 2))
        mu, W = np.linalg.eigh(G)
        abs_b = np.sqrt(np.clip(mu, 0.0, None))
        hit = window_boundary_error(abs_b, -1.0, delta)
        if hit is not None and (first is None or hit[0] < first[0]):
            first = hit
        low = abs_b < delta
        P = np.where(low[:, None, :], W, 0.0) @ W.conj().transpose(0, 2, 1)
        dist = np.abs(np.linalg.eigvalsh(P - P_base)).max(axis=1)
        oks[:, k] = (low.sum(axis=1) == dims) & (dist <= BAND_MATCH_TOL)
    if first is not None:
        raise first[1]
    if np.isscalar(t):
        oks = oks[:, 0]
    if not isinstance(A, OperatorFamily):
        return bool(oks[0]) if np.isscalar(t) else oks[0]
    return oks


def zero_band_check(A: np.ndarray, delta: float, t: float) -> bool:
    """Below |cos t| the absolute value of B(t) has no spectrum at all."""
    if abs(np.sin(t)) < 1e-9:
        raise ValidationError("zero band check needs sin t bounded away from 0")
    if delta < 0 or delta**2 >= np.cos(t) ** 2:
        raise ValidationError("zero band check applies only for delta < |cos t|")
    B = _suspension_operator(np.asarray(A, dtype=np.complex128), t)
    sing = np.linalg.svd(B, compute_uv=False)
    return not bool(np.any(sing <= delta))


@dataclass(frozen=True)
class SuspensionIndexData:
    """Signed equatorial kernel count plus the auxiliary determinant winding."""

    index: int
    kernel_samples: tuple
    det_winding: Optional[int]
    winding_residual: Optional[float]


def suspension_index(sf: SuspensionFamily, kernel_tol: float = KERNEL_TOL) -> SuspensionIndexData:
    """Count equatorial kernels of the suspension with crossing signs.

    Kernels are read off the closed-form smallest singular value of B(t);
    off-equator kernels contradict the model and raise. The signed count is
    taken over the base's sorted eigenvalue branches, which are the
    branches of the equator slice -i B(pi/2) = A. For exact-loop bases the
    winding number of det B along a contour hugging the equator is computed
    as an independent auxiliary report.
    """
    te = sf.equator_index()
    f = sf.base
    lam = f.eigenvalues
    t = sf.t_samples
    smin = np.sqrt(np.cos(t) ** 2 + np.min(lam**2, axis=1)[:, None] * np.sin(t) ** 2)
    kernel = smin <= kernel_tol
    off = kernel.copy()
    off[:, te] = False
    if off.any():
        x, k = np.argwhere(off)[0]
        raise ModelViolationError(
            f"kernel detected off the equator at parameter {x}, "
            f"angle index {k} (smallest singular value {smin[x, k]:.3e})"
        )
    det_winding = None
    winding_residual = None
    if f.grid.closure == "exact_loop":
        det_winding, winding_residual = _det_winding(sf, te)
    return SuspensionIndexData(
        index=net_up_crossings(lam),
        kernel_samples=tuple(int(x) for x in np.flatnonzero(kernel[:, te])),
        det_winding=det_winding,
        winding_residual=winding_residual,
    )


def _det_winding(sf: SuspensionFamily, te: int):
    """Winding of det B around a thin rectangle enclosing the equator line.

    The two long legs run along the angle rows adjacent to the equator; the
    short legs close the contour at the loop seam, where the base operators
    at both ends coincide.
    """
    lo, hi = te - 1, te + 1
    m = sf.n_parameters - 1
    contour = [(x, lo) for x in range(0, m + 1)]
    contour.append((m, te))
    contour.extend((x, hi) for x in range(m, -1, -1))
    contour.append((0, te))
    contour.append((0, lo))
    dets = np.array([np.linalg.det(sf.operator(x, k)) for x, k in contour])
    if np.any(np.abs(dets) < 1e-12):
        return None, None
    angles = np.angle(dets[1:] / dets[:-1])
    w = float(np.sum(angles) / (2.0 * np.pi))
    residual = abs(w - round(w))
    if residual > WINDING_INT_TOL:
        raise ModelViolationError(
            f"determinant winding {w:.6f} is not close to an integer"
        )
    return int(round(w)), residual


def spectrum_surface(sf: SuspensionFamily) -> np.ndarray:
    """Eigenvalues of |B|^2 over the (parameter, angle) grid.

    Returns an array of shape (n_parameters, n_angles, dim), eigenvalues
    ascending in the last axis.
    """
    out = np.empty((sf.n_parameters, sf.n_angles, sf.base.dim))
    grams = _suspension_grams(sf.base.operator_stack, sf.t_samples.tolist())
    for k, (_, G) in enumerate(grams):
        out[:, k] = np.linalg.eigvalsh(G)
    return out
