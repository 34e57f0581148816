"""Suspension of a self-adjoint family into a loop of unitaries-to-be.

Each operator A is swept into B(t) = cos(t) I + i sin(t) A for t in [0, pi].
At the ends B collapses to +-I, and kernels of B(t) can only appear on the
equator t = pi/2, exactly over the parameters where A itself is singular.
Counting those equatorial kernels with the direction of the crossing branch
reproduces the spectral flow of the base family by a completely different
route than the chartwise bookkeeping.

B(t) is normal with the eigenbasis of A and eigenvalues cos t + i sin t lam,
so no operator grid is stored: _suspension_operator builds B on demand for a
stack of (operator, angle) pairs, serving SuspensionFamily.operator, the zero
band check and the determinant contour alike. Equatorial kernel samples come
from the closed-form smallest singular value sqrt(cos^2 t + min lam^2 sin^2 t),
and the index is the signed zero-crossing count of the base's sorted
branches, since the equator slice -i B(pi/2) is A itself. On exact loops the
winding of det B around the equator is an auxiliary report, read off one
stacked determinant over the whole contour.

Nothing here solves |B(t)|^2: B(t)*B(t) = cos^2 t + sin^2 t A^2 by algebra,
so the spectrum identity and the band correspondence test only the accuracy
of the base plane, read off its certificate eta (linalg.plane_certificate).
spectrum_surface is the closed form itself, and the band correspondence
reads its window edges off one (sample, angle) table of it. A single matrix
is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atlas import DEFAULT_GAP_TOL, band_gap_error
from .errors import ModelViolationError, ValidationError
from .families import OperatorFamily
from .flow import net_up_crossings
from .linalg import as_hermitian, first_edge_error, hermitian_eig_stack, plane_certificate

SPECTRUM_IDENTITY_TOL = 1e-9
BAND_MATCH_TOL = 1e-8
KERNEL_TOL = 1e-8
EQUATOR_COS_TOL = 1e-12
WINDING_INT_TOL = 0.1


def _suspension_operator(A: np.ndarray, t) -> np.ndarray:
    """B = cos t I + (i sin t) A; an (M, n, n) stack of A with (M,) angles gives M of them."""
    t = np.asarray(t, dtype=np.float64)[..., None, None]
    return np.cos(t) * np.eye(A.shape[-1], dtype=np.complex128) + (1j * np.sin(t)) * A


def _base_plane(A) -> tuple:
    """(eigenvalues, certificate) of a family's plane, or of one matrix's."""
    if isinstance(A, OperatorFamily):
        return A.eigenvalues, A.certificate
    H = as_hermitian(A)[None]
    lam, F = hermitian_eig_stack(H)
    return lam, plane_certificate(H, lam, F)


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
    """(N, T) tolerances over an (N, n) eigenvalue table and the angles t: at
    sample x and angle tk, SPECTRUM_IDENTITY_TOL times max(1, largest
    closed-form value cos^2 tk + lam^2 sin^2 tk)."""
    ts = np.asarray(_angles(t))
    top = np.cos(ts) ** 2 + (lam**2).max(axis=1)[:, None] * np.sin(ts) ** 2
    return SPECTRUM_IDENTITY_TOL * np.maximum(1.0, top)


def _identity_bound(lam: np.ndarray, eta: np.ndarray, ts: list) -> np.ndarray:
    """(N, T) table sin^2 t (2 rho eta + eta^2), 0 where B = I. The sorted exact
    eigenvalues mu of A lie within eta of lam, so |mu^2 - lam^2| <= eta (2 rho + eta)."""
    s2 = np.sin(ts) ** 2
    q = eta * (2.0 * np.abs(lam).max(axis=1) + eta)
    return np.multiply(q[:, None], s2, out=np.zeros((len(lam), len(ts))), where=s2 > 0.0)


def _shaped(table: np.ndarray, A, t):
    """An (N, T) table without the angle axis for a scalar t, as row 0 for a matrix."""
    table = table[:, 0] if np.isscalar(t) else table
    if isinstance(A, OperatorFamily):
        return table
    return table[0].item() if np.isscalar(t) else table[0]


def spectrum_identity_deviation(f: OperatorFamily, t) -> np.ndarray:
    """The (N, T) table that suspension_spectrum_check judges, without raising:
    compare it with spectrum_identity_tolerance(f.eigenvalues, t)."""
    return _identity_bound(f.eigenvalues, f.certificate[0], _angles(t))


def suspension_spectrum_check(A, t):
    """Verify |B(t)|^2 has spectrum {cos^2 t + lam^2 sin^2 t} over lam in spec(A).

    A is an OperatorFamily or one Hermitian matrix; t one angle or an array.
    Returns the deviation bound sin^2 t (2 rho eta + eta^2), rho = max|lam|,
    as an (N, T) table for a family, (T,) for a matrix, without the angle
    axis for a scalar angle. Raises at the first (sample, angle) whose
    bound exceeds spectrum_identity_tolerance.
    """
    lam, (eta, _, _) = _base_plane(A)
    ts = _angles(t)
    dev = _identity_bound(lam, eta, ts)
    bad = dev > spectrum_identity_tolerance(lam, ts)
    if bad.any():
        x, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ModelViolationError(
            f"suspension spectrum identity violated at t={ts[k]}: "
            f"deviation {float(dev[x, k]):.3e}"
        )
    return _shaped(dev, A, t)


def _band_certified(lam: np.ndarray, eps: float, cert: tuple) -> np.ndarray:
    """(M,) verdicts that the plane's band inside (-eps, eps) has the exact
    band's rank (+-eps clears the spectrum by more than eta) and lies within
    BAND_MATCH_TOL of it by Davis-Kahan (SIAM J. Numer. Anal. 7, 1970):
    ||R_band||_F / (sqrt(1 - ortho) (d - 2 eta)) + ortho, d the gap between
    in-band and out-of-band eigenvalues. For rank 0 or n, d = inf and the
    bound is ortho, the frame's distance from an orthogonal one."""
    eta, cols, ortho = cert
    inside = np.abs(lam) < eps
    d = np.min(np.abs(lam[:, :, None] - lam[:, None, :]), axis=(1, 2), initial=np.inf,
               where=inside[:, :, None] & ~inside[:, None, :])
    block = np.sqrt((cols**2 * inside).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        dk = block / (np.sqrt(1.0 - ortho) * (d - 2.0 * eta)) + ortho
    return (np.abs(np.abs(lam) - eps).min(axis=1) > eta) & (dk <= BAND_MATCH_TOL)


def band_correspondence_check(A, eps: float, t, samples=None):
    """Low band of |B(t)| below delta(t) matches the band of |A| below eps.

    delta(t) = sqrt(cos^2 t + eps^2 sin^2 t), sin t away from 0. A is an
    OperatorFamily, checked at the given sample indices (all by default),
    or one Hermitian matrix. cos^2 t + lam^2 sin^2 t grows with |lam|, so
    that band is the exact band of A inside (-eps, eps) at every angle, and
    one verdict per sample (_band_certified) holds at all of them. Returns
    an (M, T) bool table for a family, (T,) for a matrix, without the angle
    axis for a scalar angle. Errors arise sample by sample: the base gap
    (default gap tolerance) first, then a window edge on the closed-form
    spectrum of |B|, sorted sqrt(cos^2 t + lam^2 sin^2 t), angle by angle,
    read by one first_edge_error over the (sample, angle) rows.
    """
    ts = _angles(t)
    if np.any(np.abs(np.sin(ts)) < 1e-9):
        raise ValidationError("band correspondence needs sin t bounded away from 0")
    if not eps > 0:
        raise ValidationError(f"band radius must be positive, got {eps}")
    lam, cert = _base_plane(A)
    rows = slice(None) if samples is None else np.asarray(samples, dtype=int)
    lam, cert = lam[rows], tuple(c[rows] for c in cert)
    first = band_gap_error(lam, eps, DEFAULT_GAP_TOL)
    c2, s2 = np.cos(ts) ** 2, np.sin(ts) ** 2
    # row x * T + k holds |B| at sample x and angle k: sample-major rows
    abs_b = np.sqrt(np.sort(c2[:, None] + lam[:, None, :] ** 2 * s2[:, None], axis=2))
    delta = np.tile(np.sqrt(c2 + eps**2 * s2), len(lam))
    hit = first_edge_error(abs_b.reshape(-1, lam.shape[1]), -1.0, delta)
    if hit is not None and (first is None or hit[0] // len(ts) < first[0]):
        first = hit
    if first is not None:
        raise first[1]
    return _shaped(np.repeat(_band_certified(lam, eps, cert)[:, None], len(ts), axis=1), A, t)


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
    at both ends coincide. The 2N + 3 contour operators are built as one
    stack and go through one np.linalg.det call.
    """
    m = sf.n_parameters - 1
    xs = np.concatenate([np.arange(m + 1), [m], np.arange(m, -1, -1), [0, 0]])
    ks = np.concatenate([np.full(m + 1, te - 1), [te], np.full(m + 1, te + 1), [te, te - 1]])
    dets = np.linalg.det(_suspension_operator(sf.base.operator_stack[xs], sf.t_samples[ks]))
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
    """Eigenvalues of |B|^2 over the (parameter, angle) grid, in closed form:
    the (n_parameters, n_angles, dim) array of sorted cos^2 t + lam^2 sin^2 t."""
    t = sf.t_samples[None, :, None]
    lam = sf.base.eigenvalues[:, None, :]
    return np.sort(np.cos(t) ** 2 + lam**2 * np.sin(t) ** 2, axis=2)
