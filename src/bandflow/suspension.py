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
slice -i B(pi/2) is A itself. suspension_spectrum_check still forms
|B(t)|^2 explicitly at every angle it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelViolationError, ValidationError
from .families import OperatorFamily
from .flow import enhanced_check, net_up_crossings
from .linalg import absolute_value, hermitian_eig, spectral_projection, subspace_distance

SPECTRUM_IDENTITY_TOL = 1e-9
BAND_MATCH_TOL = 1e-8
KERNEL_TOL = 1e-8
EQUATOR_COS_TOL = 1e-12
WINDING_INT_TOL = 0.1


def _suspension_operator(A: np.ndarray, t: float) -> np.ndarray:
    n = A.shape[0]
    return np.cos(t) * np.eye(n, dtype=np.complex128) + 1j * np.sin(t) * A


def _gram_spectrum(B: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the explicitly formed |B|^2 = B* B."""
    gram = B.conj().T @ B
    return np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))


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


def suspension_spectrum_check(A: np.ndarray, t):
    """Verify |B(t)|^2 has spectrum {cos^2 t + lam^2 sin^2 t} over lam in spec(A).

    t may be one angle or an array of angles; A is solved once either way.
    Returns the max absolute deviation between the two sorted spectra, a
    float for a scalar angle and an array otherwise, and raises if it
    exceeds the identity tolerance.
    """
    scalar = np.isscalar(t)
    lam = hermitian_eig(A).eigenvalues
    A = np.asarray(A, dtype=np.complex128)
    devs = []
    for tk in np.atleast_1d(np.asarray(t, dtype=float)).tolist():
        left = np.sort(_gram_spectrum(_suspension_operator(A, tk)))
        right = np.sort(np.cos(tk) ** 2 + lam**2 * np.sin(tk) ** 2)
        dev = float(np.abs(left - right).max())
        if dev > SPECTRUM_IDENTITY_TOL * max(1.0, float(right.max())):
            raise ModelViolationError(
                f"suspension spectrum identity violated at t={tk}: deviation {dev:.3e}"
            )
        devs.append(dev)
    return devs[0] if scalar else np.array(devs)


def band_correspondence_check(A: np.ndarray, eps: float, t):
    """Low band of |B(t)| below delta(t) matches the band of |A| below eps.

    delta(t) = sqrt(cos^2 t + eps^2 sin^2 t). Requires sin t away from 0 and
    (A, eps) forming an enhanced pair. t may be one angle or an array of
    angles; A is solved once either way. Returns a bool for a scalar angle
    and a bool array otherwise.
    """
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
    if np.any(np.abs(np.sin(ts)) < 1e-9):
        raise ValidationError("band correspondence needs sin t bounded away from 0")
    A = np.asarray(A, dtype=np.complex128)
    low_base = enhanced_check(A, eps).band
    oks = []
    for tk in ts:
        delta = float(np.sqrt(np.cos(tk) ** 2 + eps**2 * np.sin(tk) ** 2))
        low_susp = spectral_projection(absolute_value(_suspension_operator(A, tk)), -1.0, delta)
        oks.append(low_susp.dim == low_base.dim
                   and subspace_distance(low_susp, low_base) <= BAND_MATCH_TOL)
    return oks[0] if scalar else np.array(oks)


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
    out = np.zeros((sf.n_parameters, sf.n_angles, sf.base.dim))
    for x in range(sf.n_parameters):
        for k in range(sf.n_angles):
            out[x, k] = _gram_spectrum(sf.operator(x, k))
    return out
