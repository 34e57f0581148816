"""Sampled operator families over one-dimensional parameter grids.

A family is a list of matrices, one per grid sample, plus closure metadata
saying whether the parameter interval is an open path, closes up exactly
into a loop, or closes up only after shifting the eigenvalue numbering by a
declared integer (the truncation-friendly way to model loops whose spectrum
drifts by a whole level per cycle).

The operators of a family live in one contiguous (N, n, n) stack. Its
spectral data live in one plane, built on first use by a single batched
eigensolve over the whole stack: the (N, n) eigenvalue table, the (N, n, n)
eigenvector frames and the row-sorted table of absolute eigenvalues. Every
spectral window, and the band-continuity walk, reads from it.
A family derived from a solved one, such as a rescaling or a function of
its operators, can be handed its plane in closed form instead.

Built-in generators cover the standard test cases: an explicit crossing
family with prescribed flow, a gapped rotation loop, the truncated shift
flow, smooth random families, and a crossing family with eigenvalues frozen
at -1 and +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import (
    SpectralDecomposition,
    Subspace,
    as_hermitian,
    as_square_matrix,
    checked_stack,
    hermitian_eig_stack,
    plane_certificate,
    window_columns,
    window_runs,
)

# Entrywise agreement required of the two endpoint operators of an exact loop.
FAMILY_TOL = 1e-9
# Sorted-spectrum agreement required across a shifted-loop seam, after
# dropping the declared number of boundary branches.
SHIFT_MATCH_TOL = 1e-8

CLOSURES = ("open_path", "exact_loop", "shifted_loop")
GRID_KINDS = ("interval_path", "circle_loop")


@dataclass(frozen=True, eq=False)
class ParameterGrid:
    """Strictly increasing parameter samples with closure metadata."""

    kind: str
    samples: np.ndarray
    closure: str
    shift: int = 0

    def __post_init__(self):
        t = np.asarray(self.samples, dtype=float)
        if t.ndim != 1:
            raise ValidationError(f"grid samples must be a flat list of numbers, got shape {t.shape}")
        if t.size < 2:
            raise ValidationError("grid needs at least two samples")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("grid samples must be strictly increasing")
        if self.kind not in GRID_KINDS:
            raise ValidationError(f"unknown grid kind {self.kind!r}")
        if self.closure not in CLOSURES:
            raise ValidationError(f"unknown closure {self.closure!r}")
        if (self.closure == "open_path") != (self.kind == "interval_path"):
            raise ValidationError("open_path goes with interval_path, loops with circle_loop")
        if self.shift != 0 and self.closure != "shifted_loop":
            raise ValidationError("shift is only meaningful for shifted_loop closure")
        object.__setattr__(self, "samples", t)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    max_eigenvalue_step: float
    max_band_subspace_step: float
    worst_step_index: int


def _validated_stack(ops, dim: int, hermitian: bool = True) -> np.ndarray:
    """ops as one checked_stack; misfit ops go one at a time, so the first fault raises."""
    try:
        S = np.asarray(ops, dtype=np.complex128)
    except (TypeError, ValueError):
        S = None
    if S is None or S.shape[1:] != (dim, dim) or dim < 1:
        for k, M in enumerate(map(as_hermitian if hermitian else as_square_matrix, ops)):
            if M.shape[0] != dim:
                raise ValidationError(f"operator {k} has dim {M.shape[0]}, declared {dim}")
    return checked_stack(S, hermitian)


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """One operator per grid sample, with optional frozen bands at -1 and +1.

    polarized_bands, when present, is a pair (m_minus, m_plus) declaring that
    every member has at least m_minus eigenvalues at -1 and m_plus at +1
    (within 1e-9) and the whole spectrum inside [-1, 1]. scale records the
    divisor applied when a family was normalized into that range.

    The operators (a sequence or an array) are validated as one contiguous
    (N, n, n) stack; the operators tuple holds views into it. The spectral
    plane (eigenvalue table, frames, row-sorted absolute eigenvalues) is
    computed for the whole stack at once, by one hermitian_eig_stack call,
    the first time any spectral data is asked for (at construction when
    frozen bands are declared), and its certificate on first use too. A
    window is a run of frame columns, read by window_columns; eigen(i) is
    the public one-sample view into the plane.
    """

    grid: ParameterGrid
    dim: int
    operators: tuple
    hermitian: bool = True
    polarized_bands: tuple | None = None
    scale: float | None = None
    _eig_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # check_atlas verdicts, keyed by (atlas, gap_tol)
    _atlas_checks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _stack: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _plane: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _certificate: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.operators) != self.grid.n_samples:
            raise ValidationError(
                f"{len(self.operators)} operators for {self.grid.n_samples} samples"
            )
        stack = _validated_stack(self.operators, self.dim, self.hermitian)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "operators", tuple(stack))
        if self.polarized_bands is not None:
            self._check_polarized_bands()
        self._check_closure()

    def _check_polarized_bands(self):
        if not self.hermitian:
            raise ValidationError("polarized bands require a Hermitian family")
        m_minus, m_plus = self.polarized_bands
        if m_minus < 0 or m_plus < 0 or m_minus + m_plus > self.dim:
            raise ValidationError(f"bad frozen multiplicities {self.polarized_bands}")
        lam = self.eigenvalues
        leaves = (lam[:, 0] < -1.0 - 1e-9) | (lam[:, -1] > 1.0 + 1e-9)
        n_lo = np.sum(np.abs(lam + 1.0) <= 1e-9, axis=1)
        n_hi = np.sum(np.abs(lam - 1.0) <= 1e-9, axis=1)
        bad = leaves | (n_lo < m_minus) | (n_hi < m_plus)
        if bad.any():
            k = int(np.argmax(bad))
            if leaves[k]:
                raise ValidationError(
                    f"sample {k}: spectrum leaves [-1, 1] despite declared frozen bands"
                )
            raise ValidationError(
                f"sample {k}: found {n_lo[k]}/{n_hi[k]} eigenvalues at -1/+1, "
                f"declared {m_minus}/{m_plus}"
            )

    @classmethod
    def _with_plane(cls, lam: np.ndarray, F: np.ndarray, polarized_bands: tuple | None = None,
                    **fields) -> "OperatorFamily":
        """Hermitian family whose spectral plane is known in closed form.

        For a family derived from one whose plane is already solved, such as
        a rescaling or a function of its operators: (lam, F) becomes the
        plane in place of an eigensolve, so it must be what
        hermitian_eig_stack would return for the operators (rows ascending,
        frames orthonormal, residual within bound); the caller certifies
        that. Declared frozen bands are checked against lam.
        """
        fam = cls(hermitian=True, **fields)
        object.__setattr__(fam, "_plane", (lam, F, np.sort(np.abs(lam), axis=1)))
        if polarized_bands is not None:
            object.__setattr__(fam, "polarized_bands", polarized_bands)
            fam._check_polarized_bands()
        return fam

    def _check_closure(self):
        closure = self.grid.closure
        if closure == "exact_loop":
            gap = float(np.abs(self.operators[0] - self.operators[-1]).max())
            if gap > FAMILY_TOL:
                raise ValidationError(
                    f"exact loop fails to close: endpoint operators differ by {gap:.3e}"
                )
        elif closure == "shifted_loop":
            if not self.hermitian:
                raise ValidationError("shifted_loop closure requires a Hermitian family")
            s = self.grid.shift
            lam0, lam1 = np.linalg.eigvalsh(self._stack[[0, -1]])
            n = lam0.size
            if abs(s) >= n:
                raise ValidationError("shift magnitude must be smaller than the dimension")
            if s >= 0:
                a, b = lam1[: n - s], lam0[s:]
            else:
                a, b = lam1[-s:], lam0[: n + s]
            gap = float(np.abs(a - b).max()) if a.size else 0.0
            if gap > SHIFT_MATCH_TOL:
                raise ValidationError(
                    f"shifted loop (shift {s}) fails to close: interior spectra differ by {gap:.3e}"
                )

    @property
    def n_samples(self) -> int:
        return self.grid.n_samples

    @property
    def operator_stack(self) -> np.ndarray:
        """(N, n, n) array whose rows are the operators."""
        return self._stack

    def _spectral_plane(self) -> tuple:
        if not self.hermitian:
            raise ValidationError("spectral data is only defined for Hermitian families")
        if self._plane is None:
            lam, F = hermitian_eig_stack(self._stack)
            object.__setattr__(self, "_plane", (lam, F, np.sort(np.abs(lam), axis=1)))
        return self._plane

    @property
    def eigenvalues(self) -> np.ndarray:
        """(N, n) table: row x holds the ascending eigenvalues at sample x."""
        return self._spectral_plane()[0]

    @property
    def frames(self) -> np.ndarray:
        """(N, n, n) eigenvector frames matching the eigenvalue table."""
        return self._spectral_plane()[1]

    @property
    def abs_eigenvalues(self) -> np.ndarray:
        """(N, n) table: row x holds the sorted |eigenvalues| at sample x."""
        return self._spectral_plane()[2]

    @property
    def certificate(self) -> tuple:
        """plane_certificate of the spectral plane, computed on first use."""
        if self._certificate is None:
            cert = plane_certificate(self._stack, *self._spectral_plane()[:2])
            object.__setattr__(self, "_certificate", cert)
        return self._certificate

    def eigen(self, i: int) -> SpectralDecomposition:
        """Eigendecomposition at sample i, as views into the spectral plane."""
        if i not in self._eig_cache:
            lam, F, _ = self._spectral_plane()
            self._eig_cache[i] = SpectralDecomposition._checked(lam[i], F[i])
        return self._eig_cache[i]

    def spectral_radius(self) -> float:
        return float(self.abs_eigenvalues[:, -1].max())


def window_subspace(f: OperatorFamily, sample_index: int, a: float, b: float) -> Subspace:
    """Span of eigenvectors at one sample with eigenvalues strictly in (a, b):
    a run of the plane's frame columns, as window_columns reads it."""
    (lo,), (hi,) = window_columns(f.eigenvalues[sample_index][None], a, b)
    return Subspace(f.dim, f.frames[sample_index][:, lo:hi])


def _sine_steps(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(G,) norms of W - U(U*W) for orthonormal stacks U, W of shape (G, n, r):
    the sine of the largest principal angle between their spans, from one
    stacked r x r eigvalsh of D*D."""
    D = U @ (U.conj().transpose(0, 2, 1) @ W)
    np.subtract(W, D, out=D)
    top = np.linalg.eigvalsh(D.conj().transpose(0, 2, 1) @ D)[:, -1]
    return np.sqrt(np.maximum(top, 0.0))


def _window_frames(F: np.ndarray, lo: np.ndarray, rows: np.ndarray, rank: int) -> np.ndarray:
    """Frames of the rank-`rank` windows starting at columns lo[rows], or of
    their complements when rank > n / 2, gathered into a stack of shape
    (len(rows), n, min(rank, n - rank))."""
    n = F.shape[1]
    j, lo = np.arange(min(rank, n - rank)), lo[rows, None]
    cols = lo + j if 2 * rank <= n else j + rank * (j >= lo)
    return F[rows[:, None, None], np.arange(n)[:, None], cols[:, None, :]]


def window_steps(f: OperatorFamily, start: int, end: int, a: float, b: float):
    """Yield (k, distance) between the (a, b) windows at samples k - 1 and k.

    The distance is the operator norm of the difference of the two window
    projectors, and agrees with subspace_distance up to roundoff; no n x n
    projector is formed. One window_runs call reads all edges of the walk
    and the windows, runs lo[x]:hi[x] of frame columns. Windows of different
    ranks are exactly 1.0 apart; two empty or two full windows exactly 0.0.
    Between windows U and W of equal rank r the distance is the sine form
    ||W - U(U*W)|| of their largest principal angle, from one stacked r x r
    eigvalsh; when r > n / 2 the complements, of rank n - r, stand in.
    The windows of each rank are gathered from the frames into one stack,
    and the sine form runs over its consecutive pairs; a pair that straddles
    windows of another rank is not a step and is dropped. A window edge
    that sits on an eigenvalue raises window_boundary_error's
    SpectralBoundaryError, but only once the walk reaches that sample, so a
    caller that stops at the first large step raises nothing beyond it.
    """
    lam = f.eigenvalues[start:end + 1]
    hit, lo, hi = window_runs(lam, a, b)
    stop = len(lam) if hit is None else hit[0]
    if stop > 1:
        F, n = f.frames[start:start + stop], f.dim
        rank = (hi - lo)[:stop]
        same = rank[1:] == rank[:-1]
        d = np.where(same, 0.0, 1.0)
        for r in set(rank[1:][same].tolist()):
            if 0 < r < n:
                rows = np.flatnonzero(rank == r)
                G = _window_frames(F, lo, rows, r)
                pair = rows[1:] - rows[:-1] == 1  # steps between two rank-r windows
                d[rows[:-1][pair]] = _sine_steps(G[:-1], G[1:])[pair]
        yield from zip(range(start + 1, start + stop), d.tolist())
    if hit is not None:
        raise hit[1]


def continuity_check(f: OperatorFamily, a: float, b: float) -> ContinuityReport:
    """Largest per-step movement of the sorted spectrum and of the (a, b) band."""
    eig_steps = np.abs(np.diff(f.eigenvalues, axis=0)).max(axis=1)
    band_steps = np.array([d for _, d in window_steps(f, 0, f.n_samples - 1, a, b)])
    if band_steps.max() > 0:
        worst = int(np.argmax(band_steps))
    else:
        worst = int(np.argmax(eig_steps))
    return ContinuityReport(
        max_eigenvalue_step=float(eig_steps.max()),
        max_band_subspace_step=float(band_steps.max()),
        worst_step_index=worst,
    )


def _diag_family(columns: np.ndarray, t: np.ndarray, closure: str, shift: int = 0,
                 polarized_bands: tuple | None = None) -> OperatorFamily:
    """Family of diagonal matrices; columns[k] holds the k-th diagonal."""
    kind = "interval_path" if closure == "open_path" else "circle_loop"
    grid = ParameterGrid(kind=kind, samples=t, closure=closure, shift=shift)
    n = columns.shape[0]
    ops = np.where(np.eye(n, dtype=bool), columns.T[:, None, :], 0.0).astype(np.complex128)
    return OperatorFamily(grid=grid, dim=n, operators=ops, polarized_bands=polarized_bands)


def _spectator_levels(m: int) -> list:
    """Deterministic gapped levels 2, -2, 3, -3, ... away from zero."""
    out = []
    v = 2.0
    for j in range(m):
        out.append(v if j % 2 == 0 else -v)
        if j % 2 == 1:
            v += 1.0
    return out


def _crossing(k: int = 1, m: int = 1, samples: int = 101) -> OperatorFamily:
    if abs(k) + m < 1:
        raise ValidationError("crossing family needs at least one branch")
    t = np.linspace(0.0, 1.0, samples)
    rows = []
    for _ in range(abs(k)):
        rows.append((t - 0.5) if k > 0 else (0.5 - t))
    for level in _spectator_levels(m):
        rows.append(np.full_like(t, level))
    return _diag_family(np.array(rows), t, closure="open_path")


def _rotation(m: int = 1, turns: float = 1.0, samples: int = 120) -> OperatorFamily:
    """Conjugation of diag(-1, 1) by an in-plane rotation; spectrum constant."""
    if m < 0:
        raise ValidationError("need m >= 0")
    t = np.linspace(0.0, 1.0, samples)
    theta = 2.0 * math.pi * turns * t
    dim = 2 + m
    D = np.diag([-1.0, 1.0] + _spectator_levels(m)).astype(np.complex128)
    c, s = (np.array([fn(th) for th in theta]) for fn in (math.cos, math.sin))
    R = np.tile(np.eye(dim, dtype=np.complex128), (t.size, 1, 1))
    R[:, 0, 0], R[:, 0, 1], R[:, 1, 0], R[:, 1, 1] = c, -s, s, c
    ops = R @ D @ R.conj().transpose(0, 2, 1)
    whole_turns = abs(turns - round(turns)) < 1e-12
    closure = "exact_loop" if whole_turns else "open_path"
    kind = "circle_loop" if whole_turns else "interval_path"
    grid = ParameterGrid(kind=kind, samples=t, closure=closure)
    return OperatorFamily(grid=grid, dim=dim, operators=ops)


def _truncated_shift_flow(N: int = 3, samples: int = 101) -> OperatorFamily:
    """Eigenvalues n + t for n in -N..N with fixed eigenvectors.

    The grid is offset by half a step so no sample ever has an eigenvalue at
    an integer or half-integer level; one full traversal shifts the whole
    ladder up by one rung (shifted_loop with shift 1).
    """
    if N < 1:
        raise ValidationError("need N >= 1")
    if samples < 2:
        raise ValidationError("need samples >= 2")
    h = 1.0 / (samples - 1)
    t = np.linspace(0.0, 1.0, samples) + 0.5 * h
    levels = np.arange(-N, N + 1, dtype=float)
    cols = levels[:, None] + t[None, :]
    return _diag_family(cols, t, closure="shifted_loop", shift=1)


def _random_smooth(dim: int = 5, seed: int = 0, samples: int = 200,
                   loop: bool = False, harmonics: int = 3,
                   drift: float = 0.8) -> OperatorFamily:
    """Trigonometric-polynomial Hermitian family with controlled step size."""
    if samples < 2:
        raise ValidationError("need samples >= 2")
    rng = np.random.default_rng(seed)

    def rand_herm(scale):
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = (X + X.conj().T) / (2.0 * math.sqrt(dim))
        return scale * H

    t = np.linspace(0.0, 1.0, samples)
    base = rand_herm(1.0)
    terms = [(rand_herm(0.35 / k**2), rand_herm(0.35 / k**2)) for k in range(1, harmonics + 1)]
    drift_op = None if loop else rand_herm(drift)

    def coef(fn, k):
        return np.array([fn(2 * math.pi * k * tj) for tj in t.tolist()])[:, None, None]

    # the sums run base, then cos B_k + sin C_k for k = 1, 2, ..., then t drift;
    # another order would move the operators' last bits
    ops = np.repeat(base[None], t.size, axis=0)
    for k, (Bk, Ck) in enumerate(terms, start=1):
        ops += coef(math.cos, k) * Bk
        ops += coef(math.sin, k) * Ck
    if drift_op is not None:
        ops += t[:, None, None] * drift_op
    if loop:
        ops[-1] = ops[0]
        grid = ParameterGrid(kind="circle_loop", samples=t, closure="exact_loop")
    else:
        grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    return OperatorFamily(grid=grid, dim=dim, operators=ops)


def _constant(dim: int = 3, samples: int = 60) -> OperatorFamily:
    """Constant invertible diagonal family; nothing moves."""
    if dim < 1:
        raise ValidationError("need dim >= 1")
    t = np.linspace(0.0, 1.0, samples)
    levels = [(-1.0) ** j * (1.0 + j // 2) for j in range(dim)]
    rows = [np.full_like(t, lv) for lv in levels]
    return _diag_family(np.array(rows), t, closure="open_path")


def _polarized_crossing(k: int = 1, m_minus: int = 1, m_plus: int = 1,
                        samples: int = 101) -> OperatorFamily:
    """Crossing branches compressed into (-0.3, 0.3) plus frozen bands at -1, +1."""
    if abs(k) < 1:
        raise ValidationError("need at least one crossing branch")
    if m_minus < 1 or m_plus < 1:
        raise ValidationError("need at least one frozen eigenvalue on each side")
    t = np.linspace(0.0, 1.0, samples)
    rows = []
    for _ in range(abs(k)):
        rows.append(0.6 * ((t - 0.5) if k > 0 else (0.5 - t)))
    for _ in range(m_minus):
        rows.append(np.full_like(t, -1.0))
    for _ in range(m_plus):
        rows.append(np.full_like(t, 1.0))
    return _diag_family(np.array(rows), t, closure="open_path",
                        polarized_bands=(m_minus, m_plus))


GENERATORS = {
    "crossing": _crossing,
    "rotation": _rotation,
    "truncated_shift_flow": _truncated_shift_flow,
    "random_smooth": _random_smooth,
    "constant": _constant,
    "polarized_crossing": _polarized_crossing,
}


def generate(name: str, **params) -> OperatorFamily:
    """Build one of the named example families."""
    if name not in GENERATORS:
        raise ValidationError(
            f"unknown generator {name!r}; available: {sorted(GENERATORS)}"
        )
    try:
        return GENERATORS[name](**params)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for generator {name!r}: {exc}") from exc
