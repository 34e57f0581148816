"""Spectral flow and index data for sampled families.

The integer invariant of a Hermitian path or loop is computed three ways
that must agree:

  * chartwise: per adapted chart, the count of eigenvalues in [-eps, 0) at
    the chart's left transition sample minus the count at its right one,
    summed over charts;
  * branch tracking: signed zero crossings of the sorted eigenvalue
    branches, which telescope to the gain in the positive count from the
    first sample to the last; the grid refined by interpolating the
    operators between samples only resolves branches pinned at zero;
  * endpoint signatures: the gain in the number of positive eigenvalues
    from the first sample to the last, valid whenever the endpoint
    operators are invertible.

For general (non-Hermitian) square matrices the module provides the
singular-value band pair (E1, E2) with its tail isometry, and the
kernel-bundle stabilization that augments a family with a constant
cokernel map until it is pointwise surjective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atlas import DEFAULT_GAP_TOL, Atlas, band_gap_error, check_atlas, check_gap_tol
from .errors import (
    BoundaryZeroError,
    BranchResolutionError,
    ModelViolationError,
    SpectralBoundaryError,
    StabilizationError,
    ValidationError,
)
from .families import OperatorFamily
from .linalg import (
    BOUNDARY_TOL_FACTOR,
    RANK_TOL_FACTOR,
    PartialIsometry,
    Subspace,
    as_hermitian,
    hermitian_eig,
    svd_matched,
    window_columns,
)

# An eigenvalue this close to 0 at a transition sample makes the below-zero
# count ambiguous; the chart edge must be shifted.
ZERO_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EnhancedOperator:
    """Hermitian operator with a validated band radius and its band."""

    A: np.ndarray
    eps: float
    band: Subspace
    interior_rank: int


def _enhanced(A, eps: float, declared_bands: tuple | None, gap_tol: float) -> tuple:
    """(EnhancedOperator, eigenframe, a, b): enhanced_check's operator with the
    one frame it was read from, whose columns a:b span the band."""
    A = as_hermitian(A)
    if not eps > 0:
        raise ValidationError(f"band radius must be positive, got {eps}")
    check_gap_tol(gap_tol)
    if declared_bands is not None and eps >= 1.0 - gap_tol:
        raise ValidationError(
            f"band radius {eps} collides with the frozen eigenvalues at +-1"
        )
    dec = hermitian_eig(A)
    lam = dec.eigenvalues[None]
    hit = band_gap_error(lam, eps, gap_tol)
    if hit is not None:
        raise hit[1]
    (a,), (b,) = window_columns(lam, -eps, eps)
    band = Subspace(A.shape[0], dec.frame[:, a:b])
    if declared_bands is not None and np.any(np.abs(np.abs(dec.eigenvalues[a:b]) - 1.0) <= 1e-9):
        raise ModelViolationError("band contains a frozen +-1 eigenvector")
    enh = EnhancedOperator(A=A, eps=float(eps), band=band, interior_rank=band.dim)
    return enh, dec.frame, a, b


def enhanced_check(A, eps: float, declared_bands: tuple | None = None,
                   gap_tol: float = DEFAULT_GAP_TOL) -> EnhancedOperator:
    """Validate that +-eps clear the spectrum and build the band subspace.

    +-eps must clear every eigenvalue by gap_tol, then by window_columns'
    relative rule. With declared frozen bands at -1 and +1, the radius must
    stay below 1 - gap_tol so the band cannot swallow the frozen eigenvalues.
    """
    return _enhanced(A, eps, declared_bands, gap_tol)[0]


@dataclass(frozen=True, eq=False)
class PolarizedBand:
    """Orthogonal splitting: band V plus the strictly-below and above parts."""

    V: Subspace
    H_minus: Subspace
    H_plus: Subspace

    def __post_init__(self):
        amb = self.V.ambient_dim
        if self.H_minus.ambient_dim != amb or self.H_plus.ambient_dim != amb:
            raise ValidationError("polarized band parts live in different spaces")
        parts = [self.H_minus, self.V, self.H_plus]
        for i in range(3):
            for j in range(i + 1, 3):
                if parts[i].dim and parts[j].dim:
                    cross = parts[i].frame.conj().T @ parts[j].frame
                    if np.abs(cross).max() > 1e-9:
                        raise ValidationError("polarized band parts are not orthogonal")
        if sum(p.dim for p in parts) != amb:
            raise ValidationError("polarized band parts do not fill the space")


def polarized_triple(A, eps: float, gap_tol: float = DEFAULT_GAP_TOL) -> PolarizedBand:
    """Split the space into below-band, band, and above-band spectral parts."""
    enh, F, a, b = _enhanced(A, eps, None, gap_tol)
    n = F.shape[0]
    return PolarizedBand(V=enh.band, H_minus=Subspace(n, F[:, :a]), H_plus=Subspace(n, F[:, b:]))


@dataclass(frozen=True, eq=False)
class ChartBandData:
    """Band data of one chart: radius, transition samples, boundary counts."""

    start: int
    end: int
    eps: float
    left_sample: int
    right_sample: int
    n_below_left: int
    n_below_right: int


@dataclass(frozen=True, eq=False)
class OverlapData:
    """Decomposition of the larger band over the smaller at an overlap sample."""

    sample: int
    eps_small: float
    eps_big: float
    u_minus: Subspace
    u_plus: Subspace
    small_band: Subspace
    big_band: Subspace


@dataclass(frozen=True, eq=False)
class IndexChain:
    charts: tuple
    overlaps: tuple


def _n_below(f: OperatorFamily, sample: int, eps: float) -> int:
    lam = f.eigenvalues[sample]
    return int(np.sum((lam > -eps) & (lam < 0.0)))


def _pick_transition_sample(f: OperatorFamily, lo: int, hi: int,
                            zero_tol: float) -> int:
    clear = f.abs_eigenvalues[lo:hi + 1, 0] > zero_tol
    if clear.any():
        return lo + int(np.argmax(clear))
    raise BoundaryZeroError(
        f"every overlap sample in [{lo}, {hi}] has an eigenvalue within "
        f"{zero_tol:.1e} of 0; shift the chart edge by one sample or refine"
    )


def net_up_crossings(table: np.ndarray) -> int:
    """Net number of sorted eigenvalue branches moving up through zero.

    Rows of table are consecutive samples, columns the ascending branches.
    A branch sitting exactly at zero counts as not yet crossed; it
    contributes when it leaves zero.
    """
    prev, cur = table[:-1], table[1:]
    ups = np.sum((prev <= 0.0) & (cur > 0.0))
    downs = np.sum((prev > 0.0) & (cur <= 0.0))
    return int(ups - downs)


def index_chain(f: OperatorFamily, atlas: Atlas,
                gap_tol: float = DEFAULT_GAP_TOL,
                zero_tol: float = ZERO_TOL) -> IndexChain:
    """Boundary counts per chart and band decompositions per overlap.

    Transition samples are the first grid sample, one sample inside each
    chart overlap, and the last grid sample. Each must carry no eigenvalue
    within zero_tol of 0; an overlap sample violating this is replaced by
    the next sample of the overlap, and a violation at a grid endpoint is
    an error the caller fixes by perturbing the family or the grid.

    Within every chart the change of the below-zero count between the
    transition samples is asserted to equal the net signed zero crossings
    there. At every overlap the larger band is the smaller band plus the two
    annular windows by construction: -e2 <= -e1 < e1 <= e2 cut each frame
    into the column runs u_minus, small band and u_plus (the annuli empty
    when e1 == e2), whose union is the big band. No edge needs a check of its
    own: an overlap sample lies in both charts, and check_atlas has walked
    each chart's window over all its samples.
    """
    ok, report = check_atlas(f, atlas, gap_tol)
    if not ok:
        raise ValidationError(f"atlas rejected: {report}")
    charts = atlas.charts
    n_charts = len(charts)
    for endpoint, label in ((0, "first"), (f.n_samples - 1, "last")):
        if f.abs_eigenvalues[endpoint, 0] <= zero_tol:
            raise BoundaryZeroError(
                f"{label} grid sample has an eigenvalue within {zero_tol:.1e} "
                f"of 0; the boundary counts are ambiguous there"
            )
    overlap_samples = []
    for j in range(n_charts - 1):
        lo, hi = charts[j + 1].start, charts[j].end
        overlap_samples.append(_pick_transition_sample(f, lo, hi, zero_tol))

    lam = f.eigenvalues
    chart_data = []
    for j, chart in enumerate(charts):
        left = 0 if j == 0 else overlap_samples[j - 1]
        right = f.n_samples - 1 if j == n_charts - 1 else overlap_samples[j]
        n_left = _n_below(f, left, chart.eps)
        n_right = _n_below(f, right, chart.eps)
        crossings = net_up_crossings(lam[left:right + 1])
        if n_left - n_right != crossings:
            raise ModelViolationError(
                f"chart {j}: below-zero count drops by {n_left - n_right} "
                f"but the net crossings are {crossings}"
            )
        chart_data.append(ChartBandData(
            start=chart.start, end=chart.end, eps=chart.eps,
            left_sample=left, right_sample=right,
            n_below_left=n_left, n_below_right=n_right,
        ))

    eps = np.array([c.eps for c in charts])
    e1, e2 = np.minimum(eps[:-1], eps[1:]), np.maximum(eps[:-1], eps[1:])
    cuts = (lam[overlap_samples][:, :, None] < np.array([-e2, -e1, e1, e2]).T[:, None]).sum(axis=1)
    overlaps = []
    # the parts are runs of the certified plane's frame columns
    run = Subspace._checked
    for j, (y, (c0, c1, c2, c3)) in enumerate(zip(overlap_samples, cuts.tolist())):
        F = f.frames[y]
        overlaps.append(OverlapData(
            sample=y, eps_small=float(e1[j]), eps_big=float(e2[j]),
            u_minus=run(f.dim, F[:, c0:c1]), u_plus=run(f.dim, F[:, c2:c3]),
            small_band=run(f.dim, F[:, c1:c2]), big_band=run(f.dim, F[:, c0:c3]),
        ))
    return IndexChain(charts=tuple(chart_data), overlaps=tuple(overlaps))


def spectral_flow_chartwise(chain: IndexChain) -> int:
    """Sum over charts of the drop in the below-zero band count."""
    return sum(c.n_below_left - c.n_below_right for c in chain.charts)


def _refined_eigenvalue_table(f: OperatorFamily, refine: int, intervals=None) -> np.ndarray:
    """Sorted eigenvalues on the grid refined by linear operator interpolation.

    Grid rows come from the family's eigenvalue table; the refine - 1
    interpolants between each pair of neighbours in intervals (grid interval
    indices, every one when None) are solved together in one stacked
    eigvalsh, and the rows of the other interpolants hold +inf.
    """
    if refine < 1:
        raise ValidationError("refine factor must be a positive integer")
    lam = f.eigenvalues
    if refine == 1:
        return lam
    N, n = lam.shape
    table = np.full(((N - 1) * refine + 1, n), np.inf)
    table[::refine] = lam
    between = table[:-1].reshape(N - 1, refine, n)[:, 1:]
    if intervals is None:
        intervals = slice(None)
    elif not len(intervals):
        return table
    s = (np.arange(1, refine) / refine)[:, None, None]
    A = f.operator_stack[:, None]
    between[intervals] = np.linalg.eigvalsh((1.0 - s) * A[:-1][intervals] + s * A[1:][intervals])
    return table


def spectral_flow_oracle(f: OperatorFamily, refine: int = 2) -> int:
    """Signed zero crossings of the sorted eigenvalue branches.

    A branch sitting exactly at 0 at a sample counts as not yet crossed; it
    contributes when it leaves zero. The count telescopes to the change of
    the positive count from the first row to the last, so the refined rows
    serve only to resolve branches: one pinned at 0 across consecutive
    refined samples cannot be given a direction and raises
    BranchResolutionError. At refine 2 each such pair holds a grid sample
    with a pinned eigenvalue, so only the intervals beside those samples are
    solved.
    """
    intervals = None
    if refine == 2:
        near = np.flatnonzero((np.abs(f.eigenvalues) <= 1e-12).any(axis=1))
        intervals = np.union1d(near[near > 0] - 1, near[near < f.n_samples - 1])
    table = _refined_eigenvalue_table(f, refine, intervals)
    pinned = np.abs(table) <= 1e-12
    runs = np.argwhere((pinned[:-1] & pinned[1:]).T)
    if runs.size:
        i, k = runs[0]
        raise BranchResolutionError(
            f"branch {i} sits at 0 across consecutive samples near row {k}; "
            f"refine the grid or perturb the family"
        )
    return net_up_crossings(table)


def spectral_flow_endpoints(f: OperatorFamily, zero_tol: float = ZERO_TOL) -> int:
    """Gain in positive-eigenvalue count from the first sample to the last."""
    for sample, label in ((0, "first"), (f.n_samples - 1, "last")):
        if f.abs_eigenvalues[sample, 0] <= zero_tol:
            raise ValidationError(
                f"{label} sample is not invertible within {zero_tol:.1e}; "
                f"the endpoint signature count is undefined"
            )
    n_start = int(np.sum(f.eigenvalues[0] > 0))
    n_end = int(np.sum(f.eigenvalues[-1] > 0))
    return n_end - n_start


def spectral_flow_routes(f: OperatorFamily, atlas: Atlas | None = None,
                         refine: int = 2, gap_tol: float = DEFAULT_GAP_TOL,
                         max_chart_len: int | None = None) -> dict:
    """All flow routes at once, with their agreement status.

    The endpoint route is reported whenever both endpoint samples are
    invertible (always meaningful: for exact loops it returns 0, for
    shifted loops the declared spectral shift shows up as a count change).
    """
    from .atlas import DEFAULT_MAX_CHART_LEN, build_atlas

    if atlas is None:
        atlas = build_atlas(f, max_chart_len or DEFAULT_MAX_CHART_LEN, gap_tol)
    chain = index_chain(f, atlas, gap_tol)
    chartwise = spectral_flow_chartwise(chain)
    oracle = spectral_flow_oracle(f, refine)
    try:
        endpoints = spectral_flow_endpoints(f)
    except ValidationError:
        endpoints = None
    agree = chartwise == oracle and (endpoints is None or endpoints == chartwise)
    return {
        "atlas": atlas,
        "chain": chain,
        "chartwise": chartwise,
        "oracle": oracle,
        "endpoints": endpoints,
        "agree": bool(agree),
    }


@dataclass(frozen=True, eq=False)
class FredholmPairData:
    """Singular-value band pair with the isometry between the tails."""

    e1: Subspace
    e2: Subspace
    tail_isometry: PartialIsometry
    numeric_index: int


def fredholm_pair(B, eps: float) -> FredholmPairData:
    """Band pair E1 = Im P_[0,eps](|B|), E2 = Im P_[0,eps](|B*|).

    eps must clear every singular value by BOUNDARY_TOL_FACTOR times the
    largest one. The polar factor restricted to the orthogonal complement
    of E1 is returned as a partial isometry onto the complement of E2.
    """
    if eps < 0:
        raise ValidationError(f"band radius must be nonnegative, got {eps}")
    W, sigma, V = svd_matched(B)
    n = W.shape[0]
    smax = float(sigma[0]) if sigma.size else 0.0
    tol = BOUNDARY_TOL_FACTOR * max(smax, 1.0)
    if sigma.size and float(np.abs(sigma - eps).min()) <= tol:
        j = int(np.argmin(np.abs(sigma - eps)))
        raise SpectralBoundaryError(
            f"singular value {sigma[j]:.12g} sits at the band radius {eps:.12g}"
        )
    small = sigma <= eps
    e1 = Subspace(n, V[:, small])
    e2 = Subspace(n, W[:, small])
    tail = ~small
    tail_isometry = PartialIsometry(
        matrix=W[:, tail] @ V[:, tail].conj().T,
        initial_space=Subspace(n, V[:, tail]),
        final_space=Subspace(n, W[:, tail]),
    )
    return FredholmPairData(e1=e1, e2=e2, tail_isometry=tail_isometry,
                            numeric_index=e1.dim - e2.dim)


@dataclass(frozen=True, eq=False)
class StabilizationData:
    """Constant cokernel map and the kernel bundle it produces.

    m is the number of added directions, held in cokernel_frame. The
    augmented map (v, u) -> C v + B_x u is surjective at every sample;
    kernel_dims holds the per-sample kernel dimensions after removing the
    declared padding directions, and index_value = kernel_dim - m.
    """

    m: int
    cokernel_frame: Subspace
    kernel_dims: tuple
    kernel_frames: tuple
    index_value: int
    domain_codim: int


def _cokernel_frame(B: np.ndarray) -> np.ndarray:
    W, sigma, _ = svd_matched(B)
    smax = float(sigma[0]) if sigma.size else 0.0
    rank = int(np.sum(sigma > RANK_TOL_FACTOR * smax)) if smax > 0 else 0
    return W[:, rank:]


def atiyah_stabilize(f: OperatorFamily, domain_codim: int = 0) -> StabilizationData:
    """Augment a family of square matrices into a surjective one.

    A single frame C of m directions is chosen for the whole family: the
    principal directions of all per-sample cokernels stacked together,
    padded with standard basis vectors if those run out. m grows until
    (v, u) -> C v + B_x u is surjective at every sample, which pins the
    kernel dimension at m everywhere and makes the kernel family a bundle
    at the working resolution.

    domain_codim declares that the last domain_codim input coordinates are
    padding (a rectangular family stored as square); they are projected out
    of the kernel before dimensions are reported, so a padded family with a
    genuinely smaller domain reports index -domain_codim.
    """
    n = f.dim
    if not 0 <= domain_codim < n:
        raise ValidationError(f"bad domain codimension {domain_codim}")
    cokernels = [_cokernel_frame(B) for B in f.operators]
    max_coker = max(c.shape[1] for c in cokernels)

    candidates = []
    stacked = np.hstack([c for c in cokernels if c.shape[1]]) if max_coker else None
    if stacked is not None and stacked.shape[1]:
        Ws, ss, _ = np.linalg.svd(stacked, full_matrices=False)
        n_keep = int(np.sum(ss > 1e-12 * float(ss[0])))
        candidates.extend(Ws[:, k] for k in range(n_keep))
    candidates.extend(np.eye(n, dtype=np.complex128)[:, k] for k in range(n))

    def orthonormal_prefix(m):
        if m == 0:
            return np.zeros((n, 0), dtype=np.complex128)
        cols = []
        for cand in candidates:
            v = cand.astype(np.complex128).copy()
            for u in cols:
                v = v - (u.conj() @ v) * u
            norm = float(np.linalg.norm(v))
            if norm > 1e-8:
                cols.append(v / norm)
            if len(cols) == m:
                break
        if len(cols) < m:
            raise StabilizationError(
                f"cannot assemble {m} independent cokernel directions"
            )
        return np.column_stack(cols) if cols else np.zeros((n, 0), dtype=np.complex128)

    m = max_coker
    while True:
        C = orthonormal_prefix(m)
        all_surjective = True
        for B in f.operators:
            Q = np.hstack([C, B])
            sigma = np.linalg.svd(Q, compute_uv=False)
            if sigma.size < n or float(sigma[n - 1]) <= 1e-8 * max(1.0, float(sigma[0])):
                all_surjective = False
                break
        if all_surjective:
            break
        m += 1
        if m > n:
            raise StabilizationError(
                "surjective stabilization not achievable within the ambient dimension"
            )

    pad_rows = list(range(m + n - domain_codim, m + n))
    kernel_dims = []
    kernel_frames = []
    for x, B in enumerate(f.operators):
        Q = np.hstack([C, B])
        _, sigma, Vh = np.linalg.svd(Q)
        rank = int(np.sum(sigma > RANK_TOL_FACTOR * float(sigma[0])))
        if rank != n:
            raise ModelViolationError(f"augmented map lost surjectivity at sample {x}")
        raw_kernel = Vh.conj().T[:, rank:]
        if domain_codim:
            zero_on_pad = _null_space_of_rows(raw_kernel, pad_rows)
            true_kernel = raw_kernel @ zero_on_pad
        else:
            true_kernel = raw_kernel
        frame = _orthonormalize(true_kernel)
        kernel_dims.append(frame.shape[1])
        kernel_frames.append(Subspace(m + n, frame))
    if len(set(kernel_dims)) > 1:
        raise ModelViolationError(
            f"kernel dimension is not constant along the family: {sorted(set(kernel_dims))}"
        )
    index_value = kernel_dims[0] - m
    expected = -domain_codim
    if index_value != expected:
        raise ModelViolationError(
            f"kernel bundle index {index_value} disagrees with the pointwise "
            f"value {expected}"
        )
    return StabilizationData(
        m=m,
        cokernel_frame=Subspace(n, C),
        kernel_dims=tuple(kernel_dims),
        kernel_frames=tuple(kernel_frames),
        index_value=index_value,
        domain_codim=domain_codim,
    )


def _orthonormalize(cols: np.ndarray) -> np.ndarray:
    if cols.shape[1] == 0:
        return cols
    W, sigma, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(sigma > 1e-10 * float(sigma[0])))
    return W[:, :rank]


def _null_space_of_rows(frame: np.ndarray, rows: list) -> np.ndarray:
    """Coefficient combinations of frame columns that vanish on the rows."""
    sub = frame[rows, :]
    if sub.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    _, sigma, Vh = np.linalg.svd(sub, full_matrices=True)
    rank = int(np.sum(sigma > 1e-10 * max(float(sigma[0]) if sigma.size else 0.0, 1e-300)))
    return Vh.conj().T[:, rank:]
