"""Finite polarized replacement: squash far spectrum onto -1 and +1.

The odd piecewise-linear profile chi keeps a neighbourhood of zero intact
(identity below half its radius) and saturates at one beyond the radius.
Applying it samplewise, with the radius varying through a partition of
unity over an adapted atlas, turns a family with unbounded-looking ends
into one whose spectrum fills [-1, 1] with frozen bands at the ends, while
every band of interest and the spectral flow survive untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atlas import (
    DEFAULT_GAP_TOL,
    DEFAULT_MAX_CHART_LEN,
    Atlas,
    _round_sig,
    build_atlas,
    check_atlas,
    gap_table,
)
from .errors import AtlasBuildError, ValidationError
from .families import OperatorFamily
from .flow import index_chain, spectral_flow_chartwise, spectral_flow_oracle
from .linalg import window_boundary_error
from .sections import PartitionOfUnity, partition_of_unity

BAND_IDENTITY_TOL = 1e-9
SATURATION_TOL = 1e-9


def chi(u, r: float):
    """The odd squashing profile with radius r.

    Identity on [-r/2, r/2], affine out to +-1 at +-r, constant beyond.
    With r = 1 it is the identity on [-1, 1]. Returns a float for scalar
    input, an array otherwise.
    """
    if not 0.0 < r <= 1.0:
        raise ValidationError(f"chi radius must lie in (0, 1], got {r}")
    scalar = np.isscalar(u)
    a = np.abs(np.asarray(u, dtype=float))
    mid = (2.0 / r - 1.0) * a + r - 1.0
    out = np.where(a <= r / 2.0, a, np.where(a < r, mid, 1.0))
    out = np.sign(np.asarray(u, dtype=float)) * out
    return float(out) if scalar else out


def radius_function(atlas: Atlas, pou: PartitionOfUnity) -> np.ndarray:
    """Per-sample squash radius: partition-weighted average of chart radii.

    Every chart radius must already sit below 1 (the family is expected in
    normalized scale). Convexity puts each value at or above the smallest
    radius of a chart active there, which is asserted.
    """
    eps = np.array([c.eps for c in atlas.charts], dtype=float)
    if np.any(eps >= 1.0):
        raise ValidationError(
            "chart radius at or above 1 cannot feed the squash profile; "
            "normalize the family first"
        )
    if pou.n_charts != atlas.n_charts:
        raise ValidationError("partition and atlas disagree on the chart count")
    r = pou.weights.T @ eps
    n = r.size
    for x in range(n):
        active = pou.active_charts(x)
        lo = min(eps[i] for i in active)
        if r[x] < lo - 1e-12 or not 0.0 < r[x] < 1.0:
            raise ValidationError(
                f"squash radius {r[x]:.6g} at sample {x} escapes its bounds"
            )
    return r


@dataclass(frozen=True, eq=False)
class PolarizedReplacement:
    """Replacement family with the data used to build and check it."""

    family: OperatorFamily
    scaled_input: OperatorFamily = field(repr=False)
    scale: float
    radius: np.ndarray
    atlas: Atlas
    pou: PartitionOfUnity = field(repr=False)
    band_report: dict = field(default_factory=dict)


def _admissible_band_levels(g: OperatorFamily, caps: np.ndarray, gap_tol: float) -> list:
    """Per sample, the window levels under its cap that clear its absolute
    spectrum by gap_tol, best first.

    Row x gives the radii _radius_candidates(g, x, x, gap_tol, eps_cap=caps[x])
    would: midpoints of the capped gaps of [0 | |lam(x)|], ordered by
    clearance rounded to 12 significant digits, descending, then by level.
    Duplicate eigenvalues leave zero-width gaps, which the clipping drops.
    A sample whose cap is at most gap_tol gets no levels: its clearances are
    at most cap / 2.
    """
    edges = np.concatenate((np.zeros((g.n_samples, 1)), g.abs_eigenvalues), axis=1)
    keep, mids, clear = gap_table(edges, cap=caps[:, None])
    keep &= (clear >= gap_tol) & (mids > 0)
    out = []
    for row, m, h in zip(keep, mids, clear):
        ranked = sorted(zip(m[row].tolist(), h[row].tolist()),
                        key=lambda c: (-_round_sig(c[1]), c[0]))
        out.append([eps for eps, _clear in ranked])
    return out


def _window_projectors(F: np.ndarray) -> np.ndarray:
    """Projectors onto the column spans of a (G, n, k) stack of frames."""
    return F @ F.conj().transpose(0, 2, 1)


def band_identity_check(g: OperatorFamily, replaced: OperatorFamily,
                        radius: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL) -> dict:
    """Windows above small levels agree between the input and the replacement.

    For every sample and every admissible level under half the local squash
    radius, the spectral windows (level, inf) of the two families are
    compared; the squash is the identity that deep inside, so the subspaces
    must coincide. Returns the worst distance and the number of samples
    that offered no admissible level.

    All (sample, level) pairs are collected first and grouped by the ranks
    of the two windows. Each group's projectors come from one stacked matmul
    per family over the top frame columns, and its distances from one
    stacked eigvalsh of their differences; these are the same gemm and
    LAPACK calls subspace_distance makes, so every distance is bit-identical
    to it. A window edge on an eigenvalue (input family first) or a distance
    over BAND_IDENTITY_TOL raises at the first pair in sample, then level,
    order.
    """
    xs, levels = [], []
    skipped = 0
    per_sample = _admissible_band_levels(g, np.asarray(radius, dtype=float) / 2.0 - gap_tol,
                                         gap_tol)
    for x, found in enumerate(per_sample):
        skipped += not found
        xs += [x] * len(found)
        levels += found
    if not levels:
        return {"worst_distance": 0.0, "levels_checked": 0, "samples_skipped": skipped}
    xs = np.array(xs)
    levels = np.array(levels)
    failures = []
    ranks = []
    for fam in (g, replaced):
        lam = fam.eigenvalues[xs]
        hit = window_boundary_error(lam, levels, np.inf)
        if hit is not None:
            failures.append(hit)
        ranks.append(np.sum(lam > levels[:, None], axis=1))
    n = g.dim
    dist = np.empty(levels.size)
    groups, which = np.unique(np.stack(ranks, axis=1), axis=0, return_inverse=True)
    for i, (kg, kr) in enumerate(groups.tolist()):
        sel = np.flatnonzero(which.ravel() == i)
        D = (_window_projectors(g.frames[xs[sel], :, n - kg:])
             - _window_projectors(replaced.frames[xs[sel], :, n - kr:]))
        dist[sel] = np.abs(np.linalg.eigvalsh(D)).max(axis=1)
    bad = np.flatnonzero(dist > BAND_IDENTITY_TOL)
    if bad.size:
        p = int(bad[0])
        failures.append((p, ValidationError(
            f"band identity fails at sample {xs[p]}, level {levels[p]:.6g}: "
            f"distance {dist[p]:.3e}"
        )))
    if failures:
        raise min(failures, key=lambda hit: hit[0])[1]
    worst = 0.0
    for d in dist.tolist():
        worst = max(worst, d)
    return {"worst_distance": worst, "levels_checked": int(levels.size),
            "samples_skipped": skipped}


def finite_polarized_replace(f: OperatorFamily, atlas: Atlas | None = None,
                             pou: PartitionOfUnity | None = None,
                             gap_tol: float = DEFAULT_GAP_TOL,
                             max_chart_len: int = DEFAULT_MAX_CHART_LEN) -> PolarizedReplacement:
    """Normalize, build an adapted atlas, and squash the far spectrum.

    The input is divided by its spectral radius so everything lives in
    [-1, 1]; chart radii of an adapted atlas on the normalized family are
    averaged through a partition of unity into the per-sample squash radius
    r(x), and chi_{r(x)} is applied through each eigendecomposition. Atlas
    and partition may be supplied (they must fit the normalized family);
    both are built when omitted. The frozen multiplicities declared on the
    output are the saturation counts that hold at every sample. The band
    identity under r(x)/2 is checked before returning.
    """
    if not f.hermitian:
        raise ValidationError("polarized replacement needs a Hermitian family")
    K = f.spectral_radius()
    if K <= 0.0:
        raise ValidationError("the zero family has no spectrum to polarize")
    eye_scale = 1.0 / K
    g = OperatorFamily(
        grid=f.grid,
        dim=f.dim,
        operators=tuple(eye_scale * A for A in f.operators),
        hermitian=True,
    )
    if atlas is None:
        atlas = build_atlas(g, max_chart_len=max_chart_len, gap_tol=gap_tol)
    ok, rep = check_atlas(g, atlas, gap_tol)
    if not ok:
        raise AtlasBuildError(f"normalized family rejected its own atlas: {rep}")
    if pou is None:
        # Loops of either kind live on a circle, so the radius function must
        # take one value at the seam; the partition splits the seam weight
        # between the first and last chart.
        loop = f.grid.closure in ("exact_loop", "shifted_loop")
        pou = partition_of_unity(atlas, g.n_samples, loop=loop)
    r = radius_function(atlas, pou)

    ops = []
    m_minus = None
    m_plus = None
    for x in range(g.n_samples):
        dec = g.eigen(x)
        squashed = chi(dec.eigenvalues, float(r[x]))
        A = (dec.frame * squashed) @ dec.frame.conj().T
        ops.append(0.5 * (A + A.conj().T))
        n_lo = int(np.sum(squashed <= -1.0 + SATURATION_TOL))
        n_hi = int(np.sum(squashed >= 1.0 - SATURATION_TOL))
        m_minus = n_lo if m_minus is None else min(m_minus, n_lo)
        m_plus = n_hi if m_plus is None else min(m_plus, n_hi)

    # chi is odd and monotone, so it maps sorted spectra to sorted spectra;
    # when the squash radius agrees at both ends the shifted-loop matching
    # of the input survives verbatim, shift included.
    replaced = OperatorFamily(
        grid=f.grid,
        dim=f.dim,
        operators=tuple(ops),
        hermitian=True,
        polarized_bands=(m_minus, m_plus),
        scale=K,
    )
    band_report = band_identity_check(g, replaced, r, gap_tol)
    return PolarizedReplacement(
        family=replaced,
        scaled_input=g,
        scale=K,
        radius=r,
        atlas=atlas,
        pou=pou,
        band_report=band_report,
    )


def flow_preservation_check(f: OperatorFamily, replacement: PolarizedReplacement,
                            gap_tol: float = DEFAULT_GAP_TOL,
                            max_chart_len: int = DEFAULT_MAX_CHART_LEN):
    """Compare the flow before and after replacement on one shared atlas.

    The shared atlas is built on the normalized input with every chart
    radius capped under half the smallest squash radius, which makes it
    adapted for the replacement as well: that deep inside, the squash acts
    as the identity. Returns (equal, report).
    """
    g = replacement.scaled_input
    cap = float(replacement.radius.min()) / 2.0 - gap_tol
    if cap <= gap_tol:
        raise AtlasBuildError(
            "squash radius too small to fit a shared atlas under its half"
        )
    shared = build_atlas(g, max_chart_len=max_chart_len, gap_tol=gap_tol,
                         eps_cap=cap)
    for fam, name in ((g, "normalized input"), (replacement.family, "replacement")):
        ok, rep = check_atlas(fam, shared, gap_tol)
        if not ok:
            raise AtlasBuildError(f"shared atlas rejected by the {name}: {rep}")
    flow_in = spectral_flow_chartwise(index_chain(g, shared, gap_tol=gap_tol))
    flow_out = spectral_flow_chartwise(index_chain(replacement.family, shared,
                                                   gap_tol=gap_tol))
    oracle_in = spectral_flow_oracle(f)
    report = {
        "flow_input": flow_in,
        "flow_replacement": flow_out,
        "flow_oracle_unscaled": oracle_in,
        "shared_charts": shared.n_charts,
        "eps_cap": cap,
    }
    return flow_in == flow_out == oracle_in, report
