"""Finite polarized replacement: squash far spectrum onto -1 and +1.

The odd piecewise-linear profile chi keeps a neighbourhood of zero intact
(identity below half its radius) and saturates at one beyond the radius.
Applying it samplewise, with the radius varying through a partition of
unity over an adapted atlas, turns a family with unbounded-looking ends
into one whose spectrum fills [-1, 1] with frozen bands at the ends, while
every band of interest and the spectral flow survive untouched.

The replacement is a functional calculus of the input, so only the input is
solved: the normalized family and the replacement share its eigenvectors and
get their spectral planes in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atlas import DEFAULT_GAP_TOL, DEFAULT_MAX_CHART_LEN, Atlas, build_atlas, check_atlas
from .errors import AtlasBuildError, ModelViolationError, ValidationError
from .families import OperatorFamily
from .flow import index_chain, spectral_flow_chartwise, spectral_flow_oracle
from .linalg import eigen_residual
from .sections import PartitionOfUnity, partition_of_unity

# Largest distance allowed between the (level, inf) windows of the input and
# the replacement below half the squash radius. band_identity_check certifies
# the eigen-residual that makes these windows equal.
BAND_IDENTITY_TOL = 1e-9
SATURATION_TOL = 1e-9


def chi(u, r):
    """The odd squashing profile with radius r.

    Identity on [-r/2, r/2], affine out to +-1 at +-r, constant beyond.
    With r = 1 it is the identity on [-1, 1]. r is a float or an array that
    broadcasts against u, such as one radius per row of an eigenvalue
    table. Returns a float for scalar input, an array otherwise.
    """
    radius = np.asarray(r, dtype=float)
    if not np.all((radius > 0.0) & (radius <= 1.0)):
        raise ValidationError(f"chi radius must lie in (0, 1], got {r}")
    scalar = np.isscalar(u) and radius.ndim == 0
    a = np.abs(np.asarray(u, dtype=float))
    mid = (2.0 / radius - 1.0) * a + radius - 1.0
    out = np.where(a <= radius / 2.0, a, np.where(a < radius, mid, 1.0))
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
    # smallest radius of the charts active (weight > 0) at each sample
    lo = np.where(pou.weights > 0, eps[:, None], np.inf).min(axis=0)
    bad = np.flatnonzero((r < lo - 1e-12) | ~((0.0 < r) & (r < 1.0)))
    if bad.size:
        x = bad[0]
        raise ValidationError(f"squash radius {r[x]:.6g} at sample {x} escapes its bounds")
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


def band_identity_check(g: OperatorFamily, replaced: OperatorFamily,
                        radius: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL) -> dict:
    """The replacement's operators are chi_r of the normalized input's.

    The replacement is the functional calculus chi_{r(x)}(g(x)) at every
    sample, so g's frames V must diagonalize each of its operators with
    eigenvalues chi_{r(x)}(lam_g(x)), in g's ascending order. Below half
    the local radius chi is the identity, so every window (level, inf)
    there is then the same subspace in both families. The identity is
    certified on the operators as stored, which are the ones a report
    writes out: the stacked eigen-residual max|A' V - V chi_r(Lam)| of each
    sample must meet the rule hermitian_eig_stack applies, RECON_TOL times
    (1 + max|chi_r(lam)|). No eigensolve runs. gap_tol is accepted for
    callers of the earlier level-by-level form and has no effect.

    Raises ModelViolationError naming the first sample over its bound.
    Otherwise returns the number of samples checked and, at the sample
    whose residual comes closest to its bound, the residual and the bound.
    """
    r = np.asarray(radius, dtype=float)
    stack = replaced.operator_stack
    if stack.shape != g.operator_stack.shape or r.shape != (g.n_samples,):
        raise ValidationError("input, replacement and radius disagree in shape")
    resid, tol = eigen_residual(stack, chi(g.eigenvalues, r[:, None]), g.frames)
    bad = np.flatnonzero(resid > tol)
    if bad.size:
        x = int(bad[0])
        raise ModelViolationError(
            f"band identity fails at sample {x}: eigen-residual {resid[x]:.3e} "
            f"exceeds {tol[x]:.3e}"
        )
    worst = int(np.argmax(resid / tol))
    return {"samples_checked": int(resid.size), "tolerance": float(tol[worst]),
            "worst_residual": float(resid[worst]), "worst_sample": worst}


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
    output are the saturation counts that hold at every sample.

    Only the input is solved: the normalized family and the replacement get
    their spectral planes in closed form, (lam/K, V) and (chi_r(lam/K), V),
    and the replacement's operators come from one stacked matmul. The band
    identity is checked on those operators before returning.
    """
    if not f.hermitian:
        raise ValidationError("polarized replacement needs a Hermitian family")
    K = f.spectral_radius()
    if K <= 0.0:
        raise ValidationError("the zero family has no spectrum to polarize")
    eye_scale = 1.0 / K
    # Rescaling keeps the eigenvectors, so g's plane is f's, rescaled.
    g = OperatorFamily._with_plane(
        f.eigenvalues * eye_scale, f.frames,
        grid=f.grid, dim=f.dim, operators=eye_scale * f.operator_stack,
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

    # The replacement's plane is (chi_r(Lam_g), V_g). chi is odd and
    # monotone, so it maps sorted spectra to sorted spectra; when the squash
    # radius agrees at both ends the shifted-loop matching of the input
    # survives verbatim, shift included.
    V = g.frames
    squashed = chi(g.eigenvalues, r[:, None])
    A = (V * squashed[:, None, :]) @ V.conj().transpose(0, 2, 1)
    m_minus = int(np.sum(squashed <= -1.0 + SATURATION_TOL, axis=1).min())
    m_plus = int(np.sum(squashed >= 1.0 - SATURATION_TOL, axis=1).min())
    replaced = OperatorFamily._with_plane(
        squashed, V, polarized_bands=(m_minus, m_plus),
        grid=f.grid, dim=f.dim, operators=A,
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
