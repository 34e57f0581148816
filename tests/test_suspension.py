"""Suspension loops: spectrum identity, band correspondence, kernel counting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bandflow import (
    ModelViolationError,
    OperatorFamily,
    ParameterGrid,
    SpectralBoundaryError,
    Subspace,
    SuspensionFamily,
    ValidationError,
    absolute_value,
    band_correspondence_check,
    build_atlas,
    enhanced_check,
    generate,
    hermitian_eig,
    index_chain,
    spectral_flow_chartwise,
    spectral_projection,
    spectrum_surface,
    subspace_distance,
    suspend,
    suspension_index,
    suspension_spectrum_check,
    zero_band_check,
)
from bandflow import suspension
from bandflow.atlas import DEFAULT_GAP_TOL, band_gap_error
from bandflow.linalg import (
    as_hermitian,
    hermitian_eig_stack,
    plane_certificate,
    window_boundary_error,
)
from bandflow.suspension import BAND_MATCH_TOL, _suspension_operator

from conftest import random_hermitian


def family_of(stack):
    """Open-path family over the rows of an (N, n, n) stack, N >= 2."""
    grid = ParameterGrid(kind="interval_path", samples=np.linspace(0.0, 1.0, len(stack)),
                         closure="open_path")
    return OperatorFamily(grid=grid, dim=stack.shape[-1], operators=tuple(stack))


def constant_base(matrix, samples=2):
    M = np.asarray(matrix, dtype=np.complex128)
    return family_of(np.repeat(M[None], samples, axis=0))


# References: the Gram route the checks took before they read the plane's
# certificate, one matrix and one angle at a time, each solving its base
# operator again and |B(t)|^2 at every angle.


def _gram_spectrum(B):
    gram = B.conj().T @ B
    return np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))


def reference_spectrum_check(A, t):
    scalar = np.isscalar(t)
    lam = hermitian_eig(A).eigenvalues
    A = np.asarray(A, dtype=np.complex128)
    devs = []
    for tk in np.atleast_1d(np.asarray(t, dtype=float)).tolist():
        left = np.sort(_gram_spectrum(_suspension_operator(A, tk)))
        right = np.sort(np.cos(tk) ** 2 + lam**2 * np.sin(tk) ** 2)
        dev = float(np.abs(left - right).max())
        if dev > suspension.SPECTRUM_IDENTITY_TOL * max(1.0, float(right.max())):
            raise ModelViolationError(
                f"suspension spectrum identity violated at t={tk}: deviation {dev:.3e}"
            )
        devs.append(dev)
    return devs[0] if scalar else np.array(devs)


def _gram_absolute_value(B):
    """|B| through the Gram route: the eigh of B*B, square roots of its
    eigenvalues clipped at 0, symmetrized."""
    H = B.conj().T @ B
    lam, F = np.linalg.eigh(0.5 * (H + H.conj().T))
    out = (F * np.sqrt(np.clip(lam, 0.0, None))) @ F.conj().T
    return 0.5 * (out + out.conj().T)


def reference_band_distances(A, eps, t):
    """Per angle of t, the distance between the band of the solved |B(t)|
    below delta(t) and enhanced_check's band of A; inf when the ranks differ."""
    ts = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
    if np.any(np.abs(np.sin(ts)) < 1e-9):
        raise ValidationError("band correspondence needs sin t bounded away from 0")
    A = np.asarray(A, dtype=np.complex128)
    low_base = enhanced_check(A, eps).band
    dists = []
    for tk in ts:
        delta = float(np.sqrt(np.cos(tk) ** 2 + eps**2 * np.sin(tk) ** 2))
        low_susp = spectral_projection(_gram_absolute_value(_suspension_operator(A, tk)), -1.0,
                                       delta)
        dists.append(subspace_distance(low_susp, low_base) if low_susp.dim == low_base.dim
                     else np.inf)
    return np.array(dists)


def reference_band_check(A, eps, t):
    oks = reference_band_distances(A, eps, t) <= BAND_MATCH_TOL
    return bool(oks[0]) if np.isscalar(t) else oks


# How far the Gram route itself may stray, from standard rounding-error
# bounds: u is the unit roundoff and gamma_k = k u / (1 - k u).


def _gamma(k):
    u = np.finfo(np.float64).eps / 2
    return k * u / (1.0 - k * u)


def gram_error(A, t):
    """(T,) bound on ||G^ - B*B||_2 plus eigvalsh's backward error, where G^
    is the Gram matrix of B = cos t + i sin t A as _gram_spectrum forms it.

    fl(B) = B + dB with |dB| <= u|B| entrywise (one rounding per entry), so
    the exact product moves by at most (2u + u^2) ||B||_F^2; the complex
    matmul adds gamma_{n+2} || |B^|* |B^| ||_F, symmetrizing u ||G^||_F, and
    eigvalsh, backward stable, at most gamma_{n^2} ||G^||_F. With ||G^||_F
    <= (1 + gamma_{n+4}) ||B||_F^2 the sum is within
    gamma_{n^2+3n+16} ||B||_F^2, and ||B||_F^2 = n cos^2 t + sin^2 t ||A||_F^2
    for Hermitian A.
    """
    A = np.asarray(A)
    n = A.shape[0]
    t = np.asarray(t, dtype=float)
    fro2 = n * np.cos(t) ** 2 + np.sin(t) ** 2 * np.linalg.norm(A) ** 2
    return _gamma(n * n + 3 * n + 16) * fro2


def spectrum_slack(A, t):
    """(T,) slack of the reference deviation over the exact one: gram_error,
    plus gamma_4 m for evaluating cos^2 t + lam^2 sin^2 t (at most m) and
    taking the difference."""
    lam = np.linalg.eigvalsh(A)
    t = np.asarray(t, dtype=float)
    m = np.cos(t) ** 2 + np.max(lam**2) * np.sin(t) ** 2
    return gram_error(A, t) + _gamma(4) * m


def band_slack(A, eps, t):
    """(T,) bound on the distance between the reference's band of |B(t)| and
    the exact one; inf where the bound cannot separate the two.

    The exact eigenvalues of A lie within eta of the plane's (the
    certificate), so those of B*B lie at least m_G = sin^2 t min(eps^2 -
    (max|lam_in| + eta)^2, (min|lam_out| - eta)^2 - eps^2) from delta^2.
    The solved Gram matrix is exact for a perturbation E = gram_error, so
    when E < m_G its band has the exact rank and, by Davis-Kahan, sin theta
    <= E / (2 m_G - E). Its square roots then sit at least m_B = min(delta -
    sqrt(delta^2 - m_G + E), sqrt(delta^2 + m_G - E) - delta) from delta;
    forming |B| and solving it again perturbs it by E_B = gamma_{n^2+2n+8}
    sqrt(||B||_F^2 + E), giving E_B / (2 m_B - E_B) when E_B < m_B. Forming
    the two projectors and the eigvalsh of their difference adds at most
    gamma_{n^2+n+2} (2n + 2).
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    H = as_hermitian(A)[None]
    lam, F = hermitian_eig_stack(H)
    eta = float(plane_certificate(H, lam, F)[0][0])
    lam = np.abs(lam[0])
    t = np.asarray(t, dtype=float)
    c2, s2 = np.cos(t) ** 2, np.sin(t) ** 2
    inside = lam < eps
    below = eps**2 - (lam[inside].max() + eta) ** 2 if inside.any() else np.inf
    above = max(lam[~inside].min() - eta, 0.0) ** 2 - eps**2 if (~inside).any() else np.inf
    m_g = s2 * min(below, above)
    E = gram_error(A, t)
    d2 = c2 + eps**2 * s2
    with np.errstate(invalid="ignore"):
        m_b = np.minimum(np.sqrt(d2) - np.sqrt(d2 - m_g + E), np.sqrt(d2 + m_g - E) - np.sqrt(d2))
    E_b = _gamma(n * n + 2 * n + 8) * np.sqrt(n * c2 + s2 * np.linalg.norm(A) ** 2 + E)
    out = E / (2 * m_g - E) + E_b / (2 * m_b - E_b) + _gamma(n * n + n + 2) * (2 * n + 2)
    return np.where((E < m_g) & (E_b < m_b), out, np.inf)


def reference_surface(sf):
    out = np.zeros((sf.n_parameters, sf.n_angles, sf.base.dim))
    for x in range(sf.n_parameters):
        for k in range(sf.n_angles):
            out[x, k] = _gram_spectrum(sf.operator(x, k))
    return out


def outcome(fn, *args, **kwargs):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_outcome(new, old):
    """Equal tables, or the same error type and message."""
    assert type(new) is type(old)
    assert new == old if isinstance(old, tuple) else np.array_equal(new, old)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- suspend


def test_suspend_zero_operator_vanishes_on_equator():
    sf = suspend(constant_base([[0.0]]), t_count=5)
    te = sf.equator_index()
    assert te == 2
    B = sf.operator(0, te)
    assert np.abs(B).max() < 1e-15


def test_suspend_unit_operator_stays_unitary():
    sf = suspend(constant_base([[1.0]]), t_count=9)
    for k in range(sf.n_angles):
        B = sf.operator(0, k)
        assert abs(np.linalg.svd(B, compute_uv=False)[0] - 1.0) < 1e-12


def test_suspend_endpoint_collapse():
    sf = suspend(generate("crossing", k=1, m=1, samples=5), t_count=5)
    eye = np.eye(2)
    for x in range(sf.n_parameters):
        assert np.abs(sf.operator(x, 0) - eye).max() <= 1e-12
        assert np.abs(sf.operator(x, sf.n_angles - 1) + eye).max() <= 1e-12


def test_suspend_normality(rng):
    A = random_hermitian(rng, 5)
    sf = suspend(constant_base(A), t_count=11)
    for k in range(sf.n_angles):
        B = sf.operator(0, k)
        comm = B @ B.conj().T - B.conj().T @ B
        assert np.abs(comm).max() <= 1e-10


def test_suspend_validation():
    f = constant_base(np.eye(2))
    with pytest.raises(ValidationError, match="odd"):
        suspend(f, t_count=8)
    with pytest.raises(ValidationError, match="odd"):
        suspend(f, t_count=1)
    t = np.linspace(0, 1, 3)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    nh = OperatorFamily(grid=grid, dim=2, operators=(B,) * 3, hermitian=False)
    with pytest.raises(ValidationError, match="self-adjoint"):
        suspend(nh)


def test_suspension_family_validation():
    base = constant_base([[1.0]])
    angles = np.array([0.0, np.pi / 2, np.pi])
    sf = SuspensionFamily(base=base, t_samples=angles)
    assert sf.n_parameters == 2 and sf.n_angles == 3
    assert np.abs(sf.operator(1, 1) - 1j).max() < 1e-15
    with pytest.raises(ValidationError, match="0 to pi"):
        SuspensionFamily(base=base, t_samples=np.array([0.1, 1.0, np.pi]))


def test_equator_index_requires_equator_sample():
    base = constant_base([[1.0]])
    angles = np.array([0.0, 1.0, 2.0, np.pi])
    sf = SuspensionFamily(base=base, t_samples=angles)
    with pytest.raises(ValidationError, match="equator"):
        sf.equator_index()


# ---------------------------------------------------------------- spectrum


def test_spectrum_identity_diagonal():
    dev = suspension_spectrum_check(np.diag([2.0]), np.pi / 2)
    assert dev < 1e-12
    B = 1j * np.diag([2.0])
    gram = B.conj().T @ B
    assert abs(np.linalg.eigvalsh(gram)[0] - 4.0) < 1e-12


def test_spectrum_identity_at_zero_angle(rng):
    A = random_hermitian(rng, 4)
    assert suspension_spectrum_check(A, 0.0) < 1e-12


def test_spectrum_identity_random_sweep(rng):
    A = random_hermitian(rng, 6)
    angles = np.linspace(0.0, np.pi, 50)
    devs = suspension_spectrum_check(A, angles)
    assert devs.shape == (50,)
    assert devs.max() <= 1e-9
    # the array form gives exactly the per-angle deviations
    assert np.array_equal(devs, [suspension_spectrum_check(A, float(t)) for t in angles])


def test_spectrum_check_family_table(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(6)])
    f = family_of(stack)
    angles = np.linspace(0.0, np.pi, 9)
    table = suspension_spectrum_check(f, angles)
    assert table.shape == (6, 9)
    assert table.max() <= 1e-9
    # a scalar angle drops the angle axis; a matrix is the one-row case
    assert same_bits(suspension_spectrum_check(f, 0.7), suspension_spectrum_check(f, [0.7])[:, 0])
    assert same_bits(suspension_spectrum_check(stack[2], angles), table[2])
    assert suspension_spectrum_check(stack[2], float(angles[3])) == table[2, 3]


def test_spectrum_identity_tolerance_scales_with_the_closed_form():
    lam = np.array([[0.5, 2.0], [-1e4, 3.0]])
    tol = suspension.spectrum_identity_tolerance(lam, [0.0, np.pi / 2])
    floor = suspension.SPECTRUM_IDENTITY_TOL
    # never below the absolute floor
    assert tol.tolist() == [[floor, floor * 4.0], [floor, floor * 1e8]]


@given(
    stack=st.integers(1, 8).flatmap(lambda n: st.integers(1, 30).flatmap(
        lambda N: hnp.arrays(np.float64, (N, n, n, 2),
                             elements=st.floats(-10.0, 10.0, allow_subnormal=False)))),
    t_count=st.integers(1, 20).map(lambda h: 2 * h + 1),
    eps=st.floats(0.05, 3.0),
    scale=st.floats(1.0, 1e4),
    spread=st.sampled_from([1.0, 1e-4, 1e-9]),
    center=st.floats(-3.0, 3.0),
    eps_scales=st.booleans(),
)
def test_stacked_checks_match_per_matrix_loops(stack, t_count, eps, scale, spread, center,
                                               eps_scales):
    # spread < 1 clusters each spectrum around scale * center
    X = stack[..., 0] + 1j * stack[..., 1]
    n = X.shape[-1]
    H = scale * (center * np.eye(n) + spread * 0.5 * (X + X.conj().transpose(0, 2, 1)))
    eps = eps * scale if eps_scales else eps
    t = np.linspace(0.0, np.pi, t_count)
    t[(t_count - 1) // 2] = np.pi / 2
    ts = t[1:-1]
    rows = range(0, len(H), max(1, len(H) // 8))

    # the closed-form bound covers the Gram route's deviation, up to the
    # Gram route's own rounding, and both raise alike
    ours = [outcome(suspension_spectrum_check, A, t) for A in H]
    for A, new in zip(H, ours):
        old = outcome(reference_spectrum_check, A, t)
        assert isinstance(new, tuple) == isinstance(old, tuple)
        if isinstance(new, tuple):
            assert new[0] is old[0]
        else:
            assert np.all(old <= new + spectrum_slack(A, t))
    # a certified band is within BAND_MATCH_TOL of the reference's, up to
    # the reference's own rounding; errors have the same type row by row
    bands = [outcome(band_correspondence_check, H[x], eps, ts) for x in rows]
    for x, new in zip(rows, bands):
        old = outcome(reference_band_distances, H[x], eps, ts)
        assert isinstance(new, tuple) == isinstance(old, tuple)
        if isinstance(new, tuple):
            assert new[0] is old[0]
        else:
            assert np.all(old[new] <= BAND_MATCH_TOL + band_slack(H[x], eps, ts)[new])
    if len(H) == 1:
        return

    # the family checks are the per-matrix ones, stacked: the same values,
    # or the first raising row's error
    f = family_of(H)
    for table, per_row in ((outcome(suspension_spectrum_check, f, t), ours),
                           (outcome(band_correspondence_check, f, eps, ts, samples=rows),
                            bands)):
        raised = [o for o in per_row if isinstance(o, tuple)]
        if raised:
            assert table == raised[0]
        else:
            assert same_bits(table, np.array(per_row))
    sf = suspend(f, t_count=t_count)
    # within 1e-9 of the largest value at each (sample, angle), the scale of
    # the Gram route's own rounding
    ref = reference_surface(sf)
    top = np.maximum(1.0, ref.max(axis=2, keepdims=True))
    assert np.all(np.abs(spectrum_surface(sf) - ref) <= 1e-9 * top)


def test_band_check_base_gap_error_matches_the_loop(rng):
    stack = np.array([random_hermitian(rng, 5) for _ in range(40)])
    rows = list(range(0, 40, 5))
    # eps on an eigenvalue of the fourth checked sample, and within the gap
    # tolerance of one of the sixth, which must not be the one reported
    lam = np.linalg.eigvalsh(stack[rows[3]])[2]
    eps = float(abs(lam))
    stack[rows[5]] = stack[rows[3]] + 3e-7 * np.sign(lam) * np.eye(5)
    f = family_of(stack)
    t = suspend(f, t_count=11).t_samples[1:-1]
    new = outcome(band_correspondence_check, f, eps, t, samples=rows)
    old = outcome(lambda: [reference_band_check(f.operators[x], eps, t) for x in rows])
    assert new[0] is SpectralBoundaryError
    assert new == old
    assert outcome(band_correspondence_check, stack[rows[3]], eps, t) == \
        outcome(reference_band_check, stack[rows[3]], eps, t)


def reference_band_edges(f, eps, t, rows):
    """The per-angle edge reads band_correspondence_check replaces: the base gap,
    then angle by angle the first row with an ambiguous edge, -1 before delta."""
    lam = f.eigenvalues[rows]
    first = band_gap_error(lam, eps, DEFAULT_GAP_TOL)
    for tk in t:
        c2, s2 = np.cos(tk) ** 2, np.sin(tk) ** 2
        abs_b = np.sqrt(np.sort(c2 + lam**2 * s2, axis=1))
        hit = window_boundary_error(abs_b, -1.0, float(np.sqrt(c2 + eps**2 * s2)))
        if hit is not None and (first is None or hit[0] < first[0]):
            first = hit
    if first is not None:
        raise first[1]


def diagonal_family(rows):
    return family_of(np.array([np.diag(r) for r in rows], dtype=np.complex128))


def test_band_check_edge_errors_come_lowest_sample_first():
    # at eps 0.6 and angles 0.5, 1.2, 2.9 the level 0.64 beside 1e7 makes the
    # delta edge ambiguous only at the last angle, and 0.5 beside 4e9 makes
    # both edges ambiguous at the first (the -1 edge by the spectral radius)
    clean, late, both = [0.3, 1.0, 2.0], [0.64, 1e7, 2.0], [0.5, 4e9, 2.0]
    t, eps = [0.5, 1.2, 2.9], 0.6
    delta = np.sqrt(np.cos(2.9) ** 2 + eps**2 * np.sin(2.9) ** 2)
    for rows, edge in (([clean, late, both, clean], delta), ([clean, clean, both, late], -1.0)):
        f = diagonal_family(rows)
        new = outcome(band_correspondence_check, f, eps, t)
        assert new == outcome(reference_band_edges, f, eps, t, slice(None))
        assert new[0] is SpectralBoundaryError
        assert f"window endpoint {edge:.12g} " in new[1]


# levels near eps = 0.6, and spectral radii large enough to widen the edge tolerance
EDGE_LEVELS = st.sampled_from([0.1, 0.59, 0.6 + 1e-4, 0.62, 0.64, 0.7, 2.0, 1e7, 4e9, 1e10])


@given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
           st.lists(EDGE_LEVELS | st.floats(-3.0, 3.0), min_size=n, max_size=n),
           min_size=2, max_size=6)),
       t=st.lists(st.floats(0.05, np.pi - 0.05), min_size=1, max_size=5),
       every=st.integers(1, 3))
def test_band_check_raises_what_the_per_angle_loop_raised(rows, t, every):
    f = diagonal_family(rows)
    picked = range(0, len(rows), every)
    new = outcome(band_correspondence_check, f, 0.6, t, samples=picked)
    old = outcome(reference_band_edges, f, 0.6, t, list(picked))
    if old is not None:
        assert new == old
    else:
        assert not isinstance(new, tuple)


def test_band_check_validates_the_radius():
    with pytest.raises(ValidationError, match="positive"):
        band_correspondence_check(np.diag([0.5]), eps=0.0, t=1.0)


def test_spectrum_check_first_violation_matches_the_loop(rng, monkeypatch):
    # doubling a matrix quadruples its bound sin^2 t (2 rho eta + eta^2);
    # below rho = 1 the tolerance does not scale, so sample 5 violates the
    # lowered tolerance from t = pi/4 on and every other sample only on the
    # equator: the first violation by sample differs from the first by angle
    A = 0.05 * random_hermitian(rng, 4)
    f = family_of(np.array([2.0 * A if x == 5 else A for x in range(12)]))
    t = suspend(f, t_count=9).t_samples
    dev = suspension_spectrum_check(f, t)
    tol = suspension.spectrum_identity_tolerance(f.eigenvalues, t)
    scale = tol / suspension.SPECTRUM_IDENTITY_TOL
    assert (scale == 1.0).all()
    partial = 0.93 * float(dev[0, 4])
    over = dev > partial * scale
    assert np.argmax(over) != np.ravel_multi_index(
        np.unravel_index(np.argmax(over.T), over.T.shape)[::-1], over.shape)
    for tol in (0.0, partial):
        monkeypatch.setattr(suspension, "SPECTRUM_IDENTITY_TOL", tol)
        new = outcome(suspension_spectrum_check, f, t)
        old = outcome(lambda: [suspension_spectrum_check(A, t) for A in f.operators])
        assert new[0] is ModelViolationError
        assert new == old


def test_spectrum_check_flags_a_shifted_eigenvalue():
    # the plane's eigenvalue moves by 1e-6 while its frame stays exact: only
    # the residual A V - V Lambda sees it, and the bound then exceeds the
    # tolerance at every angle away from the poles
    f = constant_base(np.diag([0.5, 2.0]), samples=3)
    lam = f.eigenvalues.copy()
    lam[1, 0] += 1e-6
    g = OperatorFamily._with_plane(lam, f.frames, grid=f.grid, dim=2, operators=f.operator_stack)
    t = suspend(f, t_count=9).t_samples
    assert suspension_spectrum_check(f, t).max() < 1e-13
    dev = suspension.spectrum_identity_deviation(g, t)
    assert dev[1, 4] >= 2 * 2.0 * 1e-6
    assert (dev[1, 1:-1] > suspension.spectrum_identity_tolerance(lam, t)[1, 1:-1]).all()
    with pytest.raises(ModelViolationError, match="identity violated"):
        suspension_spectrum_check(g, t)


def test_band_check_flags_a_rotated_band():
    # rotate the band column of diag(0.2, 2.0) toward the level outside it by
    # 1e-4, keeping the frame orthonormal: the ranks still agree and only the
    # residual sees the turn, so every verdict is false
    f = constant_base(np.diag([0.2, 2.0]), samples=3)
    angles = np.linspace(0.2, np.pi - 0.2, 7)
    assert band_correspondence_check(f, 1.0, angles).all()
    c, s = np.cos(1e-4), np.sin(1e-4)
    turn = np.array([[c, -s], [s, c]], dtype=np.complex128)
    g = OperatorFamily._with_plane(f.eigenvalues, f.frames @ turn, grid=f.grid, dim=2,
                                   operators=f.operator_stack)
    assert np.all(g.certificate[2] < 1e-14)
    assert not band_correspondence_check(g, 1.0, angles).any()


def test_spectrum_surface_formula():
    f = generate("crossing", k=1, m=1, samples=11)
    sf = suspend(f, t_count=9)
    surface = spectrum_surface(sf)
    assert surface.shape == (11, 9, 2)
    for x in range(sf.n_parameters):
        lam = np.linalg.eigvalsh(f.operators[x])
        for k, t in enumerate(sf.t_samples):
            want = np.sort(np.cos(t) ** 2 + lam**2 * np.sin(t) ** 2)
            assert np.abs(surface[x, k] - want).max() < 1e-9


def test_no_spectrum_below_cosine():
    f = generate("crossing", k=1, m=1, samples=11)
    sf = suspend(f, t_count=9)
    surface = spectrum_surface(sf)
    for k, t in enumerate(sf.t_samples):
        assert surface[:, k, 0].min() >= np.cos(t) ** 2 - 1e-12


# ---------------------------------------------------------------- band lemma


def test_band_correspondence_equator():
    A = np.diag([-2.0, 0.5, 3.0])
    assert band_correspondence_check(A, eps=1.0, t=np.pi / 2)
    # direct check: |B| at the equator is |A|, and delta = eps there
    absB = absolute_value(1j * A)
    low = spectral_projection(absB, -1.0, 1.0)
    e2 = np.zeros((3, 1), dtype=np.complex128)
    e2[1, 0] = 1.0
    assert subspace_distance(low, Subspace(3, e2)) < 1e-12


def test_band_correspondence_interior_angles(rng):
    Q, _ = np.linalg.qr(random_hermitian(rng, 4) + 5j * np.eye(4))
    A = Q @ np.diag([-1.7, -0.3, 0.4, 2.2]) @ Q.conj().T
    angles = np.linspace(0.05 * np.pi, 0.95 * np.pi, 20)
    for t in angles:
        assert band_correspondence_check(A, eps=1.0, t=float(t)) is True
    assert band_correspondence_check(A, eps=1.0, t=angles).tolist() == [True] * 20
    f = family_of(np.array([A, -A, 0.5 * A]))
    table = band_correspondence_check(f, eps=1.0, t=angles)
    assert table.shape == (3, 20) and table.all()
    assert band_correspondence_check(f, eps=1.0, t=angles, samples=[2]).shape == (1, 20)
    assert band_correspondence_check(f, eps=1.0, t=1.0).shape == (3,)


def test_band_correspondence_needs_interior_angle():
    with pytest.raises(ValidationError, match="sin t"):
        band_correspondence_check(np.diag([0.5]), eps=1.0, t=0.0)
    with pytest.raises(ValidationError, match="sin t"):
        band_correspondence_check(np.diag([0.5]), eps=1.0, t=np.array([1.0, np.pi]))


def test_zero_band_below_cosine():
    assert zero_band_check(np.diag([0.5]), delta=0.5, t=0.25 * np.pi)
    A = np.diag([-2.0, 0.5, 3.0])
    for t in (0.1 * np.pi, 0.4 * np.pi, 0.85 * np.pi):
        delta = 0.9 * abs(np.cos(t))
        assert zero_band_check(A, delta=float(delta), t=float(t))


def test_zero_band_validation():
    with pytest.raises(ValidationError, match="delta"):
        zero_band_check(np.diag([0.5]), delta=0.8, t=0.25 * np.pi)
    with pytest.raises(ValidationError, match="delta"):
        zero_band_check(np.diag([0.5]), delta=-0.1, t=0.25 * np.pi)
    with pytest.raises(ValidationError, match="sin t"):
        zero_band_check(np.diag([0.5]), delta=0.1, t=np.pi)


def test_window_freezes_across_absolute_gap():
    # widening the band radius inside a spectral-free stretch changes nothing
    A = np.diag([0.2, -0.5, 3.0])
    absA = absolute_value(A)
    top = spectral_projection(absA, -1.0, 2.5)
    for eps in (0.9, 1.5, 2.4):
        win = spectral_projection(absA, -1.0, float(eps))
        assert win.dim == top.dim == 2
        assert subspace_distance(win, top) < 1e-12


# ---------------------------------------------------------------- index


def test_suspension_index_constant():
    data = suspension_index(suspend(generate("constant", dim=3, samples=20)))
    assert data.index == 0
    assert data.kernel_samples == ()
    assert data.det_winding is None  # open path, no winding report


def test_suspension_index_crossing():
    f = generate("crossing", k=1, m=1)
    data = suspension_index(suspend(f))
    assert data.index == 1
    assert data.kernel_samples == (50,)  # branch vanishes at t = 0.5


def test_suspension_index_double_crossing():
    f = generate("crossing", k=2, m=1)
    data = suspension_index(suspend(f))
    assert data.index == 2
    assert data.kernel_samples == (50,)


def test_suspension_index_downward_crossing():
    f = generate("crossing", k=-1, m=1)
    assert suspension_index(suspend(f)).index == -1


def test_suspension_index_offset_grid_no_kernels():
    f = generate("truncated_shift_flow", N=2)
    data = suspension_index(suspend(f))
    assert data.kernel_samples == ()
    assert data.index == 1  # the crossing happens between samples


def test_suspension_index_matches_chartwise_flow():
    cases = [
        ("crossing", dict(k=-2, m=1)),
        ("crossing", dict(k=1, m=2)),
        ("constant", dict(dim=4)),
        ("rotation", dict(m=1)),
        ("polarized_crossing", dict()),
        ("truncated_shift_flow", dict(N=3)),
        ("random_smooth", dict(dim=5, seed=7, samples=120)),
    ]
    for name, kwargs in cases:
        f = generate(name, **kwargs)
        flow = spectral_flow_chartwise(index_chain(f, build_atlas(f)))
        assert suspension_index(suspend(f)).index == flow, name


@pytest.mark.parametrize("make", [
    lambda: generate("rotation", m=1, samples=30),
    lambda: generate("random_smooth", dim=3, seed=4, samples=60, loop=True),
    lambda: generate("random_smooth", dim=6, seed=1, samples=41, loop=True),
], ids=["rotation", "random-3", "random-6"])
@pytest.mark.parametrize("t_count", [5, 21, 41])
def test_contour_determinants_are_one_stacked_det(monkeypatch, make, t_count):
    sf = suspend(make(), t_count=t_count)
    calls, det = [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda B: calls.append(det(B)) or calls[-1])
    data = suspension_index(sf)
    monkeypatch.undo()
    assert len(calls) == 1
    te, m = sf.equator_index(), sf.n_parameters - 1
    contour = ([(x, te - 1) for x in range(m + 1)] + [(m, te)]
               + [(x, te + 1) for x in range(m, -1, -1)] + [(0, te), (0, te - 1)])
    want = np.array([np.linalg.det(sf.operator(x, k)) for x, k in contour])
    assert same_bits(calls[0], want)
    angles = np.angle(want[1:] / want[:-1])
    assert data.det_winding == round(float(np.sum(angles) / (2.0 * np.pi)))
    # each B is bitwise the one-angle expression cos t I + (i sin t) A at a float t
    for x, k in contour[:: max(1, m // 5)]:
        A, tk = sf.base.operators[x], float(sf.t_samples[k])
        B = np.cos(tk) * np.eye(A.shape[0], dtype=np.complex128) + 1j * np.sin(tk) * A
        assert same_bits(sf.operator(x, k), B)


def test_rotation_loop_det_winding():
    data = suspension_index(suspend(generate("rotation", m=1)))
    assert data.index == 0
    assert data.det_winding == 0
    assert data.winding_residual < 0.1


def test_sine_loop_seam_kernel():
    t = np.linspace(0.0, 1.0, 40)
    grid = ParameterGrid(kind="circle_loop", samples=t, closure="exact_loop")
    ops = tuple(np.diag([np.sin(2 * np.pi * tj), 2.0]).astype(np.complex128)
                for tj in t)
    ops = ops[:-1] + (ops[0],)
    f = OperatorFamily(grid=grid, dim=2, operators=ops)
    data = suspension_index(suspend(f))
    # the branch vanishes at the seam samples and at t = 0.5, with no net flow
    assert data.index == 0
    assert 0 in data.kernel_samples and 39 in data.kernel_samples
    # det vanishes on the contour at the seam, so no winding is reported
    assert data.det_winding is None


def test_shifted_sine_loop_winding():
    t = np.linspace(0.0, 1.0, 40)
    grid = ParameterGrid(kind="circle_loop", samples=t, closure="exact_loop")
    ops = tuple(np.diag([np.sin(2 * np.pi * tj + 0.3), 2.0]).astype(np.complex128)
                for tj in t)
    ops = ops[:-1] + (ops[0],)
    f = OperatorFamily(grid=grid, dim=2, operators=ops)
    data = suspension_index(suspend(f))
    assert data.index == 0
    assert data.kernel_samples == ()  # zeros of the branch fall between samples
    assert data.det_winding == 0
    assert data.winding_residual < 0.1


def test_suspension_index_rejects_off_equator_kernel():
    # over a zero base the smallest singular value at angle t is |cos t|,
    # which falls under the kernel tolerance just below the equator
    base = constant_base([[0.0]])
    angles = np.array([0.0, np.pi / 2 - 1e-9, np.pi / 2, np.pi])
    sf = SuspensionFamily(base=base, t_samples=angles)
    with pytest.raises(ModelViolationError, match=r"off the equator.*angle index 1"):
        suspension_index(sf)
