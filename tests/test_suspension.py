"""Suspension loops: spectrum identity, band correspondence, kernel counting."""

import numpy as np
import pytest

from bandflow import (
    ModelViolationError,
    OperatorFamily,
    ParameterGrid,
    Subspace,
    SuspensionFamily,
    ValidationError,
    absolute_value,
    band_correspondence_check,
    build_atlas,
    generate,
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

from conftest import random_hermitian


def constant_base(matrix, samples=2):
    t = np.linspace(0.0, 1.0, samples)
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    M = np.asarray(matrix, dtype=np.complex128)
    return OperatorFamily(grid=grid, dim=M.shape[0], operators=(M,) * samples)


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
