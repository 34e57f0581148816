"""End-to-end acceptance checks, one test per shipped guarantee.

Each body re-derives its expected values independently of the code path it
exercises and asserts the stated tolerance together with a wall-time budget.
The shared ``criterion`` fixture records a one-line verdict per criterion
that pytest prints after the run.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np

from bandflow import (
    AdaptedChart,
    Atlas,
    OperatorFamily,
    ParameterGrid,
    atiyah_stabilize,
    band_correspondence_check,
    band_identity_check,
    build_atlas,
    chi,
    cover_category,
    default_level_grid,
    deform_to_spectral_section,
    enhanced_check,
    eps_for_subset,
    finite_polarized_replace,
    flow_preservation_check,
    fredholm_pair,
    generate,
    index_chain,
    is_spectral_section,
    make_weak_section,
    section_existence,
    spectral_flow_chartwise,
    spectral_flow_oracle,
    spectral_flow_routes,
    subspace_distance,
    suspend,
    suspension_index,
    suspension_spectrum_check,
    tilt_section,
    zero_band_check,
)

from conftest import random_complex, random_hermitian

# Families with hand-checkable flow, covering every integer in -2..2.
KNOWN_FLOWS = [
    ("crossing", {"k": 1}, 1),
    ("crossing", {"k": -1}, -1),
    ("crossing", {"k": 2}, 2),
    ("crossing", {"k": -2}, -2),
    ("rotation", {}, 0),
    ("rotation", {"turns": 2.0}, 0),
    ("truncated_shift_flow", {}, 1),
    ("truncated_shift_flow", {"N": 2}, 1),
    ("constant", {}, 0),
    ("polarized_crossing", {"k": 1}, 1),
    ("polarized_crossing", {"k": 2}, 2),
    ("polarized_crossing", {"k": -2}, -2),
]


def random_spectrum_pair(rng, dim):
    """Hermitian matrix with known eigenvalues plus a band radius sitting in
    the widest gap of the absolute spectrum, so (A, eps) is enhanced with
    comfortable clearance and a nonempty band."""
    while True:
        vals = rng.uniform(0.3, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        a = np.sort(np.abs(vals))
        gaps = np.diff(a)
        if gaps.size and float(gaps.max()) > 0.2:
            j = int(np.argmax(gaps))
            eps = float(0.5 * (a[j] + a[j + 1]))
            break
    Q, _ = np.linalg.qr(random_complex(rng, dim))
    A = Q @ np.diag(vals).astype(np.complex128) @ Q.conj().T
    return 0.5 * (A + A.conj().T), eps


def square_path(ops):
    t = np.linspace(0.0, 1.0, len(ops))
    grid = ParameterGrid(kind="interval_path", samples=t, closure="open_path")
    return OperatorFamily(grid=grid, dim=ops[0].shape[0], operators=tuple(ops),
                          hermitian=False)


def shifted_smooth_ops(seed, dim, samples, zero_cols=0):
    """Uniformly invertible non-Hermitian path (the 4*I shift dominates the
    perturbation), optionally with the trailing zero_cols inputs zeroed out
    so those coordinates act as declared padding."""
    gen = np.random.default_rng(seed)
    M = [random_complex(gen, dim) for _ in range(3)]
    ops = []
    for tj in np.linspace(0.0, 1.0, samples):
        B = 4.0 * np.eye(dim) + 0.15 * (M[0] + tj * M[1] + np.sin(2 * np.pi * tj) * M[2])
        if zero_cols:
            B = B.copy()
            B[:, dim - zero_cols:] = 0.0
        ops.append(B)
    return ops


def plane_rotation(dim, i, j, angle):
    R = np.eye(dim, dtype=np.complex128)
    c, s = np.cos(angle), np.sin(angle)
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    return R


def rank_deficient_ops(seed, dim, samples):
    """Singular values exactly {1, ..., 1, 0} at every sample: unitaries on
    both sides of a fixed rank-(dim-1) diagonal."""
    gen = np.random.default_rng(seed)
    speed_l = float(gen.uniform(0.5, 2.0))
    speed_r = float(gen.uniform(0.5, 2.0))
    D = np.diag([1.0] * (dim - 1) + [0.0]).astype(np.complex128)
    ops = []
    for tj in np.linspace(0.0, 1.0, samples):
        L = plane_rotation(dim, 0, 1, 2 * np.pi * speed_l * tj)
        R = plane_rotation(dim, dim - 2, dim - 1, 2 * np.pi * speed_r * tj)
        ops.append(L @ D @ R.conj().T)
    return ops


def pointwise_index(B, true_cols):
    """ker minus coker of B restricted to its first true_cols inputs; the
    remaining columns are exactly zero in every construction used here."""
    sub = B[:, :true_cols]
    s = np.linalg.svd(sub, compute_uv=False)
    rank = int(np.sum(s > 1e-8 * max(float(s[0]), 1.0))) if s.size else 0
    return (true_cols - rank) - (B.shape[0] - rank)


def flow_zero_pool():
    """Twenty flow-zero families: ten exact loops plus ten open paths kept
    only when the branch oracle reports zero."""
    families = [
        generate("random_smooth", dim=3 + j % 3, seed=700 + j, samples=60, loop=True)
        for j in range(10)
    ]
    seed = 200
    while len(families) < 20:
        f = generate("random_smooth", dim=3 + seed % 3, seed=seed, samples=60)
        if spectral_flow_oracle(f) == 0:
            families.append(f)
        seed += 1
    return families


def widest_gap_level(f):
    pooled = np.sort(np.concatenate(
        [f.eigen(x).eigenvalues for x in range(f.n_samples)]))
    levels = default_level_grid(f)
    clearance = [float(np.abs(pooled - lv).min()) for lv in levels]
    return float(levels[int(np.argmax(clearance))])


def brute_force_category(atlas, max_dim):
    """Covering-category combinatorics by direct enumeration: subsets via
    itertools per sample, strict chains by recursion."""
    lo, hi = atlas.covered_range()
    objects = []
    morphisms = []
    chains = [0] * (max_dim + 1)
    for x in range(lo, hi + 1):
        members = [i for i, c in enumerate(atlas.charts) if c.start <= x <= c.end]
        subs = []
        for r in range(1, len(members) + 1):
            for combo in itertools.combinations(members, r):
                subs.append(frozenset(combo))
        chains[0] += len(subs)
        for sigma in subs:
            objects.append((x, sigma))
            for r in range(1, len(sigma) + 1):
                for combo in itertools.combinations(sorted(sigma), r):
                    morphisms.append((x, sigma, frozenset(combo)))

        def strict_chains(top, depth):
            if depth == 0:
                return 1
            return sum(strict_chains(s, depth - 1) for s in subs if s < top)

        for k in range(1, max_dim + 1):
            chains[k] += sum(strict_chains(s, k) for s in subs)
    return objects, morphisms, tuple(chains)


def common_sample_subsets(atlas):
    out = []
    for r in range(1, atlas.n_charts + 1):
        for combo in itertools.combinations(range(atlas.n_charts), r):
            members = [atlas.charts[i] for i in combo]
            if max(c.start for c in members) <= min(c.end for c in members):
                out.append(frozenset(combo))
    return out


SMALL_ATLASES = [
    Atlas((AdaptedChart(0, 5, 1.0),)),
    Atlas((AdaptedChart(0, 5, 0.7), AdaptedChart(3, 9, 0.4))),
    Atlas((AdaptedChart(0, 6, 0.9), AdaptedChart(2, 8, 0.5),
           AdaptedChart(4, 10, 0.7))),
    Atlas((AdaptedChart(0, 8, 1.0), AdaptedChart(2, 9, 0.8),
           AdaptedChart(4, 10, 0.6), AdaptedChart(6, 12, 0.4))),
]


# ------------------------------------------------------------- criteria 1-12


def test_criterion_01_suspension_spectrum_identity(criterion, rng):
    with criterion(1, "suspension spectrum identity"):
        t0 = time.perf_counter()
        angles = np.linspace(0.0, np.pi, 50)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            A = random_hermitian(rng, dim)
            for t in angles:
                worst = max(worst, suspension_spectrum_check(A, float(t)))
        assert worst <= 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_02_band_correspondence(criterion, rng):
    with criterion(2, "suspension band correspondence"):
        t0 = time.perf_counter()
        angles = np.linspace(0.15, np.pi - 0.15, 20)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            A, eps = random_spectrum_pair(rng, dim)
            enhanced_check(A, eps)
            for t in angles:
                t = float(t)
                assert band_correspondence_check(A, eps, t)
                c = abs(np.cos(t))
                if c > 0.05:
                    assert zero_band_check(A, 0.8 * c, t)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_03_flow_triple_agreement(criterion):
    with criterion(3, "three flow routes agree"):
        t0 = time.perf_counter()
        for name, params, expected in KNOWN_FLOWS:
            f = generate(name, **params)
            routes = spectral_flow_routes(f)
            assert routes["agree"] is True
            assert routes["chartwise"] == routes["oracle"] == expected
            if f.grid.closure == "open_path":
                assert routes["endpoints"] == expected
        for j in range(100):
            f = generate("random_smooth", dim=2 + j % 4, seed=j)
            routes = spectral_flow_routes(f)
            assert routes["agree"] is True
            assert isinstance(routes["chartwise"], int)
            assert routes["chartwise"] == routes["oracle"]
            if routes["endpoints"] is not None:
                assert routes["endpoints"] == routes["chartwise"]
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_atlas_independence(criterion, rng):
    with criterion(4, "flow independent of the atlas"):
        t0 = time.perf_counter()
        for j in range(20):
            f = generate("random_smooth", dim=2 + j % 4, seed=300 + j)
            coarse = build_atlas(f)
            fine = build_atlas(f, max_chart_len=int(rng.integers(6, 16)))
            flow_coarse = spectral_flow_chartwise(index_chain(f, coarse))
            flow_fine = spectral_flow_chartwise(index_chain(f, fine))
            assert flow_coarse == flow_fine == spectral_flow_oracle(f)
        assert time.perf_counter() - t0 < 20.0


def test_criterion_05_suspension_index_equals_flow(criterion):
    with criterion(5, "suspension index equals base flow"):
        t0 = time.perf_counter()
        for name, params, expected in KNOWN_FLOWS:
            f = generate(name, **params)
            data = suspension_index(suspend(f, t_count=41))
            assert data.index == expected == spectral_flow_oracle(f)
            if data.det_winding is not None:
                assert data.det_winding == data.index
        for j in range(50):
            f = generate("random_smooth", dim=2 + j % 4, seed=100 + j, samples=60)
            data = suspension_index(suspend(f, t_count=21))
            assert data.index == spectral_flow_oracle(f)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_06_band_pair_index(criterion, rng):
    with criterion(6, "band pair index matches kernel counts"):
        t0 = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(0, n + 1))
            sigma = np.zeros(n)
            if rank:
                sigma[:rank] = np.sort(rng.uniform(0.5, 3.0, size=rank))[::-1]
            W, _ = np.linalg.qr(random_complex(rng, n))
            V, _ = np.linalg.qr(random_complex(rng, n))
            B = W @ np.diag(sigma).astype(np.complex128) @ V.conj().T
            s_all = np.linalg.svd(B, compute_uv=False)
            cut = 1e-8 * max(float(s_all[0]), 1.0)
            ker_b = int(np.sum(s_all <= cut))
            ker_bstar = int(np.sum(
                np.linalg.svd(B.conj().T, compute_uv=False) <= cut))
            expected = ker_b - ker_bstar
            eps_values = [0.25]
            nonzero = sigma[sigma > 0]
            if nonzero.size >= 2:
                drops = -np.diff(nonzero)
                j = int(np.argmax(drops))
                if drops[j] > 0.1:
                    eps_values.append(float(0.5 * (nonzero[j] + nonzero[j + 1])))
            eps_values.append(float(sigma.max()) + 0.7 if rank else 0.9)
            indexes = set()
            for eps in eps_values:
                pair = fredholm_pair(B, eps)
                assert pair.e1.dim == pair.e2.dim == int(np.sum(sigma <= eps))
                assert pair.numeric_index == expected
                indexes.add(pair.numeric_index)
            assert len(indexes) == 1
        assert time.perf_counter() - t0 < 10.0


def test_criterion_07_stabilization_index(criterion):
    with criterion(7, "stabilized kernel bundle index"):
        t0 = time.perf_counter()
        cases = []
        for j in range(8):
            cases.append((shifted_smooth_ops(400 + j, 3 + j % 4, 25), 0))
        for j in range(6):
            cases.append((rank_deficient_ops(500 + j, 3 + j % 3, 30), 0))
        for j in range(6):
            codim = 1 + j % 2
            cases.append(
                (shifted_smooth_ops(600 + j, 4 + j % 3, 25, zero_cols=codim), codim))
        for ops, codim in cases:
            f = square_path(ops)
            data = atiyah_stabilize(f, domain_codim=codim)
            for B in f.operators:
                assert data.index_value == pointwise_index(np.asarray(B),
                                                           f.dim - codim)
            assert len(set(data.kernel_dims)) == 1
            assert data.kernel_dims[0] == data.m + data.index_value
            if codim == 0:
                # same answer through the singular-value band pair route
                for x in range(0, f.n_samples, 5):
                    B = np.asarray(f.operators[x])
                    s = np.linalg.svd(B, compute_uv=False)
                    eps = 0.5 * float(s[s > 1e-6].min())
                    assert fredholm_pair(B, eps).numeric_index == data.index_value
        assert time.perf_counter() - t0 < 30.0


def test_criterion_08_section_deformation(criterion):
    with criterion(8, "weak sections deform to spectral sections"):
        t0 = time.perf_counter()
        angles = (0.08, 0.12, 0.16)
        for j, f in enumerate(flow_zero_pool()):
            assert spectral_flow_oracle(f) == 0
            cut = widest_gap_level(f)
            start = tilt_section(f, make_weak_section(f, cut), angles[j % 3])
            res = deform_to_spectral_section(f, start)
            ok, report = is_spectral_section(f, res.sections, res.radius)
            assert ok, report
            for x in range(f.n_samples):
                assert res.sections[x].dim == start.subspaces[x].dim
                assert subspace_distance(res.homotopy(x, 0.0),
                                         start.subspaces[x]) <= 1e-9
                assert subspace_distance(res.homotopy(x, 1.0),
                                         res.sections[x]) <= 1e-9
        assert time.perf_counter() - t0 < 60.0


LOOP_CASES = [
    ("rotation", {}),
    ("rotation", {"turns": 2.0}),
    ("rotation", {"m": 2}),
    ("truncated_shift_flow", {}),
    ("truncated_shift_flow", {"N": 2}),
    ("random_smooth", {"dim": 3, "seed": 5, "samples": 80, "loop": True}),
    ("random_smooth", {"dim": 4, "seed": 9, "samples": 80, "loop": True}),
]


def test_criterion_09_existence_iff_flow_vanishes(criterion):
    with criterion(9, "sections exist exactly at flow zero"):
        t0 = time.perf_counter()
        outcomes = set()
        for name, params in LOOP_CASES:
            f = generate(name, **params)
            flow = spectral_flow_oracle(f)
            data = section_existence(f)
            assert data.flow == flow
            assert data.obstruction == flow
            assert data.exists is (flow == 0)
            outcomes.add(data.exists)
            if flow == 0:
                ok, report = is_spectral_section(f, data.sections, data.radius)
                assert ok, report
            else:
                assert data.sections == ()
                assert data.radius is None
        assert outcomes == {True, False}
        assert time.perf_counter() - t0 < 30.0


POLARIZE_CASES = [
    ("crossing", {}, 1),
    ("rotation", {}, 0),
    ("truncated_shift_flow", {}, 1),
    ("polarized_crossing", {}, 1),
    ("random_smooth", {"dim": 3, "seed": 5, "samples": 80, "loop": True}, 0),
]


def test_criterion_10_polarized_replacement(criterion, rng):
    with criterion(10, "finite polarized replacement"):
        t0 = time.perf_counter()
        for name, params, expected in POLARIZE_CASES:
            f = generate(name, **params)
            rep = finite_polarized_replace(f)
            equal, report = flow_preservation_check(f, rep)
            assert equal is True
            assert report["flow_input"] == report["flow_replacement"] == expected
            assert report["flow_oracle_unscaled"] == expected
            band = band_identity_check(rep.scaled_input, rep.family, rep.radius)
            assert band["worst_residual"] <= band["tolerance"]
        for r in rng.uniform(0.02, 1.0, size=50):
            r = float(r)
            assert chi(0.5 * r, r) == 0.5 * r
            assert chi(r, r) == 1.0
            assert chi(-r, r) == -1.0
            assert chi(0.0, r) == 0.0
        assert time.perf_counter() - t0 < 20.0


def test_criterion_11_cover_category_combinatorics(criterion):
    with criterion(11, "covering category matches brute force"):
        t0 = time.perf_counter()
        for atlas in SMALL_ATLASES:
            data = cover_category(atlas, max_dim=3)
            objects, morphisms, chains = brute_force_category(atlas, 3)
            assert data.object_count == len(objects)
            assert set(data.objects) == set(objects)
            assert data.morphism_count == len(morphisms)
            assert set(data.morphisms) == set(morphisms)
            assert data.nerve_counts == chains
            subsets = common_sample_subsets(atlas)
            for sigma in subsets:
                assert eps_for_subset(atlas, sigma) == min(
                    atlas.charts[i].eps for i in sigma)
            for small, big in itertools.product(subsets, subsets):
                if small < big:
                    assert eps_for_subset(atlas, small) >= eps_for_subset(atlas, big)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_12_deterministic_reports(criterion, tmp_path):
    with criterion(12, "byte-identical reports on repeat runs"):
        t0 = time.perf_counter()
        cases = {
            "flow": ({"generator": "crossing", "params": {"samples": 41}},
                     ["flow", "--emit-branches"]),
            "suspend": ({"generator": "crossing", "params": {"samples": 41}},
                        ["suspend", "--t-samples", "11"]),
            "section": ({"generator": "rotation", "params": {"samples": 48}},
                        ["section", "--auto"]),
            "polarize": ({"generator": "crossing", "params": {"samples": 41}},
                         ["polarize"]),
        }
        for name, (spec_obj, argv) in cases.items():
            spec_path = tmp_path / f"{name}.json"
            spec_path.write_text(json.dumps(spec_obj))
            out_dirs = []
            stdouts = []
            for run in range(2):
                out_dir = tmp_path / f"{name}_{run}"
                out_dir.mkdir()
                cmd = [sys.executable, "-m", "bandflow.cli", argv[0],
                       "--spec", str(spec_path), "--out", str(out_dir), *argv[1:]]
                proc = subprocess.run(cmd, capture_output=True)
                assert proc.returncode == 0, proc.stderr.decode()
                stdouts.append(proc.stdout)
                out_dirs.append(out_dir)
            assert stdouts[0] == stdouts[1]
            produced = sorted(p.name for p in out_dirs[0].iterdir())
            assert produced == sorted(p.name for p in out_dirs[1].iterdir())
            assert produced
            for fname in produced:
                a = (out_dirs[0] / fname).read_bytes()
                b = (out_dirs[1] / fname).read_bytes()
                assert a == b, fname
        assert time.perf_counter() - t0 < 10.0
