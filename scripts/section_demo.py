"""Deform a tilted weak section into a spectral section and show the control
levels that do the work; then show the flow obstruction killing existence."""

import argparse

import numpy as np

from bandflow import (
    default_level_grid,
    deform_to_spectral_section,
    generate,
    is_spectral_section,
    make_weak_section,
    section_existence,
    subspace_distance,
    tilt_section,
)


def pick_cut(f):
    """Gap level with the most clearance from every sampled eigenvalue."""
    pooled = np.sort(f.eigenvalues, axis=None)
    levels = default_level_grid(f)
    clearance = [float(np.abs(pooled - lv).min()) for lv in levels]
    best = int(np.argmax(clearance))
    return float(levels[best]), clearance[best]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--samples", type=int, default=80)
    ap.add_argument("--angle", type=float, default=0.15,
                    help="tilt applied to the starting weak section")
    args = ap.parse_args()

    f = generate("random_smooth", dim=args.dim, seed=args.seed,
                 samples=args.samples, loop=True)
    cut, clearance = pick_cut(f)
    print(f"loop family: dim {args.dim}, seed {args.seed}, "
          f"{args.samples} samples")
    print(f"reference cut {cut:+.4f} (clearance {clearance:.4f}), "
          f"tilt angle {args.angle}")

    start = tilt_section(f, make_weak_section(f, cut), args.angle)
    res = deform_to_spectral_section(f, start)

    if res.report.get("fixed_point"):
        print("the tilted section already sits inside a sandwich; "
              "nothing to deform")
    else:
        print(f"pass 1 control levels (below): "
              f"{[round(v, 4) for v in res.nu]}")
        print(f"pass 2 control levels (above, on complements): "
              f"{[round(v, 4) for v in res.nu_perp]}")
    radius = np.asarray(res.radius, dtype=float)
    moved = max(subspace_distance(start.subspaces[x], res.sections[x])
                for x in range(f.n_samples))
    ok, report = is_spectral_section(f, res.sections, res.radius)
    print(f"sandwich radius: min {radius.min():.4f}, max {radius.max():.4f}")
    print(f"largest movement of any fibre: {moved:.4f}")
    print(f"spectral section check: {'pass' if ok else 'FAIL'} "
          f"(worst residual {max(report['upper_residual'], report['lower_residual']):.2e})")

    print("\nobstructed case: truncated shift flow")
    g = generate("truncated_shift_flow")
    data = section_existence(g)
    print(f"flow {data.flow:+d}, exists: {data.exists}, note: {data.note}")


if __name__ == "__main__":
    main()
