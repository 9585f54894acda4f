#!/usr/bin/env python3
"""Step-size study of the projection-Euler reflected scheme on the unit ball.

For each step count: containment, total local time, local-time support
fraction inside the boundary band, and the pathwise-identity residual.
"""
import argparse

import numpy as np

from bdsvi import (
    TimeGrid,
    boundary_band,
    generate_paths,
    local_time_identity_residual,
    local_time_support_fraction,
    simulate_reflected,
    unit_ball,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=2000)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--seed", type=int, default=6)
    ap.add_argument("--steps", default="250,500,1000,2000")
    args = ap.parse_args()

    dom = unit_ball(args.dim)
    print(f"{'steps':>6} {'min level':>12} {'mean A_T':>10} {'support':>8} {'rms resid':>10}")
    for n in (int(s) for s in args.steps.split(",")):
        grid = TimeGrid.uniform(0.0, 1.0, n)
        noise = generate_paths(grid, args.dim, args.paths, seed=args.seed, shared_backward=True)
        path = simulate_reflected(dom, 0.0, 1.0, (0.0, np.zeros(args.dim)), noise)
        band = boundary_band(1.0, grid.max_dt)
        res = local_time_identity_residual(path, dom, 0.0, 1.0)
        print(f"{n:>6} {float(np.min(dom.level(path.X))):>12.2e} "
              f"{float(np.mean(path.A[:, -1])):>10.4f} "
              f"{local_time_support_fraction(path, dom, band):>8.4f} "
              f"{res['rms']:>10.4e}")


if __name__ == "__main__":
    main()
