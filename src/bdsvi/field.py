"""Monte-Carlo sampling of the value field u(t, x) on a space-time lattice.

Each lattice node launches a reflected ensemble from (t, x); its boundary
local time feeds the backward solver as the increasing weight process, and
the field value is the ensemble estimate of the solution at the initial node.
One backward-noise draw defines one field sample (the field is a random
object of the backward noise); the reported field averages the per-draw
fields and keeps them available.  Both noises come from the key packer of
`drivers`: a draw's backward increments from its B_SHARED stream, shared by
every node, and a node's forward increments from its own FIELD_W stream.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .convex import ConvexFunction, yosida_gradient
from .drivers import PathBundle, TimeGrid, _node_major, _rekey, _stream
from .reflected import DomainSpec, _coefficients, simulate_reflected
from .solver import CoefficientSet, SolverConfig, _backward_sweep, _terminal_values

__all__ = [
    "FieldGrid",
    "FieldEstimate",
    "sample_field",
    "manufactured_field",
    "continuity_diagnostic",
    "interior_residual",
    "boundary_residual",
]

_TOL = 1e-9


@dataclass(frozen=True)
class FieldGrid:
    """Evaluation lattice: times in [0, T] and points in the closure."""

    times: np.ndarray          # (nt,)
    points: np.ndarray         # (npts, d)
    boundary_mask: np.ndarray  # (npts,) True where |level| <= 1e-7

    @classmethod
    def build(cls, domain: DomainSpec, times, points) -> "FieldGrid":
        times = np.asarray(times, dtype=float)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != domain.d:
            raise ValueError(f"lattice points must have shape (n, {domain.d}), got {points.shape}")
        lv = domain.level(points)
        if np.any(lv < -_TOL):
            raise ValueError("lattice point outside the closure of the domain")
        return cls(times, points, np.abs(lv) <= 1e-7)


@dataclass
class FieldEstimate:
    grid: FieldGrid
    values: np.ndarray          # (nt, npts), mean over backward draws
    stderr: np.ndarray          # (nt, npts)
    per_draw: np.ndarray        # (n_draws, nt, npts)


def manufactured_field(u: Callable, fgrid: FieldGrid) -> FieldEstimate:
    """Exact field injected from an analytic u(t, x); zero standard error.
    Used to verify the residual stencils on manufactured solutions."""
    vals = np.array([[float(u(float(t), x)) for x in fgrid.points] for t in fgrid.times])
    return FieldEstimate(fgrid, vals, np.zeros_like(vals), vals[None])


def sample_field(
    domain: DomainSpec,
    coeffs: CoefficientSet,
    phi: ConvexFunction,
    psi: ConvexFunction,
    config: SolverConfig,
    fgrid: FieldGrid,
    n_paths: int,
    seed: int,
    sigma=1.0,
    b=0.0,
    n_b_draws: int = 1,
) -> FieldEstimate:
    """Estimate u(t, x) at every lattice node.

    Lattice times are snapped up to the master grid of the solver config,
    and the estimate's grid carries the snapped times.  The backward
    increments of one draw are generated once on the master grid and shared
    by every path and lattice node (common noise).  Node (draw, it, jp)
    draws its forward increments as one (n_paths, steps, d) block from its own
    stream, path p on row p, so a node's paths are prefix-stable in n_paths.
    The nodes of one lattice time run as one stacked ensemble (point jp on
    rows jp * n_paths ...) through one reflected simulation and one backward
    sweep, which regresses each node on its own paths.  The terminal slice is
    the exact terminal map.
    """
    if n_paths < 1 or n_b_draws < 1:
        raise ValueError("n_paths and n_b_draws must be >= 1")
    master = config.grid
    nodes = master.nodes
    nt, npts = fgrid.times.size, fgrid.points.shape[0]
    per_draw = np.empty((n_b_draws, nt, npts))
    per_draw_se = np.zeros((n_b_draws, nt, npts))
    d = domain.d
    starts = np.repeat(fgrid.points, n_paths, axis=0)

    t_index = np.searchsorted(nodes, fgrid.times - 1e-12)
    sqdt = np.sqrt(master.dt)[:, None]
    gen = _stream(seed, "B_SHARED", 0)  # re-keyed for every stream below
    for draw in range(n_b_draws):
        db_master = _rekey(gen, seed, "B_SHARED", draw).standard_normal((master.n_steps, d)) * sqdt
        for it, j0 in enumerate(t_index):
            if j0 == master.n_steps:
                per_draw[draw, it] = _terminal_values(coeffs, npts, fgrid.points)[:, 0]
                continue
            sub = TimeGrid(nodes[j0:])
            dW = _node_major(npts * n_paths, sub.n_steps, d)
            for jp in range(npts):
                np.multiply(_rekey(gen, seed, "FIELD_W", draw, it, jp).standard_normal((n_paths, sub.n_steps, d)),
                            sqdt[j0:], out=dW[jp * n_paths:(jp + 1) * n_paths])
            noise = PathBundle(sub, dW, np.broadcast_to(db_master[j0:], dW.shape),
                               np.broadcast_to(0.0, (len(dW), sub.n_steps + 1)))
            ens = simulate_reflected(domain, b, sigma, (sub.t0, starts), noise)
            cfg = replace(config, grid=sub)
            y0 = _backward_sweep(coeffs, phi, psi, cfg, [config.eps] * npts, ens)[0][:, :, 0, 0]
            per_draw[draw, it] = np.mean(y0, axis=1)
            per_draw_se[draw, it] = np.std(y0, axis=1, ddof=1) / np.sqrt(n_paths) if n_paths > 1 else 0.0
    values = np.mean(per_draw, axis=0)
    within = np.sqrt(np.mean(per_draw_se ** 2, axis=0) / n_b_draws)
    across = np.std(per_draw, axis=0, ddof=1) / np.sqrt(n_b_draws) if n_b_draws > 1 else 0.0
    stderr = np.sqrt(within ** 2 + np.square(across))
    return FieldEstimate(replace(fgrid, times=nodes[t_index]), values, stderr, per_draw)


def continuity_diagnostic(fld: FieldEstimate) -> dict:
    """Empirical continuity moduli |du| / (|dt|^{1/2} + |dx|) between lattice
    neighbours at stride 1 and stride 2; flags blow-up when the fine-scale
    worst ratio exceeds ten times the coarse-scale worst ratio."""
    u = fld.values
    times = fld.grid.times
    pts = fld.grid.points

    def ratios(stride):
        out = []
        if times.size > stride:
            dt = times[stride:] - times[:-stride]
            du = np.abs(u[stride:] - u[:-stride])
            out.append((du / np.sqrt(dt)[:, None]).ravel())
        if pts.shape[0] > stride:
            dx = np.linalg.norm(pts[stride:] - pts[:-stride], axis=1)
            du = np.abs(u[:, stride:] - u[:, :-stride])
            out.append((du / dx[None, :]).ravel())
        if not out:
            raise ValueError("lattice too small for continuity pairs")
        return np.concatenate(out)

    fine = ratios(1)
    coarse = ratios(2)
    worst_fine = float(np.max(fine))
    worst_coarse = float(np.max(coarse))
    return {
        "worst_fine": worst_fine,
        "worst_coarse": worst_coarse,
        "blowup": worst_fine > 10.0 * max(worst_coarse, 1e-12),
    }


def _require_line_lattice(fld: FieldEstimate):
    pts = fld.grid.points
    if pts.shape[1] != 1:
        raise ValueError("residual stencils support one-dimensional lattices")
    x = pts[:, 0]
    if np.any(np.diff(x) <= 0):
        raise ValueError("lattice points must be sorted")
    if x.size < 3 or fld.grid.times.size < 2:
        raise ValueError("lattice too coarse for the stencil")
    return x


def interior_residual(fld: FieldEstimate, coeffs: CoefficientSet, phi: ConvexFunction,
                      eps: float, sigma=1.0, b=0.0) -> dict:
    """Finite-difference residual of the penalized interior equation

        du/dt + 0.5 sigma^2 u_xx + b u_x + f(t, x, u, sigma u_x)
              - grad phi_eps(u)

    on interior lattice nodes (deterministic reduction, backward noise off).
    sigma and b take the contract of simulate_reflected and are evaluated at
    every lattice point."""
    x = _require_line_lattice(fld)
    times = fld.grid.times
    u = fld.values
    interior = ~fld.grid.boundary_mask
    interior[0] = interior[-1] = False
    if not np.any(interior):
        raise ValueError("no interior nodes on the lattice")
    bv, sig = _coefficients(b, sigma, x[:, None], 1)
    bv, sig = bv[:, 0], sig[:, 0, 0]
    res = np.full((times.size - 1, x.size), np.nan)
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        u_t = (u[i + 1] - u[i]) / dt
        u_x = np.gradient(u[i], x, edge_order=2)
        u_xx = np.gradient(u_x, x, edge_order=2)
        y = u[i][:, None]
        z = (sig * u_x)[:, None, None]
        fv = np.asarray(coeffs.f(float(times[i]), x[:, None], y, z), dtype=float).reshape(-1)
        pen = yosida_gradient(phi, eps, y)[:, 0] if eps > 0 else 0.0
        res[i] = u_t + 0.5 * sig * sig * u_xx + bv * u_x + fv - pen
    worst = float(np.nanmax(np.abs(res[:, interior])))
    return {"max_abs": worst, "residual": res, "interior_mask": interior}


def boundary_residual(fld: FieldEstimate, coeffs: CoefficientSet, psi: ConvexFunction,
                      eps: float, domain: DomainSpec) -> dict:
    """One-sided residual of the penalized boundary relation

        <grad level(x), grad u> + g(t, x, u) - grad psi_eps(u)

    at boundary-tagged lattice nodes."""
    x = _require_line_lattice(fld)
    times = fld.grid.times
    u = fld.values
    jb = np.nonzero(fld.grid.boundary_mask)[0]
    if jb.size == 0:
        raise ValueError("no boundary nodes on the lattice")
    xb = x[jb, None]
    n_in = domain.gradient(xb)[:, 0]
    res = np.full((times.size, x.size), np.nan)
    for i, t in enumerate(times):
        u_x = np.gradient(u[i], x, edge_order=2)
        y = u[i, jb, None]
        gv = np.asarray(coeffs.g(float(t), xb, y), dtype=float).reshape(-1)
        pen = yosida_gradient(psi, eps, y)[:, 0] if eps > 0 else 0.0
        res[i, jb] = n_in * u_x[jb] + gv - pen
    return {"max_abs": float(np.max(np.abs(res[:, jb]))), "residual": res}
