"""Finite-difference stencils that check a value field against its PDE.

The penalized Dirichlet-Neumann problem on a one-dimensional lattice: the
interior equation where the domain's level is positive, the boundary relation
where it vanishes.  A Monte-Carlo field's residual divides its noise by dx^2,
so these stencils check exact fields injected from an analytic u(t, x).
"""
from typing import Callable

import numpy as np

from bdsvi import CoefficientSet, ConvexFunction, DomainSpec, FieldEstimate, FieldGrid, ForwardModel, yosida_gradient
from bdsvi.reflected import _coefficients


def manufactured_field(u: Callable, fgrid: FieldGrid) -> FieldEstimate:
    """Exact field injected from an analytic u(t, x); zero standard error."""
    vals = np.array([[float(u(float(t), x)) for x in fgrid.points] for t in fgrid.times])
    return FieldEstimate(fgrid, vals, np.zeros_like(vals), vals[None])


def boundary_mask(domain: DomainSpec, fgrid: FieldGrid) -> np.ndarray:
    """(npts,) True at the lattice points on the boundary, |level| <= 1e-7."""
    return np.abs(domain.level(fgrid.points)) <= 1e-7


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
                      eps: float, model: ForwardModel) -> dict:
    """Finite-difference residual of the penalized interior equation

        du/dt + 0.5 sigma^2 u_xx + b u_x + f(t, x, u, sigma u_x)
              - grad phi_eps(u)

    on interior lattice nodes (deterministic reduction, backward noise off).
    The sigma and b of model are evaluated at every lattice point."""
    x = _require_line_lattice(fld)
    times = fld.grid.times
    u = fld.values
    interior = ~boundary_mask(model.domain, fld.grid)
    interior[0] = interior[-1] = False
    if not np.any(interior):
        raise ValueError("no interior nodes on the lattice")
    bv, sig = _coefficients(model, x[:, None])
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

    at the lattice nodes on the boundary."""
    x = _require_line_lattice(fld)
    times = fld.grid.times
    u = fld.values
    jb = np.nonzero(boundary_mask(domain, fld.grid))[0]
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
