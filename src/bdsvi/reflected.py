"""Reflected diffusions in a smooth bounded domain with boundary local time.

The domain is the sublevel set {level > 0} of a C^2 function whose gradient
has unit norm on the boundary (the inward normal).  Reflection is realized by
the projection-Euler scheme: an unconstrained Euler step that exits the
closure is pushed back along the level gradient, and the push distance is the
local-time increment.  Every domain pushes by a closed form, rounded inward
so the pushed point lies in the closure exactly; there is no bisection.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .drivers import PathBundle, TimeGrid

__all__ = [
    "DomainSpec",
    "ReflectedPath",
    "unit_ball",
    "ellipsoid",
    "smoothed_interval",
    "make_domain",
    "simulate_reflected",
    "boundary_band",
    "local_time_support_fraction",
    "local_time_identity_residual",
]

_BOUNDARY_TOL = 1e-9
_PUSH_ROUNDS = 8  # inward-rounding rounds of a closed-form push


@dataclass(frozen=True)
class DomainSpec:
    """Level-set description of the domain: interior {level > 0}.

    level maps (..., d) -> (...); gradient and hessian return (..., d) and
    (..., d, d).  |gradient| must equal 1 on {level = 0}.  push maps outside
    points x (m, d) and their gradients n (m, d) to the closed-form distance
    delta (m,) that puts x + delta*n on the boundary where the ray enters the
    domain, or NaN where it never does.
    """

    level: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    bounding_box: tuple
    d: int
    push: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""


@dataclass(frozen=True)
class ReflectedPath:
    grid: TimeGrid
    X: np.ndarray  # (n_paths, n_nodes, d)
    A: np.ndarray  # (n_paths, n_nodes)
    start: tuple   # (t, x)
    noise: Optional[PathBundle] = None


def unit_ball(d: int, radius: float = 1.0) -> DomainSpec:
    """Ball of given radius; level = (r^2 - |x|^2) / (2r) has a unit inward
    normal -x/r on the boundary."""
    r = float(radius)

    def level(x):
        return (r * r - np.sum(x * x, axis=-1)) / (2.0 * r)

    def gradient(x):
        return -x / r

    def hessian(x):
        return np.broadcast_to(-np.eye(d) / r, x.shape[:-1] + (d, d))

    def push(x, n):
        # x (1 - delta/r) lands on the sphere |x| = r
        return r * (1.0 - r / np.linalg.norm(x, axis=-1))

    return DomainSpec(level, gradient, hessian, (-r * np.ones(d), r * np.ones(d)), d, push, f"ball(d={d},r={r})")


def smoothed_interval(lo: float = 0.0, hi: float = 1.0) -> DomainSpec:
    """One-dimensional interval; the quadratic level has |slope| = 1 at both
    endpoints."""
    lo, hi = float(lo), float(hi)
    width = hi - lo

    def level(x):
        return (hi - x[..., 0]) * (x[..., 0] - lo) / width

    def gradient(x):
        return ((hi + lo - 2.0 * x[..., 0]) / width)[..., None]

    def hessian(x):
        return np.broadcast_to(np.array([[-2.0 / width]]), x.shape[:-1] + (1, 1))

    def push(x, n):
        # back to the endpoint the point left by
        edge = np.where(x[..., 0] > 0.5 * (lo + hi), hi, lo)
        return (edge - x[..., 0]) / n[..., 0]

    return DomainSpec(level, gradient, hessian, (np.array([lo]), np.array([hi])), 1, push, f"interval({lo},{hi})")


def ellipsoid(semi_axes) -> DomainSpec:
    """Axis-aligned ellipsoid.  The raw quadratic level is rescaled by the
    norm of its own gradient so the boundary normal has unit length; the
    Hessian of the rescaled level is taken by central differences of its
    analytic gradient."""
    a = np.asarray(semi_axes, dtype=float)
    d = a.size
    a2 = a * a

    def raw(x):
        return 1.0 - np.sum(x * x / a2, axis=-1)

    def raw_grad(x):
        return -2.0 * x / a2

    def _gnorm(x):
        # smooth positive regularization: equals |grad raw| on {raw = 0} and
        # stays bounded away from zero at the center where grad raw vanishes
        return np.sqrt(np.sum(raw_grad(x) ** 2, axis=-1) + raw(x) ** 2)

    def level(x):
        return raw(x) / _gnorm(x)

    def gradient(x):
        # level = raw / g, with grad g = (-2 grad raw / a^2 + raw grad raw) / g
        r, gr, g = raw(x)[..., None], raw_grad(x), _gnorm(x)[..., None]
        return gr / g - r * (-2.0 * gr / a2 + r * gr) / (g * g * g)

    def hessian(x):
        h = 1e-5
        out = np.empty(x.shape[:-1] + (d, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            out[..., i, :] = (gradient(x + e) - gradient(x - e)) / (2.0 * h)
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    def push(x, n):
        # level >= 0 exactly where raw >= 0.  Along the ray raw = -(A delta^2 + 2b delta + c), c > 0:
        # both roots share a sign, and the entry (smaller) root is positive only if b < 0
        A, b, c = np.sum(n * n / a2, axis=-1), np.sum(x * n / a2, axis=-1), -raw(x)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(b < 0.0, c / (np.sqrt(b * b - A * c) - b), np.nan)

    box = (-a, a)
    return DomainSpec(level, gradient, hessian, box, d, push, f"ellipsoid({a.tolist()})")


def make_domain(kind: str, **params) -> DomainSpec:
    if kind == "ball":
        return unit_ball(int(params.get("dim", 1)), float(params.get("radius", 1.0)))
    if kind == "interval":
        return smoothed_interval(float(params.get("lo", 0.0)), float(params.get("hi", 1.0)))
    if kind == "ellipsoid":
        return ellipsoid(params["semi_axes"])
    raise KeyError(f"unknown domain kind {kind!r}")


def _coefficients(b, sigma, x, d: int):
    """Drift and diffusion at the points x, broadcast to (..., d) and
    (..., d, d).  Either may be a callable of x or a constant; a scalar sigma
    means sigma * I."""
    bv = b(x) if callable(b) else np.asarray(b, dtype=float)
    sig = sigma(x) if callable(sigma) else np.asarray(sigma, dtype=float)
    if np.ndim(sig) == 0:
        sig = float(sig) * np.eye(d)
    batch = np.shape(x)[:-1]
    return np.broadcast_to(bv, batch + (d,)), np.broadcast_to(sig, batch + (d, d))


def _generator(sig, bv, grad, hess):
    """L v = 0.5 Tr(sigma sigma^T D^2 v) + <b, grad v>, batched over the
    leading axes of its arguments."""
    return 0.5 * np.einsum("...ij,...kj,...ik->...", sig, sig, hess) + np.einsum("...i,...i->...", bv, grad)


def _project_out(domain: DomainSpec, x_star: np.ndarray):
    """Push points with level < 0 back along the level gradient.

    Returns (projected points, push distances).  The push distance delta is
    the smallest delta >= 0 with level(x* + delta*grad) >= 0: the closed form
    domain.push, rounded inward, raised by spacing(max|x*|) until level >= 0
    holds exactly.  A point still outside after _PUSH_ROUNDS raises, as does
    a ray that never enters the domain (NaN push).
    """
    lv = domain.level(x_star)
    viol = lv < 0.0
    delta = np.zeros(lv.shape)
    if not np.any(viol):
        return x_star, delta
    xv = x_star[viol]
    n = domain.gradient(xv)
    hi, ulp = domain.push(xv, n), np.spacing(np.max(np.abs(xv), axis=-1))
    todo = np.arange(hi.size)  # points that x* + hi*n leaves outside
    for _ in range(_PUSH_ROUNDS):
        ok = domain.level(xv[todo] + hi[todo, None] * n[todo]) >= 0.0
        todo = todo[~ok]
        if todo.size == 0:
            break
        hi[todo] = hi[todo] + ulp[todo]
    else:
        raise RuntimeError("projection did not reach the closed domain; reduce the time step")
    out = x_star.copy()
    out[viol] = xv + hi[:, None] * n
    delta[viol] = hi
    return out, delta


def simulate_reflected(
    domain: DomainSpec,
    b: Callable,
    sigma: Callable,
    start: tuple,
    grid: TimeGrid,
    noise: PathBundle,
) -> ReflectedPath:
    """Projection-Euler simulation of the reflected pair (X, A) from (t, x).

    x is one point (d,) or one per path (n_paths, d).  Each path is projected
    on its own, so paths stacked from several start points run exactly as if
    simulated apart.  b(x) -> (..., d) drift, sigma(x) -> (..., d, d)
    diffusion matrix; both may also be constants, and a scalar sigma means
    sigma * I.  The grid must start at t.
    A is the accumulated projection distance (the boundary local time of the
    scheme).
    """
    t0, x0 = start
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if abs(grid.t0 - t0) > 1e-12:
        raise ValueError("grid must start at the launch time")
    if np.any(domain.level(x0) < -_BOUNDARY_TOL):
        raise ValueError("start point lies outside the closure of the domain")
    if noise.grid.n_steps != grid.n_steps:
        raise ValueError("noise bundle and grid disagree on step count")
    n_paths = noise.n_paths
    d = domain.d
    X = np.empty((n_paths, grid.n_steps + 1, d))
    A = np.zeros((n_paths, grid.n_steps + 1))
    X[:, 0] = x0
    scalar_sigma = not callable(sigma) and np.ndim(sigma) == 0
    for i in range(grid.n_steps):
        x = X[:, i]
        bv, sig = _coefficients(b, sigma, x, d)
        # sigma * I adds only exact zeros off the diagonal: the product is bit-identical
        sw = sigma * noise.dW[:, i] if scalar_sigma else np.einsum("pij,pj->pi", sig, noise.dW[:, i])
        x_new, delta = _project_out(domain, x + bv * grid.dt[i] + sw)
        X[:, i + 1] = x_new
        A[:, i + 1] = A[:, i] + delta
    return ReflectedPath(grid, X, A, (t0, x0), noise)


def boundary_band(domain: DomainSpec, sigma_sup: float, dt: float) -> float:
    """Default width of the band in which local-time increments may occur:
    one diffusion step from the boundary."""
    return 2.0 * np.sqrt(dt) * sigma_sup


def local_time_support_fraction(path: ReflectedPath, domain: DomainSpec, band: float) -> float:
    """Fraction of steps whose local-time increment is positive while the
    step-end position sits deeper than the boundary band.  The increment is
    recorded at the step end, where the projection leaves the path exactly on
    the boundary, so this fraction must vanish for a sound scheme."""
    dA = np.diff(path.A, axis=1)
    lv_end = domain.level(path.X[:, 1:])
    return float(np.mean((dA > 0.0) & (lv_end > band)))


def local_time_identity_residual(path: ReflectedPath, domain: DomainSpec, b, sigma) -> dict:
    """Residual between simulated A and its pathwise reconstruction

        A_s = level(X_s) - level(x0) - int L(level) dr - int grad(level)^T sigma dW,

    with left-endpoint sums.  Returns per-ensemble summary statistics of the
    per-path sup-norm residuals.
    """
    if path.noise is None:
        raise ValueError("path must retain its noise bundle")
    X = path.X
    grid = path.grid
    n_paths, n_nodes = path.A.shape
    lv = domain.level(X)
    recon = np.zeros((n_paths, n_nodes))
    acc = np.zeros(n_paths)
    for i in range(grid.n_steps):
        x = X[:, i]
        bv, sig = _coefficients(b, sigma, x, domain.d)
        grad = domain.gradient(x)
        gen = _generator(sig, bv, grad, domain.hessian(x))
        mart = np.einsum("pi,pij,pj->p", grad, sig, path.noise.dW[:, i])
        acc = acc + gen * grid.dt[i] + mart
        recon[:, i + 1] = lv[:, i + 1] - lv[:, 0] - acc
    res = np.max(np.abs(path.A - recon), axis=1)
    return {
        "sup_residuals": res,
        "rms": float(np.sqrt(np.mean(res ** 2))),
        "max": float(np.max(res)),
        "mean": float(np.mean(res)),
    }
