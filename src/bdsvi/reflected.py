"""Reflected diffusions in a smooth bounded domain with boundary local time.

The domain is the sublevel set {level > 0} of a C^2 function whose gradient
has unit norm on the boundary (the inward normal).  Reflection is realized by
the projection-Euler scheme (Slominski 1994; Lepingle 1995): an Euler step
x* that exits the closure is mapped to its Euclidean projection p onto the
closed convex domain, and |x* - p| is the local-time increment (the discrete
Skorokhod map).  Every domain projects by a closed form, rounded inward so
the projected point lies in the closure exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .drivers import PathBundle, _node_major

__all__ = [
    "DomainSpec",
    "unit_ball",
    "smoothed_interval",
    "make_domain",
    "simulate_reflected",
    "local_time_identity_residual",
]

_BOUNDARY_TOL = 1e-9
_PUSH_ROUNDS = 8  # inward-rounding rounds of a closed-form projection


@dataclass(frozen=True)
class DomainSpec:
    """Level-set description of the domain: interior {level > 0}.

    level maps (..., d) -> (...); gradient and hessian return (..., d) and
    (..., d, d).  |gradient| must equal 1 on {level = 0}.  project maps
    outside points (m, d) to their nearest points of the closed domain.
    """

    level: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    bounding_box: tuple
    d: int
    project: Callable[[np.ndarray], np.ndarray]
    name: str


def unit_ball(dim: int, radius: float = 1.0) -> DomainSpec:
    """Ball of given radius; level = (r^2 - |x|^2) / (2r) has a unit inward
    normal -x/r on the boundary."""
    r = float(radius)

    def level(x):  # far out |x|^2 overflows, and the level reads -inf
        if dim <= 2:  # two squares add with one rounding in any order: np.sum's value, with no overflow warning
            return (r * r - np.einsum("...i,...i->...", x, x)) / (2.0 * r)
        with np.errstate(over="ignore"):  # einsum would add three or more in an order of its own
            return (r * r - np.sum(x * x, axis=-1)) / (2.0 * r)

    def gradient(x):
        return -x / r

    def hessian(x):
        return np.broadcast_to(-np.eye(dim) / r, x.shape[:-1] + (dim, dim))

    def project(x):
        return x * (r / _norm(x))[..., None]

    return DomainSpec(level, gradient, hessian, (-r * np.ones(dim), r * np.ones(dim)), dim, project,
                      f"ball(d={dim},r={r})")


def smoothed_interval(lo: float = 0.0, hi: float = 1.0) -> DomainSpec:
    """One-dimensional interval; the quadratic level has |slope| = 1 at both
    endpoints."""
    lo, hi = float(lo), float(hi)
    width = hi - lo

    def level(x):  # far out the product overflows, and the level reads -inf
        with np.errstate(over="ignore"):
            return (hi - x[..., 0]) * (x[..., 0] - lo) / width

    def gradient(x):
        return ((hi + lo - 2.0 * x[..., 0]) / width)[..., None]

    def hessian(x):
        return np.broadcast_to(np.array([[-2.0 / width]]), x.shape[:-1] + (1, 1))

    def project(x):
        return x.clip(lo, hi)

    return DomainSpec(level, gradient, hessian, (np.array([lo]), np.array([hi])), 1, project, f"interval({lo},{hi})")


def make_domain(kind: str, **params) -> DomainSpec:
    """The builder of kind called with the section's keys: the defaults live in its signature alone."""
    builders = {"ball": unit_ball, "interval": smoothed_interval}
    if kind not in builders:
        what = "domain section names no kind" if kind is None else f"unknown domain kind {kind!r}"
        raise KeyError(f"{what}; known: {', '.join(builders)}")
    return builders[kind](**params)


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


def _norm(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis.  v is scaled by a power of two before it is
    squared, so no square overflows, and wherever sqrt(sum v^2) does not
    overflow or underflow the scaling is exact and the result the same."""
    e = np.frexp(np.abs(v).max(axis=-1))[1]
    w = np.ldexp(v, -e[..., None])
    return np.ldexp(np.sqrt(np.einsum("...i,...i->...", w, w)), e)


def _project_out(domain: DomainSpec, x_star: np.ndarray):
    """Map points with level < 0 to their Euclidean projection p.

    Returns (projected points, distances |x* - p|).  Where p = domain.project
    rounds outside, it moves on by spacing(max|p|) until level >= 0 holds
    exactly; a point still outside after _PUSH_ROUNDS raises.
    """
    viol = np.flatnonzero(domain.level(x_star) < 0.0)  # indices: a gather or scatter by index beats a mask
    delta = np.zeros(len(x_star))
    if viol.size == 0:
        return x_star, delta
    xv = x_star.take(viol, axis=0)
    p = domain.project(xv)
    gap = p - xv
    dist = _norm(gap)
    todo = np.flatnonzero(domain.level(p) < 0.0)
    if todo.size:  # move on along p - x*, or toward the centre where x* is so close that p = x*
        lo, hi = domain.bounding_box
        pt = p.take(todo, axis=0)  # the points still outside, moved here and written back to p
        gap = np.where(dist[todo, None] > 0.0, gap.take(todo, axis=0), 0.5 * (lo + hi) - pt)
        step = gap * (np.spacing(np.abs(pt).max(axis=-1)) / _norm(gap))[:, None]
        for _ in range(_PUSH_ROUNDS):
            pt += step
            p[todo] = pt
            still = domain.level(pt) < 0.0
            todo, step, pt = todo[still], step[still], pt[still]
            if todo.size == 0:
                break
        else:
            raise RuntimeError("projection did not reach the closed domain; reduce the time step")
    out = x_star.copy()
    out[viol] = p
    delta[viol] = dist
    return out, delta


def simulate_reflected(
    domain: DomainSpec,
    b: Callable,
    sigma: Callable,
    start: tuple,
    noise: PathBundle,
) -> PathBundle:
    """Projection-Euler simulation of the reflected pair (X, A) from (t, x),
    driven by the forward increments of noise on its grid.

    x is one point (d,) or one per path (n_paths, d).  Each path is projected
    on its own, so paths stacked from several start points run exactly as if
    simulated apart.  b(x) -> (..., d) drift, sigma(x) -> (..., d, d)
    diffusion matrix; both may also be constants, and a scalar sigma means
    sigma * I.  The grid of noise must start at t.
    Returns noise with X filled in and A replaced by noise.A[:, 0] plus the
    accumulated projection distance |x* - p| (the boundary local time of the
    scheme), so a path carried on from an earlier call goes on with its A.
    """
    t0, x0 = start
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    grid = noise.grid
    if abs(grid.t0 - t0) > 1e-12:
        raise ValueError("grid must start at the launch time")
    if np.any(domain.level(x0) < -_BOUNDARY_TOL):
        raise ValueError("start point lies outside the closure of the domain")
    n_paths, d = noise.n_paths, domain.d
    X = _node_major(n_paths, grid.n_steps + 1, d)
    A = _node_major(n_paths, grid.n_steps + 1)
    X[:, 0], A[:, 0] = x0, noise.A[:, 0]
    scalar_sigma = not callable(sigma) and np.ndim(sigma) == 0
    # constant coefficients are broadcast once, not at every step
    fixed = None if callable(b) or callable(sigma) else _coefficients(b, sigma, X[:, 0], d)
    for i in range(grid.n_steps):
        x = X[:, i]
        bv, sig = fixed or _coefficients(b, sigma, x, d)
        # sigma * I adds only exact zeros off the diagonal: the product is bit-identical
        sw = sigma * noise.dW[:, i] if scalar_sigma else np.einsum("pij,pj->pi", sig, noise.dW[:, i])
        x_new, delta = _project_out(domain, x + bv * grid.dt[i] + sw)
        X[:, i + 1] = x_new
        np.add(A[:, i], delta, out=A[:, i + 1])
    if not (np.isfinite(X[:, -1]).all() and np.isfinite(A[:, -1]).all()):  # non-finite values persist
        raise FloatingPointError("non-finite reflected path; reduce the time step")
    return replace(noise, A=A, X=X)


def local_time_identity_residual(path: PathBundle, domain: DomainSpec, b, sigma) -> dict:
    """Residual between simulated A and its pathwise reconstruction

        A_s = level(X_s) - level(x0) - int L(level) dr - int grad(level)^T sigma dW,

    with left-endpoint sums.  Returns the rms and the max over paths of the
    per-path sup-norm residuals.
    """
    X = path.X
    grid = path.grid
    n_paths, n_nodes = path.A.shape
    lv = domain.level(X)
    recon = _node_major(n_paths, n_nodes)
    acc = np.zeros(n_paths)
    for i in range(grid.n_steps):
        x = X[:, i]
        bv, sig = _coefficients(b, sigma, x, domain.d)
        grad = domain.gradient(x)
        gen = _generator(sig, bv, grad, domain.hessian(x))
        mart = np.einsum("pi,pij,pj->p", grad, sig, path.dW[:, i])
        acc = acc + gen * grid.dt[i] + mart
        recon[:, i + 1] = lv[:, i + 1] - lv[:, 0] - acc
    res = np.max(np.abs(path.A - recon), axis=1)
    return {"rms": float(np.sqrt(np.mean(res ** 2))), "max": float(np.max(res))}
