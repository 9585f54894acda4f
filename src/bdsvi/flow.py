"""Pathwise flow of the backward noise coefficient and coefficient transforms.

The scalar flow eta(t, x, y) solves, in the Stratonovich sense and backward
in time (y is the value at the terminal end),

    eta(t, x, y) = y + int_t^T h(s, x, eta(s, x, y)) o dB_s,

with x frozen.  Under bounded smooth h the map y -> eta is an increasing
diffeomorphism; its derivative is integrated alongside by differentiating the
discrete Heun update exactly, and the y-inverse is obtained by Newton on the
forward flow rather than by integrating the inverse-flow equation (the
round-trip identity certifies it).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convex import ConvexFunction, yosida_gradient
from .reflected import DomainSpec, _coefficients, _generator

__all__ = [
    "FlowSpec",
    "FlowSample",
    "flow",
    "flow_inverse",
    "transform_penalized",
]

_FD_STEP = 1e-4  # central-difference step of the transforms' flow derivatives


@dataclass(frozen=True)
class FlowSpec:
    """Scalar noise coefficient h(t, x, u) and its derivative d_u h(t, x, u).
    The transforms take their x- and y-derivatives of the flow from central
    differences of step 1e-4."""

    h: Callable
    d_u: Callable


@dataclass(frozen=True)
class FlowSample:
    eta: np.ndarray
    d_y_eta: np.ndarray


def flow(spec: FlowSpec, x, y, times: np.ndarray, B: np.ndarray) -> FlowSample:
    """Heun integration of the flow from the terminal node down to times[0].

    times: node times covering [t, T]; B: backward-Brownian values at those
    nodes (both one-dimensional).  y may be a scalar or an array (batched).
    A scalar y starts on Python floats and takes h and d_u through float()
    while they return 0-d values; from the first value that is not 0-d the
    same loop goes on with arrays.  Floats and numpy values take the same
    IEEE operations, and a 0-d result comes back as np.float64.
    The y-derivative is propagated by the exact derivative of the discrete
    update, so it is the Jacobian of the computed map, positive for any
    step size when h is smooth enough.
    """
    times = np.asarray(times, dtype=float)
    B = np.asarray(B, dtype=float)
    if times.size != B.size or times.size < 2:
        raise ValueError("times and B must align with at least two nodes")
    # Python floats and callables bound once: the same IEEE operations, without per-step indexing
    h, du = spec.h, spec.d_u
    t_nodes, b_nodes = times.ravel().tolist(), B.ravel().tolist()
    eta = np.asarray(y, dtype=float) + 0.0
    scalar = eta.ndim == 0  # while every value is 0-d; a Python float has no ndim
    eta, dy = (float(eta), 1.0) if scalar else (eta, np.ones_like(eta))
    for j in range(len(t_nodes) - 2, -1, -1):
        db = b_nodes[j + 1] - b_nodes[j]
        t1 = t_nodes[j + 1]
        t0 = t_nodes[j]
        h1 = h(t1, x, eta)
        d1 = du(t1, x, eta)
        scalar = scalar and not (getattr(h1, "ndim", 0) or getattr(d1, "ndim", 0))
        if scalar:
            h1, d1 = float(h1), float(d1)
        pred = eta + h1 * db
        h2 = h(t0, x, pred)
        d2 = du(t0, x, pred)
        scalar = scalar and not (getattr(h2, "ndim", 0) or getattr(d2, "ndim", 0))
        if scalar:
            h2, d2 = float(h2), float(d2)
        eta = eta + 0.5 * (h1 + h2) * db
        dy = dy * (1.0 + 0.5 * (d1 + d2 * (1.0 + d1 * db)) * db)
    if np.any(dy <= 0.0):
        raise RuntimeError("flow derivative lost positivity; refine the integration grid")
    eta, dy = (np.float64(v) if np.ndim(v) == 0 else v for v in (eta, dy))
    return FlowSample(eta=eta, d_y_eta=dy)


def flow_inverse(spec: FlowSpec, x, target, times, B):
    """Solve eta(t, x, y) = target for y by Newton on the monotone flow.

    eta is increasing in y, so the sign of each residual brackets its root;
    a Newton step that leaves the bracket is replaced by the bracket's
    midpoint (safeguarded Newton, "rtsafe": Press et al., Numerical Recipes,
    section 9.4).  An accepted Newton step costs no extra flow pass.  It
    stops at a residual of 1e-11 and accepts 1e-10 after 100 steps.
    """
    target = np.asarray(target, dtype=float)
    y = target + 0.0
    lo, hi = np.full(y.shape, -np.inf), np.full(y.shape, np.inf)
    for _ in range(100):
        s = flow(spec, x, y, times, B)
        resid = s.eta - target
        if np.max(np.abs(resid)) <= 1e-11:
            return y
        lo, hi = np.where(resid < 0.0, y, lo), np.where(resid > 0.0, y, hi)
        newton = y - resid / s.d_y_eta
        y = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
    s = flow(spec, x, y, times, B)
    if np.max(np.abs(s.eta - target)) <= 1e-10:
        return y
    raise RuntimeError("flow inversion did not converge")


def _flow_derivatives(spec: FlowSpec, x, y, times, B):
    """Flow value plus first/second derivatives in x and y at one point.

    Spatial derivatives come from central differences of the flow on the same
    noise path, over the stencil x, x +- e_i, x +- e_i +- e_j (i < j) and then
    y +- h; the pure y-derivative comes from the variational recursion.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d, h = x.size, _FD_STEP
    e = h * np.eye(d)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    xs = ([x] + [x + s * e[i] for i in range(d) for s in (1, -1)]
          + [x + si * e[i] + sj * e[j] for i, j in pairs for si in (1, -1) for sj in (1, -1)])
    runs = [flow(spec, p, y, times, B) for p in xs] + [flow(spec, x, y + s * h, times, B) for s in (1, -1)]
    eta = np.array([r.eta.item() for r in runs])  # item(): a map that reads x gives eta of shape (1,)
    dy = np.array([r.d_y_eta.item() for r in runs])
    xp, xm = eta[1:2 * d + 1:2], eta[2:2 * d + 1:2]
    d_xx = np.diag((xp - 2.0 * eta[0] + xm) / (h * h))
    for (i, j), (pp, pm, mp, mm) in zip(pairs, eta[2 * d + 1:-2].reshape(-1, 4)):
        d_xx[i, j] = d_xx[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    d_xy = (dy[1:2 * d + 1:2] - dy[2:2 * d + 1:2]) / (2.0 * h)
    return runs[0], (xp - xm) / (2.0 * h), d_xx, d_xy, (dy[-2] - dy[-1]) / (2.0 * h)


def transform_penalized(
    spec: FlowSpec,
    f: Callable,
    g: Callable,
    phi: ConvexFunction,
    psi: ConvexFunction,
    delta: float,
    domain: DomainSpec,
    sigma,
    b,
    point,
    times,
    B,
) -> tuple[float, float]:
    """Transformed drift and boundary coefficients at point = (t, x, y, z) of
    the equation penalized by the Yosida gradients of (phi, psi) at delta.

    With eta = eta(t,x,y), Dy = d eta/dy > 0, and L_x the generator acting on
    the frozen-y flow:

      f~ = (1/Dy) [ f(t, x, eta, sigma^T Dx_eta + Dy z)
                    - 0.5 (h d_u h)(t, x, eta) + L_x eta
                    + <sigma^T Dxy_eta, z> + 0.5 Dyy_eta |z|^2
                    - grad phi_delta(eta) ]
      g~ = (1/Dy) ( g(t, x, eta) - <grad level(x), Dx_eta> - grad psi_delta(eta) )

    With phi = psi = zero the Yosida gradients are exactly 0, and (f~, g~)
    are the unpenalized transforms.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    t, x, y, z = point
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    bv, sig = _coefficients(b, sigma, x, x.size)
    base, d_x, d_xx, d_xy, d_yy = _flow_derivatives(spec, x, y, times, B)
    eta = base.eta.item()
    dy = base.d_y_eta.item()
    if dy <= 1e-12:
        raise RuntimeError("degenerate flow derivative")

    l_x = float(_generator(sig, bv, d_x, d_xx))
    hu = spec.h(t, x, eta) * spec.d_u(t, x, eta)
    z_arg = sig.T @ d_x + dy * z
    f_tilde = (f(t, x, eta, z_arg) - 0.5 * hu + l_x
               + float(np.dot(sig.T @ d_xy, z)) + 0.5 * d_yy * float(np.dot(z, z))) / dy
    g_tilde = (g(t, x, eta) - float(np.dot(domain.gradient(x), d_x))) / dy
    gp, gq = (float(yosida_gradient(theta, delta, np.atleast_1d(eta))[0]) for theta in (phi, psi))
    return np.asarray(f_tilde).item() - gp / dy, np.asarray(g_tilde).item() - gq / dy
