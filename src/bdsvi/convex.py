"""Convex functions, proximal maps, and Moreau-Yosida smoothing.

Points live in R^k and are passed as arrays whose last axis has length k;
any number of batch axes in front is allowed.  +inf is the out-of-domain
sentinel (numpy's inf already saturates under ordering and addition).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConvexFunction",
    "AssumptionConstants",
    "prox",
    "moreau_envelope",
    "yosida_gradient",
    "grid_prox_oracle",
    "prox_property_suite",
    "check_compatibility",
    "CompatibilityReport",
    "validate_weights",
    "WeightReport",
    "make_convex",
    "CATALOG",
]

# golden-section ratio 1/phi for the k = 1 prox search
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_BLOCK_1D = 4096  # points per golden-section search (k = 1)
_BLOCK_LATTICE = 512  # points per pass over the 65-point lattice (k = 1)
_BLOCK_2D = 64  # points per lattice stage (k = 2)
_RESOLUTION = 1e-8  # the grid prox oracle's final lattice spacing (k = 2) or 100x its bracket (k = 1)


@dataclass(frozen=True)
class ConvexFunction:
    """A proper l.s.c. convex function theta with theta(0) = 0, theta >= 0.

    evaluate maps arrays of shape (..., k) to values of shape (...),
    with +inf encoding points outside the effective domain.
    prox_oracle(eps, x), when supplied, must return
    argmin_y 0.5|x-y|^2 + eps*theta(y); eps may be a scalar or an array
    broadcastable against the batch axes of x.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    prox_oracle: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    domain_hint: Optional[tuple] = None  # (lo, hi) arrays of length k
    label: str = ""


@dataclass(frozen=True)
class AssumptionConstants:
    """Structural constants of the coefficient triple (f, g, h).

    beta1, beta2 are the one-sided monotonicity constants of f and g in y,
    K the Lipschitz/growth constant, alpha in (0,1) the z-contraction factor
    of h, and (lam, mu) the exponential weight exponents.
    """

    beta1: float = 0.0
    beta2: float = 0.0
    K: float = 0.0
    alpha: float = 0.5
    lam: float = 3.0
    mu: float = 1.5


@dataclass(frozen=True)
class WeightReport:
    ok: bool
    lam_margin: float
    mu_margin: float
    lam_bound: float
    mu_bound: float


def validate_weights(c: AssumptionConstants) -> WeightReport:
    """Check the strict weight inequalities

        lam > 2 + 2(beta1+beta2) + K(3-alpha+2K)/(1-alpha),   mu > 1 + 2*beta2.

    Returns margins (positive means satisfied with room).
    """
    if not (0.0 < c.alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {c.alpha}")
    lam_bound = 2.0 + 2.0 * (c.beta1 + c.beta2) + c.K * (3.0 - c.alpha + 2.0 * c.K) / (1.0 - c.alpha)
    mu_bound = 1.0 + 2.0 * c.beta2
    return WeightReport(
        ok=(c.lam > lam_bound) and (c.mu > mu_bound),
        lam_margin=c.lam - lam_bound,
        mu_margin=c.mu - mu_bound,
        lam_bound=lam_bound,
        mu_bound=mu_bound,
    )


def _sum_last(v):
    """np.sum(v, axis=-1) for a short last axis, bit for bit and in v's layout.

    numpy reduces fewer than 8 components left to right from +0.0 in every
    layout, so adding the slices in that order gives the same value, 10-20x
    faster on a trailing axis of length 1-3; from 8 on numpy sums pairwise.
    """
    k = v.shape[-1]
    if not 0 < k < 8:
        return np.sum(v, axis=-1)
    s = v[..., 0] + 0.0  # -0.0 becomes +0.0, and a new array in v's layout, as np.sum
    for i in range(1, k):
        s = s + v[..., i]
    return s


def _check_prox_args(eps, x):
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("prox input x must be finite")
    if np.any(eps < 0.0) or not np.all(np.isfinite(eps)):
        raise ValueError("eps must be finite and >= 0")
    return eps, x


def prox(theta: ConvexFunction, eps, x) -> np.ndarray:
    """Resolvent J_eps(x) = (I + eps * dtheta)^{-1}(x).

    Minimizer of y -> 0.5|x-y|^2 + eps*theta(y).  Uses the closed-form
    oracle when available, otherwise the lattice oracle over domain_hint.
    eps = 0 is the identity.
    """
    eps, x = _check_prox_args(eps, x)
    return _prox(theta, eps, x)


def _oracle(theta: ConvexFunction):
    """The resolvent map (eps, x) -> J_eps(x) for eps > 0: the closed form
    when theta has one, otherwise the lattice oracle over domain_hint."""
    return theta.prox_oracle or (lambda e, y: grid_prox_oracle(theta, e, y))


def _prox(theta: ConvexFunction, eps, x) -> np.ndarray:
    """prox without the argument checks: the caller ensures finite x and
    eps >= 0, a scalar or an array broadcastable against the batch axes of x."""
    oracle = _oracle(theta)
    zero = np.equal(eps, 0.0)
    if not zero.any():
        return np.asarray(oracle(eps, x), dtype=float)
    if zero.all():
        return x.copy()
    # not 0 * theta(y), which is nan off Dom(theta); indices, since a gather or scatter by index beats a mask
    moved = np.nonzero(~np.broadcast_to(zero, x.shape[:-1]))
    out = x.copy()
    out[moved] = oracle(np.broadcast_to(eps, x.shape[:-1])[moved], x[moved])
    return out


def moreau_envelope(theta: ConvexFunction, eps, x) -> np.ndarray:
    """theta_eps(x) = 0.5|x - J_eps(x)|^2 + eps*theta(J_eps(x)); theta_0 = theta."""
    eps, x = _check_prox_args(eps, x)
    j = _prox(theta, eps, x)
    t = theta.evaluate(j)
    with np.errstate(invalid="ignore"):  # 0 * inf = nan off Dom(theta); np.where keeps theta there
        pen = np.where(eps == 0.0, t, eps * t)
    return 0.5 * _sum_last((x - j) ** 2) + pen


def yosida_gradient(theta: ConvexFunction, eps, x) -> np.ndarray:
    """grad theta_eps(x) = (x - J_eps(x)) / eps, an element of dtheta(J_eps(x))."""
    eps, x = _check_prox_args(eps, x)
    if np.any(eps == 0.0):
        raise ValueError("yosida_gradient requires eps > 0")
    j = _prox(theta, eps, x)
    return (x - j) / eps[..., None]


def grid_prox_oracle(theta: ConvexFunction, eps, x) -> np.ndarray:
    """Minimizer of F(y) = 0.5|x-y|^2 + eps*theta(y) over domain_hint, by search.

    Restricted to k <= 2.  Both paths start from a lattice over domain_hint
    (65 points for k = 1, 17x17 for k = 2), so +inf values outside the
    effective domain are handled by plain comparison.

    k = 1: F is convex, so its minimizer lies within one cell of the lattice
    argmin.  That bracket is shrunk by golden section to a width of at most
    1e-10, and the best evaluated point is returned.
    k = 2: the lattice is refined in stages (each stage keeps a window of a
    few coarse cells around the current minimizer) down to a spacing of at
    most 1e-8, and the lattice minimizer is returned.

    Both run over blocks of points (the k = 1 lattice pass in blocks of 512
    inside golden-section blocks of 4096, the k = 2 stages in blocks of 64),
    so each block's value table stays in cache.  Every operation is
    elementwise in the point, and the k = 2 stop rule is batch-wide (every
    point runs the stages the widest window needs), so a point's result does
    not depend on the batch or block it is solved in.

    The search compares values of F only.  Near a smooth minimizer y*, F
    exceeds its minimum F* by only 0.5*c*|y - y*|^2 (c >= 1 the curvature),
    which rounding to a few ulps of |F*| cannot resolve: the floor is about
    sqrt(8*ulp(|F*|)/c), about 6e-8 for |F*| ~ 3.  So the k = 1 result lies
    within 1e-10 plus this floor of y*.  The k = 2 lattice meets the same
    floor, so its error is of the order of its spacing plus the floor
    (about 4e-8 from the catalog's closed forms).  The gradient laws of
    prox_property_suite divide that error by eps, so on this oracle they
    read up to about 1.2e-5 at k = 2 and eps >= 1e-3; a 1e-5 law bound holds
    for k = 1 only.
    """
    eps, x = _check_prox_args(eps, x)
    if theta.domain_hint is None:
        raise ValueError(f"grid oracle for {theta.label!r} needs a domain_hint")
    k = x.shape[-1]
    if k > 2:
        raise ValueError(f"grid oracle supports k <= 2, got k={k}")
    lo = np.broadcast_to(np.asarray(theta.domain_hint[0], dtype=float), (k,)).copy()
    hi = np.broadcast_to(np.asarray(theta.domain_hint[1], dtype=float), (k,)).copy()
    batch = x.shape[:-1]
    eps_b = np.broadcast_to(eps, batch)
    if k == 1:
        # blocks of points small enough for the search's arrays to stay in cache
        x1, eps1 = x[..., 0].reshape(-1), eps_b.reshape(-1)
        out = np.empty_like(x1)
        for s in range(0, x1.size, _BLOCK_1D):
            blk = slice(s, s + _BLOCK_1D)
            out[blk] = _golden_prox_1d(theta, eps1[blk], x1[blk], lo[0], hi[0], _RESOLUTION / 100.0)
        return out.reshape(batch + (1,))

    # the stop rule reads every point's window, so each point runs as many stages as the widest needs
    x2, eps2 = x.reshape(-1, k), eps_b.reshape(-1)
    lo_b = np.broadcast_to(lo, x2.shape).copy()
    hi_b = np.broadcast_to(hi, x2.shape).copy()
    best = np.empty_like(x2)
    n_pts = 17
    t = np.linspace(0.0, 1.0, n_pts)
    while True:
        step = max(np.max((hi_b[:, 0] - lo_b[:, 0]) / (n_pts - 1)),
                   np.max((hi_b[:, 1] - lo_b[:, 1]) / (n_pts - 1)))
        for s in range(0, len(x2), _BLOCK_2D):
            blk = slice(s, s + _BLOCK_2D)
            lo_k, width = lo_b[blk], hi_b[blk] - lo_b[blk]
            g = lo_k[:, :, None] + width[:, :, None] * t  # (points, k, n_pts): each axis's lattice
            pts = np.empty(g.shape[:1] + (n_pts, n_pts, k))
            pts[..., 0], pts[..., 1] = g[:, 0, :, None], g[:, 1, None, :]
            d2 = (x2[blk, :, None] - g) ** 2
            vals = 0.5 * (d2[:, 0, :, None] + d2[:, 1, None, :]) + eps2[blk, None, None] * theta.evaluate(pts)
            idx = np.argmin(vals.reshape(-1, n_pts * n_pts), axis=-1)
            best[blk] = lo_k + width * t[np.stack(np.divmod(idx, n_pts), axis=-1)]  # g at the argmin
            if step > _RESOLUTION:
                half = 2.0 * width / (n_pts - 1)
                lo_b[blk] = np.maximum(lo, best[blk] - half)
                hi_b[blk] = np.minimum(hi, best[blk] + half)
        if step <= _RESOLUTION:
            return best.reshape(batch + (k,))


def _golden_prox_1d(theta, eps, x, lo, hi, width):
    """Golden-section prox for k = 1 on scalar coordinates x, eps (same shape)."""

    def objective(y):
        return 0.5 * (x - y) ** 2 + eps * theta.evaluate(y[..., None])

    n_pts = 65
    grid = lo + (hi - lo) * np.linspace(0.0, 1.0, n_pts)
    theta_grid = theta.evaluate(grid[:, None])
    idx = np.empty(x.shape, dtype=np.intp)
    f_anchor = np.empty_like(x)
    for s in range(0, x.size, _BLOCK_LATTICE):  # sub-blocks, so the (points, 65) table stays in cache
        blk = slice(s, s + _BLOCK_LATTICE)
        vals = 0.5 * (x[blk, None] - grid) ** 2 + eps[blk, None] * theta_grid
        idx[blk] = np.argmin(vals, axis=-1)
        f_anchor[blk] = np.take_along_axis(vals, idx[blk, None], axis=-1)[:, 0]
    anchor = grid[idx]
    a = grid[np.maximum(idx - 1, 0)]
    b = grid[np.minimum(idx + 1, n_pts - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    w0 = 2.0 * (hi - lo) / (n_pts - 1)  # the widest bracket, so n_iter does not depend on the batch
    n_iter = int(np.ceil(np.log(w0 / width) / np.log(1.0 / _INVPHI))) if w0 > width else 0
    for _ in range(n_iter):
        # keep [a, d] when c is lower.  Both are +inf only outside the
        # domain, which then lies on the side of the finite anchor.
        left = fc < fd
        tie = fc == fd
        if tie.any():
            left |= tie & (anchor <= c)
        b, a = np.where(left, d, b), np.where(left, a, c)  # faster than a masked copyto
        y = a + np.where(left, 1.0 - _INVPHI, _INVPHI) * (b - a)
        fy = objective(y)
        c, d = np.where(left, y, d), np.where(left, c, y)
        fc, fd = np.where(left, fy, fd), np.where(left, fc, fy)
    # the lower interior point is the best golden-section point evaluated
    best, best_f = np.where(fc <= fd, c, d), np.minimum(fc, fd)
    return np.where(best_f < f_anchor, best, anchor)


def _subgradient_violation(theta: ConvexFunction, u, j, theta_j, test_points) -> float:
    """Worst <u, r - j> + theta(j) - theta(r) over the test points r, for
    multipliers u (..., k) at points j (..., k) with values theta_j = theta(j):
    u lies in dtheta(j) when it is <= 0 for every r in Dom(theta)."""
    worst = -np.inf
    for r in test_points:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        worst = max(worst, float(np.max(_sum_last(u * (r - j)) + theta_j - float(theta.evaluate(r)))))
    return worst


def prox_property_suite(
    theta: ConvexFunction,
    n_samples: int,
    seed: int,
    k: int = 1,
) -> dict:
    """Worst violations of the resolvent/gradient laws on random samples.

    Checks, for random x, y in [-3, 3]^k and eps, delta log-uniform in
    [1e-3, 1]:
      nonexpansive     |J_eps(x) - J_eps(y)| <= |x - y|
      lipschitz        |grad theta_eps(x) - grad theta_eps(y)| <= |x-y|/eps
      monotone         <grad theta_eps(x) - grad theta_eps(y), x-y> >= 0
      cross_eps        <grad theta_eps(x) - grad theta_delta(y), x-y>
                         >= -(eps+delta) <grad theta_eps(x), grad theta_delta(y)>
      sandwich_lower   (1/(2 eps))|x - J_eps(x)|^2 <= theta_eps(x)/eps
      sandwich_upper   theta_eps(x)/eps <= theta(x)   (finite theta(x) only)
      subgradient      <grad theta_eps(x), r - J_eps(x)> + theta(J_eps(x)) <= theta(r)
                         at r = (v, ..., v), v in linspace(-1.5, 1.5, 7)
      grad_at_zero     |grad theta_eps(0)| = 0

    Returns a dict of worst signed violations (<= 0 means the law holds).
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, (n_samples, k))
    y = rng.uniform(-3.0, 3.0, (n_samples, k))
    lo, hi = -3.0, 0.0  # log10 of the eps range
    eps = 10.0 ** rng.uniform(lo, hi, n_samples)
    delta = 10.0 ** rng.uniform(lo, hi, n_samples)

    # one resolvent pass over the stacked points [x; y; y; 0] with eps [eps; eps; delta; eps]
    pts = np.concatenate([x, y, y, np.zeros((n_samples, k))])
    lam = np.concatenate([eps, eps, delta, eps])
    j = prox(theta, lam, pts)
    jx, jy = j[:n_samples], j[n_samples:2 * n_samples]
    gx, gy, gyd, g0 = ((pts - j) / lam[:, None]).reshape(4, n_samples, k)  # as yosida_gradient
    dxy = np.sqrt(_sum_last((x - y) ** 2))

    worst = {}
    worst["nonexpansive"] = float(np.max(np.sqrt(_sum_last((jx - jy) ** 2)) - dxy))
    worst["lipschitz"] = float(np.max(np.sqrt(_sum_last((gx - gy) ** 2)) - dxy / eps))
    worst["monotone"] = float(np.max(-_sum_last((gx - gy) * (x - y))))
    worst["cross_eps"] = float(np.max(
        -(_sum_last((gx - gyd) * (x - y)) + (eps + delta) * _sum_last(gx * gyd))
    ))
    t_jx = theta.evaluate(jx)
    env = 0.5 * _sum_last((x - jx) ** 2) + eps * t_jx  # theta_eps(x), as moreau_envelope
    worst["sandwich_lower"] = float(np.max(0.5 * _sum_last((x - jx) ** 2) - env))
    tx = theta.evaluate(x)
    finite = np.isfinite(tx)
    worst["sandwich_upper"] = float(np.max(env[finite] / eps[finite] - tx[finite])) if np.any(finite) else 0.0
    test_points = [np.full(k, v) for v in np.linspace(-1.5, 1.5, 7)]
    worst["subgradient"] = _subgradient_violation(theta, gx, jx, t_jx, test_points)
    worst["grad_at_zero"] = float(np.max(np.abs(g0)))
    return worst


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool
    worst_i: float
    worst_ii: float
    worst_iii: float


def check_compatibility(
    phi: ConvexFunction,
    psi: ConvexFunction,
    f: Callable,
    g: Callable,
    eps_ladder,
    t: float,
    y: np.ndarray,
    z: np.ndarray,
) -> CompatibilityReport:
    """Sampled validator of the three coupling inequalities between phi, psi
    and the coefficients:

        (i)   <grad phi_eps(y), grad psi_eps(y)> >= 0
        (ii)  <grad phi_eps(y), g(t,y)>  <= <grad psi_eps(y), g(t,y)>^+
        (iii) <grad psi_eps(y), f(t,y,z)> <= <grad phi_eps(y), f(t,y,z)>^+

    f and g are the batched maps of a CoefficientSet, called in the state-free
    regime as f(t, None, y, z) and g(t, None, y) on the samples y (m, k) and
    z (m, k, d); every rung of eps_ladder and every sample is evaluated in one
    pass.  Worst positive violations are reported; pass iff all are at most
    1e-9.  This is a spot check on the given samples, not a proof.
    """
    y = np.asarray(y, dtype=float)
    eps = np.asarray(eps_ladder, dtype=float)[:, None]  # one row per rung, against the sample axis
    rungs = np.broadcast_to(y, (len(eps),) + y.shape)
    gp, gq = yosida_gradient(phi, eps, rungs), yosida_gradient(psi, eps, rungs)
    gv = np.asarray(g(t, None, y), dtype=float)
    fv = np.asarray(f(t, None, y, z), dtype=float)
    dot = lambda a, b: _sum_last(a * b)
    worst = [max(0.0, float(np.max(v))) for v in (
        -dot(gp, gq),
        dot(gp, gv) - np.maximum(dot(gq, gv), 0.0),
        dot(gq, fv) - np.maximum(dot(gp, fv), 0.0),
    )]
    return CompatibilityReport(max(worst) <= 1e-9, *worst)


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------

def _zero() -> ConvexFunction:
    return ConvexFunction(
        evaluate=lambda x: np.zeros(x.shape[:-1]),
        prox_oracle=lambda eps, x: x.copy(),
        domain_hint=(-10.0, 10.0),
        label="zero",
    )


def _quadratic(a: float = 1.0) -> ConvexFunction:
    if a < 0:
        raise ValueError("quadratic coefficient must be >= 0")

    def ev(x):
        return 0.5 * a * _sum_last(x * x)

    def px(eps, x):
        return x / (1.0 + np.asarray(eps)[..., None] * a)

    return ConvexFunction(ev, px, (-10.0, 10.0), f"quadratic({a})")


def _abs() -> ConvexFunction:
    def ev(x):
        return _sum_last(np.abs(x))

    def px(eps, x):
        return np.sign(x) * np.maximum(np.abs(x) - np.asarray(eps)[..., None], 0.0)

    return ConvexFunction(ev, px, (-10.0, 10.0), "abs")


def _indicator_box(lo, hi) -> ConvexFunction:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > 0.0) or np.any(hi < 0.0):
        raise ValueError("indicator box must contain 0 (normalization theta(0)=0)")

    def ev(x):
        inside = np.all((x >= lo) & (x <= hi), axis=-1)
        return np.where(inside, 0.0, np.inf)

    def px(eps, x):
        return x.clip(lo, hi)

    glo = np.where(np.isfinite(lo), lo, -10.0) - 1.0
    ghi = np.where(np.isfinite(hi), hi, 10.0) + 1.0
    return ConvexFunction(ev, px, (glo, ghi), f"indicator_box({lo},{hi})")


def _hinge_sq() -> ConvexFunction:
    def ev(x):
        return _sum_last(np.maximum(x, 0.0) ** 2)

    def px(eps, x):
        return np.where(x > 0.0, x / (1.0 + 2.0 * np.asarray(eps)[..., None]), x)

    return ConvexFunction(ev, px, (-10.0, 10.0), "hinge_sq")


CATALOG = {
    "zero": _zero,
    "quadratic": _quadratic,
    "abs": _abs,
    "indicator_box": _indicator_box,
    "hinge_sq": _hinge_sq,
}

_NAME_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(?:\(([^)]*)\))?\s*$")


def make_convex(name: str) -> ConvexFunction:
    """Build a catalog function from a config string.

    Examples: "zero", "abs", "quadratic(2.0)", "indicator_box(-inf,0.5)".
    """
    m = _NAME_RE.match(name)
    if m is None or m.group(1) not in CATALOG:
        raise KeyError(f"unknown convex function {name!r}")
    fn = CATALOG[m.group(1)]
    args = []
    if m.group(2):
        args = [float(a) for a in m.group(2).split(",")]
    return fn(*args)
