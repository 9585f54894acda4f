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
_GOLDEN_STEPS = 53  # k = 1: the bracket left of [0, x] is 0.618**53 |x| < 1e-11 |x|
_REFINEMENTS = 14  # k = 2: the final lattice spacing is |x| / (8 * 4**14) = |x| / 2**31
_BLOCK_1D = 4096  # points per golden-section search (k = 1)
_BLOCK_2D = 64  # points per run of the lattice stages (k = 2)


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

    def __post_init__(self):  # a nan weight turns every weighted norm into nan
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"constant {name} must be finite, got {value}")


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
    oracle when available, otherwise grid_prox_oracle, which searches the
    box that x implies.
    eps = 0 is the identity.
    """
    eps, x = _check_prox_args(eps, x)
    return _prox(theta, eps, x)


def _oracle(theta: ConvexFunction):
    """The resolvent map (eps, x) -> J_eps(x) for eps > 0: the closed form
    when theta has one, otherwise grid_prox_oracle's search."""
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
    """Minimizer of F(y) = 0.5|x-y|^2 + eps*theta(y), by search on the box x implies.

    Restricted to k <= 2.  theta >= 0 = theta(0) makes J_eps nonexpansive
    with J_eps(0) = 0, so J_eps(x) lies between 0 and x at k = 1 and in
    [-|x|, |x|]^2 at k = 2: each point is searched on its own box, and +inf
    values outside the effective domain are handled by plain comparison.

    k = 1: golden section on [min(0, x), max(0, x)] for a fixed 53 steps,
    which leaves a bracket below 1e-11 |x|.  Where both interior values are
    +inf, the domain, which holds 0, lies on the side of 0, which is kept.
    The lowest F among x and the last two points is returned, x on a tie,
    or 0 where that point's F exceeds F(0), read as y(y/2 - x) + eps*theta(y)
    > 0, free of the rounding of x^2/2.  So J = x exactly for zero, and
    J = 0 for abs at |x| <= eps.
    k = 2: a 17x17 lattice on [-|x|, |x|]^2, then 14 stages, each a 17x17
    lattice of a quarter of the last one's width about its minimizer, down to
    a spacing of |x|/2^31; the lattice minimizer is returned.

    Both run over blocks of points (golden-section blocks of 4096, lattice
    blocks of 64 that run all their stages in turn), so each block's arrays
    stay in cache.  Every operation is elementwise in the point and the step
    counts are fixed, so a point's result does not depend on the batch or
    block it is solved in.

    The search compares values of F only.  Near a smooth minimizer y*, F
    exceeds its minimum F* by only 0.5*c*|y - y*|^2 (c >= 1 the curvature),
    which rounding to a few ulps of |F*| cannot resolve: the floor is about
    sqrt(8*ulp(|F*|)/c), about 6e-8 for |F*| ~ 3.  So the k = 1 result lies
    within 1e-11 |x| plus this floor of y*.  The k = 2 lattice meets the same
    floor, so its error is of the order of its spacing plus the floor.  The
    gradient laws of prox_property_suite divide that error by eps, so on
    this oracle they read up to about 3e-5 at k = 2 and eps >= 1e-3; a
    1e-5 law bound holds for k = 1 only.
    """
    eps, x = _check_prox_args(eps, x)
    k = x.shape[-1]
    if k > 2:
        raise ValueError(f"grid oracle supports k <= 2, got k={k}")
    batch = x.shape[:-1]
    x2, eps2 = x.reshape(-1, k), np.broadcast_to(eps, batch).reshape(-1)
    out = np.empty_like(x2)
    block, search = (_BLOCK_1D, _golden_prox_1d) if k == 1 else (_BLOCK_2D, _lattice_prox_2d)
    for s in range(0, len(x2), block):  # blocks of points small enough for the search's arrays to stay in cache
        blk = slice(s, s + block)
        out[blk] = search(theta, eps2[blk], x2[blk])
    return out.reshape(batch + (k,))


def _golden_prox_1d(theta, eps, x):
    """Golden-section prox on [min(0, x), max(0, x)] for points x (n, 1) and eps (n,)."""
    x = x[:, 0]

    def objective(y):
        return 0.5 * (x - y) ** 2 + eps * theta.evaluate(y[:, None])

    a, b = np.minimum(x, 0.0), np.maximum(x, 0.0)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(_GOLDEN_STEPS):
        # keep [a, d] when c is lower, and on a tie the side of 0: [a, d] = [0, d] when x > 0
        left = (fc < fd) | ((fc == fd) & (x > 0.0))
        b, a = np.where(left, d, b), np.where(left, a, c)  # faster than a masked copyto
        y = a + np.where(left, 1.0 - _INVPHI, _INVPHI) * (b - a)
        fy = objective(y)
        c, d = np.where(left, y, d), np.where(left, c, y)
        fc, fd = np.where(left, fy, fd), np.where(left, fc, fy)
    best = np.take_along_axis(np.stack([x, c, d]), np.argmin(np.stack([objective(x), fc, fd]), axis=0)[None], 0)[0]
    # F(best) - F(0) without the rounding of 0.5 x^2, which would hide a gap of 0.5 best^2 near 0
    above = best * (0.5 * best - x) + eps * theta.evaluate(best[:, None]) > 0.0
    return np.where(above, 0.0, best)[:, None]


def _lattice_prox_2d(theta, eps, x):
    """Lattice prox for points x (n, 2) and eps (n,): 17x17 lattices about the last
    minimizer, from half-width |x| down by a factor 4 at each of _REFINEMENTS stages."""
    u = np.linspace(-1.0, 1.0, 17)
    best, half = np.zeros_like(x), np.hypot(x[:, 0], x[:, 1])
    for _ in range(_REFINEMENTS + 1):
        g = best[:, :, None] + half[:, None, None] * u  # (points, 2, 17): each axis's lattice
        pts = np.empty(g.shape[:1] + (17, 17, 2))
        pts[..., 0], pts[..., 1] = g[:, 0, :, None], g[:, 1, None, :]
        d2 = (x[:, :, None] - g) ** 2
        vals = 0.5 * (d2[:, 0, :, None] + d2[:, 1, None, :]) + eps[:, None, None] * theta.evaluate(pts)
        idx = np.argmin(vals.reshape(-1, 17 * 17), axis=-1)
        best = best + half[:, None] * u[np.stack(np.divmod(idx, 17), axis=-1)]  # g at the argmin
        half = half / 4.0
    return best


def _subgradient_violation(theta: ConvexFunction, u, j, theta_j, test_points) -> float:
    """Worst <u, r - j> + theta(j) - theta(r) over the test points r, for
    multipliers u (..., k) at points j (..., k) with values theta_j = theta(j):
    u lies in dtheta(j) when it is <= 0 for every r in Dom(theta).  A scalar
    r is the point (r, ..., r) of j's dimension, for theta and the product."""
    worst = -np.inf
    for r in test_points:
        r = np.broadcast_to(np.asarray(r, dtype=float), j.shape[-1:])
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
    worst = [float(np.max(v, initial=0.0)) + 0.0 for v in (  # a nan stays nan, and fails; -0.0 + 0.0 is 0.0
        -dot(gp, gq),
        dot(gp, gv) - np.maximum(dot(gq, gv), 0.0),
        dot(gq, fv) - np.maximum(dot(gp, fv), 0.0),
    )]
    return CompatibilityReport(all(w <= 1e-9 for w in worst), *worst)


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------

def _zero() -> ConvexFunction:
    return ConvexFunction(
        evaluate=lambda x: np.zeros(x.shape[:-1]),
        prox_oracle=lambda eps, x: x.copy(),
        label="zero",
    )


def _quadratic(a: float = 1.0) -> ConvexFunction:
    if not 0.0 <= a < np.inf:  # a nan fails too
        raise ValueError(f"quadratic coefficient must be finite and >= 0, got {a}")

    def ev(x):
        return 0.5 * a * _sum_last(x * x)

    def px(eps, x):
        return x / (1.0 + np.asarray(eps)[..., None] * a)

    return ConvexFunction(ev, px, f"quadratic({a})")


def _abs() -> ConvexFunction:
    def ev(x):
        return _sum_last(np.abs(x))

    def px(eps, x):
        return np.sign(x) * np.maximum(np.abs(x) - np.asarray(eps)[..., None], 0.0)

    return ConvexFunction(ev, px, "abs")


def _indicator_box(lo, hi) -> ConvexFunction:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not (np.all(lo <= 0.0) and np.all(hi >= 0.0)):  # a nan bound fails; an infinite one is a half-line
        raise ValueError("indicator box must contain 0 (normalization theta(0)=0)")

    def ev(x):
        inside = np.all((x >= lo) & (x <= hi), axis=-1)
        return np.where(inside, 0.0, np.inf)

    def px(eps, x):
        return x.clip(lo, hi)

    return ConvexFunction(ev, px, f"indicator_box({lo},{hi})")


def _hinge_sq() -> ConvexFunction:
    def ev(x):
        return _sum_last(np.maximum(x, 0.0) ** 2)

    def px(eps, x):
        return np.where(x > 0.0, x / (1.0 + 2.0 * np.asarray(eps)[..., None]), x)

    return ConvexFunction(ev, px, "hinge_sq")


CATALOG = {
    "zero": _zero,
    "quadratic": _quadratic,
    "abs": _abs,
    "indicator_box": _indicator_box,
    "hinge_sq": _hinge_sq,
}


def _is_zero(theta: ConvexFunction) -> bool:
    """Whether theta is the catalog's zero function, whose resolvent is the identity and whose
    Yosida gradient is 0 at every eps; the one rule for treating a penalty as absent."""
    return theta.label == "zero"

_NAME_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(?:\(([^)]*)\))?\s*$")


def make_convex(name: str) -> ConvexFunction:
    """Build a catalog function from a config string.

    Examples: "zero", "abs", "quadratic(2.0)", "indicator_box(-inf,0.5)".
    """
    m = _NAME_RE.match(name)
    if m is None or m.group(1) not in CATALOG:
        raise ValueError(f"unknown convex function {name!r}")
    fn = CATALOG[m.group(1)]
    args = []
    if m.group(2):
        args = [float(a) for a in m.group(2).split(",")]
    return fn(*args)
