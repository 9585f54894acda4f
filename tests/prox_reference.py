"""The search prox oracle without its blocks of points.

grid_prox_oracle runs its k = 1 golden-section search in blocks of points and
its k = 2 lattice stages block by block.  These are the same searches over the
whole batch at once, with any batch axes in front, kept as the reference that
the blocked kernels must match byte for byte: the same elementwise operations
on the same operands, for the same fixed number of steps.
"""
import numpy as np

from bdsvi.convex import _GOLDEN_STEPS, _INVPHI, _REFINEMENTS, _check_prox_args


def unblocked_grid_prox_oracle(theta, eps, x):
    eps, x = _check_prox_args(eps, x)
    eps = np.broadcast_to(eps, x.shape[:-1])
    if x.shape[-1] == 1:
        return _golden_prox_1d(theta, eps, x[..., 0])[..., None]
    return _lattice_prox_2d(theta, eps, x)


def _golden_prox_1d(theta, eps, x):
    def objective(y):
        return 0.5 * (x - y) ** 2 + eps * theta.evaluate(y[..., None])

    a, b = np.minimum(x, 0.0), np.maximum(x, 0.0)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(_GOLDEN_STEPS):
        left = (fc < fd) | ((fc == fd) & (x > 0.0))
        b, a = np.where(left, d, b), np.where(left, a, c)
        y = a + np.where(left, 1.0 - _INVPHI, _INVPHI) * (b - a)
        fy = objective(y)
        c, d = np.where(left, y, d), np.where(left, c, y)
        fc, fd = np.where(left, fy, fd), np.where(left, fc, fy)
    best, f_best = x, objective(x)
    for y, fy in ((c, fc), (d, fd)):  # a later point replaces an earlier one only when strictly lower
        best, f_best = np.where(fy < f_best, y, best), np.minimum(fy, f_best)
    above = best * (0.5 * best - x) + eps * theta.evaluate(best[..., None]) > 0.0
    return np.where(above, 0.0, best)


def _lattice_prox_2d(theta, eps, x):
    n_pts = 17
    u = np.linspace(-1.0, 1.0, n_pts)
    best0, best1 = np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1])
    half = np.hypot(x[..., 0], x[..., 1])
    for _ in range(_REFINEMENTS + 1):
        g0 = best0[..., None] + half[..., None] * u
        g1 = best1[..., None] + half[..., None] * u
        y0 = g0[..., :, None]
        y1 = g1[..., None, :]
        pts = np.stack(np.broadcast_arrays(y0, y1), axis=-1)
        dist = (x[..., 0, None, None] - y0) ** 2 + (x[..., 1, None, None] - y1) ** 2
        vals = 0.5 * dist + eps[..., None, None] * theta.evaluate(pts)
        idx = np.argmin(vals.reshape(vals.shape[:-2] + (n_pts * n_pts,)), axis=-1)
        i0, i1 = np.unravel_index(idx, (n_pts, n_pts))
        best0 = np.take_along_axis(g0, i0[..., None], axis=-1)[..., 0]
        best1 = np.take_along_axis(g1, i1[..., None], axis=-1)[..., 0]
        half = half / 4.0
    return np.stack([best0, best1], axis=-1)
