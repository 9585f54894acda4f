"""The lattice prox oracle as it ran before its passes were blocked.

grid_prox_oracle now runs the k = 1 lattice pass in sub-blocks of points and
each k = 2 refinement stage block by block.  These are the unblocked loops it
replaced, kept as the reference that the blocked kernels must match byte for
byte: the same elementwise operations on the same operands, and at k = 2 the
same batch-wide stop rule.
"""
import numpy as np

from bdsvi.convex import _BLOCK_1D, _INVPHI, _RESOLUTION, _check_prox_args


def unblocked_grid_prox_oracle(theta, eps, x):
    eps, x = _check_prox_args(eps, x)
    k = x.shape[-1]
    lo = np.broadcast_to(np.asarray(theta.domain_hint[0], dtype=float), (k,)).copy()
    hi = np.broadcast_to(np.asarray(theta.domain_hint[1], dtype=float), (k,)).copy()
    batch = x.shape[:-1]
    eps_b = np.broadcast_to(eps, batch)
    if k == 1:
        x1, eps1 = x[..., 0].reshape(-1), eps_b.reshape(-1)
        out = np.empty_like(x1)
        for s in range(0, x1.size, _BLOCK_1D):
            blk = slice(s, s + _BLOCK_1D)
            out[blk] = _golden_prox_1d(theta, eps1[blk], x1[blk], lo[0], hi[0], _RESOLUTION / 100.0)
        return out.reshape(batch + (1,))

    lo_b = np.broadcast_to(lo, batch + (k,)).copy()
    hi_b = np.broadcast_to(hi, batch + (k,)).copy()
    n_pts = 17
    while True:
        t = np.linspace(0.0, 1.0, n_pts)
        g0 = lo_b[..., 0, None] + (hi_b[..., 0, None] - lo_b[..., 0, None]) * t
        g1 = lo_b[..., 1, None] + (hi_b[..., 1, None] - lo_b[..., 1, None]) * t
        y0 = g0[..., :, None]
        y1 = g1[..., None, :]
        pts = np.stack(np.broadcast_arrays(y0, y1), axis=-1)
        dist = (x[..., 0, None, None] - y0) ** 2 + (x[..., 1, None, None] - y1) ** 2
        vals = 0.5 * dist + eps_b[..., None, None] * theta.evaluate(pts)
        flat = vals.reshape(batch + (n_pts * n_pts,))
        idx = np.argmin(flat, axis=-1)
        i0, i1 = np.unravel_index(idx, (n_pts, n_pts))
        best0 = np.take_along_axis(g0, i0[..., None], axis=-1)[..., 0]
        best1 = np.take_along_axis(g1, i1[..., None], axis=-1)[..., 0]
        step = max(
            np.max((hi_b[..., 0] - lo_b[..., 0]) / (n_pts - 1)),
            np.max((hi_b[..., 1] - lo_b[..., 1]) / (n_pts - 1)),
        )
        if step <= _RESOLUTION:
            return np.stack([best0, best1], axis=-1)
        for dim, best in ((0, best0), (1, best1)):
            half = 2.0 * (hi_b[..., dim] - lo_b[..., dim]) / (n_pts - 1)
            lo_b[..., dim] = np.maximum(lo[dim], best - half)
            hi_b[..., dim] = np.minimum(hi[dim], best + half)


def _golden_prox_1d(theta, eps, x, lo, hi, width):
    def objective(y):
        return 0.5 * (x - y) ** 2 + eps * theta.evaluate(y[..., None])

    n_pts = 65
    grid = lo + (hi - lo) * np.linspace(0.0, 1.0, n_pts)
    vals = 0.5 * (x[..., None] - grid) ** 2 + eps[..., None] * theta.evaluate(grid[:, None])
    idx = np.argmin(vals, axis=-1)
    anchor = grid[idx]
    f_anchor = np.take_along_axis(vals, idx[..., None], axis=-1)[..., 0]
    a = grid[np.maximum(idx - 1, 0)]
    b = grid[np.minimum(idx + 1, n_pts - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    w0 = 2.0 * (hi - lo) / (n_pts - 1)
    n_iter = int(np.ceil(np.log(w0 / width) / np.log(1.0 / _INVPHI))) if w0 > width else 0
    for _ in range(n_iter):
        left = fc < fd
        tie = fc == fd
        if tie.any():
            left |= tie & (anchor <= c)
        b, a = np.where(left, d, b), np.where(left, a, c)
        y = a + np.where(left, 1.0 - _INVPHI, _INVPHI) * (b - a)
        fy = objective(y)
        c, d = np.where(left, y, d), np.where(left, c, y)
        fc, fd = np.where(left, fy, fd), np.where(left, fc, fy)
    best, best_f = np.where(fc <= fd, c, d), np.minimum(fc, fd)
    return np.where(best_f < f_anchor, best, anchor)
