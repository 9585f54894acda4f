"""The conditional-expectation estimator as it ran before it was planned.

_projector is now a plan built once per sweep (the monomial table, the
quantile levels and cell ids, and lstsq's cutoff) and a fit run at each
node.  These are the per-node functions it replaced, which rebuilt all of
that at every node, kept as the reference that the plan's fits must match
byte for byte.
"""
import itertools
from typing import Optional

import numpy as np


def poly_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of x (..., d) up to degree, stacked on a new last axis: the
    constant, then each degree's index combinations with replacement in
    order.  Each column is its prefix's column times one more coordinate, so
    a monomial is the product (1 * x_a) * x_b * ... taken left to right.  The
    columns are contiguous in memory, which svd reads without a transposing
    copy."""
    combos = [()]
    for deg in range(1, degree + 1):
        combos += itertools.combinations_with_replacement(range(x.shape[-1]), deg)
    cols = np.empty((len(combos),) + x.shape[:-1])
    cols[0] = 1.0
    for k, combo in enumerate(combos[1:], 1):
        np.multiply(cols[combos.index(combo[:-1])], x[..., combo[-1]], out=cols[k])
    return np.moveaxis(cols, 0, -1)


def per_node_projector(spec, x_state: Optional[np.ndarray], blocks: int):
    """The conditional-expectation estimator at one node, fitted once and
    shared by the Z and Y targets.

    project(t, out) writes the fit of targets t, (blocks * n, m), into out, a
    C-contiguous array of t's shape that may be t itself, and returns out.
    sample-mean fits each block's mean.  For poly/partition, x_state holds
    `blocks` stacked ensembles of n rows, (blocks * n, d), and each row's fit
    is the least-squares fit on its block's features: the monomials (poly), or
    the indicators of its quantile cells (partition), on which the fit is
    each cell's mean.  cond is the worst block's s_max/s_min of its design
    (inf when s_min = 0, as for an empty cell; None for sample-mean).
    """
    if spec == "sample-mean":
        def project(t, out):
            rows = t.reshape(blocks, -1, t.shape[-1])  # add.reduce / n is np.mean bit for bit, without its overhead
            np.divide(np.add.reduce(rows, axis=1, keepdims=True), rows.shape[1], out=out.reshape(rows.shape))
            return out
        return project, None
    states = x_state.reshape(blocks, -1, x_state.shape[-1])
    n, d = states.shape[1:]
    if spec[0] == "poly":
        features = poly_features(states, int(spec[1]))
    else:  # partition
        per_dim = int(round(int(spec[1]) ** (1.0 / d)))  # a whole root: _check_regression
        ids = np.zeros((blocks, n), dtype=np.intp)
        for j in range(d):  # per_dim cells per axis, cut at the block's own quantiles
            qs = np.quantile(states[..., j], np.linspace(0, 1, per_dim + 1)[1:-1], axis=1).T
            ids = ids * per_dim + np.sum(qs[:, None, :] < states[..., j, None], axis=-1)
        features = (ids[..., None] == np.arange(per_dim ** d)).astype(float)
    u, s, _ = np.linalg.svd(features, full_matrices=False)
    # keep the directions lstsq keeps: s > s_max * eps_mach * max(n, p); u * 1 is u, so a design of
    # full rank skips the pass
    keep = s > s[:, :1] * np.finfo(float).eps * max(features.shape[1:])
    q = u if keep.all() else u * keep[:, None, :]
    cond = np.divide(s[:, 0], s[:, -1], out=np.full(blocks, np.inf), where=s[:, -1] > 0)

    def project(t, out):
        rows = t.reshape(-1, n, t.shape[-1])
        np.matmul(q, q.transpose(0, 2, 1) @ rows, out=out.reshape(rows.shape))
        return out
    return project, float(np.max(cond))
