"""Monte-Carlo sampling of the value field u(t, x) on a space-time lattice.

Each lattice node launches a reflected ensemble from (t, x); its boundary
local time feeds the backward solver as the increasing weight process, and
the field value is the ensemble estimate of the solution at the initial node.
The nodes alive between two lattice times run as one stacked ensemble, one
stretch of the grid at a time (see sample_field).
One backward-noise draw defines one field sample (the field is a random
object of the backward noise); the reported field averages the per-draw
fields and keeps them available.  Both noises come from the key packer of
`drivers`: a draw's backward increments from its B_SHARED stream, shared by
every node, and a node's forward increments from its own FIELD_W stream.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .convex import ConvexFunction
from .drivers import PathBundle, TimeGrid, _node_major, _rekey, _stream, _stream_key
from .reflected import DomainSpec, ForwardModel, _check_closure, simulate_reflected
from .solver import CoefficientSet, SolverConfig, _backward_sweep, _terminal_values

__all__ = [
    "FieldGrid",
    "FieldEstimate",
    "sample_field",
    "continuity_diagnostic",
]


@dataclass(frozen=True)
class FieldGrid:
    """Evaluation lattice: times in [0, T] and points in the closure of the
    domain it is built on.  Which points lie on the boundary is the domain's
    level there, so the grid does not store it."""

    times: np.ndarray   # (nt,)
    points: np.ndarray  # (npts, d)

    @classmethod
    def build(cls, domain: DomainSpec, times, points) -> "FieldGrid":
        times = np.asarray(times, dtype=float)
        points = np.asarray(points, dtype=float)
        for name, a in (("times", times), ("points", points)):
            if a.size == 0:
                raise ValueError(f"lattice has no {name}")
        if points.ndim != 2 or points.shape[1] != domain.d:
            raise ValueError(f"lattice points must have shape (n, {domain.d}), got {points.shape}")
        _check_closure(domain, points, "lattice point")
        return cls(times, points)


@dataclass
class FieldEstimate:
    grid: FieldGrid
    values: np.ndarray          # (nt, npts), mean over backward draws
    stderr: np.ndarray          # (nt, npts)
    per_draw: np.ndarray        # (n_draws, nt, npts)


def sample_field(model: ForwardModel, coeffs: CoefficientSet, phi: ConvexFunction, psi: ConvexFunction,
                 config: SolverConfig, fgrid: FieldGrid, n_paths: int, seed: int,
                 n_b_draws: int = 1) -> FieldEstimate:
    """Estimate u(t, x) at every lattice node, each node's ensemble a reflected diffusion of model.

    Lattice times are snapped up to the master grid of the solver config,
    and the estimate's grid carries the snapped times; a time outside the
    grid raises ValueError.  The backward increments of one draw are
    generated once on the master grid and shared by every path and lattice
    node (common noise).  Node (draw, it, jp) draws its forward increments as
    one (n_paths, steps, d) block from its own stream, path p on row p, so a
    node's paths are prefix-stable in n_paths.

    The master grid is cut at the snapped times, and each stretch between
    two cuts runs once for every node alive on it.  Forward, one stacked
    reflected ensemble holds the rows carried from the stretch before, whose
    X and A go on from there, then the rows of the times launched at the
    stretch's first node, in index order (point jp of a time on rows
    jp * n_paths ...).  Backward, the stretch's sweep takes the Y carried
    from the stretch after as its terminal value (the dynamic programming
    principle), regresses each node on its own paths and reads off the times
    launched at its first node.  So each node gets, bit for bit, the solve of
    its own ensemble from its time to T.  The terminal slice is the exact
    terminal map.
    """
    if n_paths < 1 or n_b_draws < 1:
        raise ValueError("n_paths and n_b_draws must be >= 1")
    master = config.grid
    nodes, n = master.nodes, master.n_steps
    for t in fgrid.times:
        if not master.t0 - 1e-12 <= t <= master.T + 1e-12:
            raise ValueError(f"lattice time {t} lies outside the grid [{master.t0}, {master.T}]")
    npts, d = fgrid.points.shape[0], model.domain.d
    shape = (n_b_draws, fgrid.times.size, npts)
    per_draw, per_draw_se = np.empty(shape), np.zeros(shape)
    starts = np.repeat(fgrid.points, n_paths, axis=0)

    t_index = np.searchsorted(nodes, fgrid.times - 1e-12)
    cuts = np.append(np.unique(t_index[t_index < n]), n)
    launched = [np.flatnonzero(t_index == j) for j in cuts[:-1]]  # the lattice times launched at each cut
    per_draw[:, t_index == n] = _terminal_values(coeffs, npts, fgrid.points)[:, 0]
    sqdt = np.sqrt(master.dt)[:, None]
    gen = _stream(seed, "B_SHARED", 0)  # re-keyed for every stream below
    alive = np.cumsum([len(its) for its in launched]) * npts * n_paths  # the rows of each stretch
    for draw in range(n_b_draws):
        db_master = _rekey(gen, _stream_key(seed, "B_SHARED", draw)).standard_normal((n, d)) * sqdt
        dWs = [_node_major(r, j1 - j0, d) for r, j0, j1 in zip(alive, cuts, cuts[1:])]
        rows, ens, x, a = 0, [], np.empty((0, d)), np.empty(0)
        for s, (j0, j1, its) in enumerate(zip(cuts, cuts[1:], launched)):
            for it, jp in itertools.product(its, range(npts)):
                z = _rekey(gen, _stream_key(seed, "FIELD_W", draw, it, jp)).standard_normal((n_paths, n - j0, d))
                for dw, k0, k1 in zip(dWs[s:], cuts[s:], cuts[s + 1:]):
                    np.multiply(z[:, k0 - j0:k1 - j0], sqdt[k0:k1], out=dw[rows:rows + n_paths])
                rows += n_paths
            sub = TimeGrid(nodes[j0:j1 + 1])
            x0, a0 = np.concatenate([x] + [starts] * len(its)), np.pad(a, (0, rows - len(a)))[:, None]
            ens.append(simulate_reflected(model, x0, PathBundle(
                sub, dWs[s], np.broadcast_to(db_master[j0:j1], (rows, j1 - j0, d)),
                np.broadcast_to(a0, (rows, j1 - j0 + 1)))))
            x, a = ens[-1].X[:, -1], ens[-1].A[:, -1]
        del dWs  # each stretch's dW lives on in its bundle alone, freed after its sweep
        terminal = coeffs.terminal
        for its in launched[::-1]:
            e = ens.pop()
            Y = _backward_sweep(replace(coeffs, terminal=terminal), phi, psi, replace(config, grid=e.grid),
                                [config.eps] * (e.n_paths // n_paths), e)[0][:, :, 0]
            kept = len(Y) - len(its) * npts  # the blocks carried from the stretch before
            y0 = Y[kept:, :, 0].reshape(len(its), npts, n_paths)
            per_draw[draw, its] = np.mean(y0, axis=2)
            per_draw_se[draw, its] = np.std(y0, axis=2, ddof=1) / np.sqrt(n_paths) if n_paths > 1 else 0.0
            terminal = lambda _, y=Y[:kept].reshape(-1, Y.shape[-1]).copy(): y
            del Y, y0  # the sweep's arrays go before the next sweep makes its own
    values = np.mean(per_draw, axis=0)
    within = np.sqrt(np.mean(per_draw_se ** 2, axis=0) / n_b_draws)
    across = np.std(per_draw, axis=0, ddof=1) / np.sqrt(n_b_draws) if n_b_draws > 1 else 0.0
    stderr = np.sqrt(within ** 2 + np.square(across))
    return FieldEstimate(replace(fgrid, times=nodes[t_index]), values, stderr, per_draw)


def _continuity_pairs(times, points) -> dict:
    """The continuity check's lattice rules, which load_scenario reaches too:
    neighbouring gaps are positive, and strides 1 and 2 each pair neighbours
    along the times or the points (ValueError otherwise).  Per stride, the
    (axis, gaps) of each axis with pairs: sqrt(dt) on axis 0, |dx| on axis 1."""
    if np.any(np.diff(times) <= 0.0) or np.any(np.linalg.norm(np.diff(points, axis=0), axis=1) <= 0.0):
        raise ValueError("lattice times must increase and neighbouring lattice points differ")
    if max(len(times), len(points)) <= 2:
        raise ValueError("lattice too small for continuity pairs")
    return {s: [(axis, gaps) for axis, gaps in ((0, np.sqrt(times[s:] - times[:-s])),
                                                (1, np.linalg.norm(points[s:] - points[:-s], axis=1))) if gaps.size]
            for s in (1, 2)}


def continuity_diagnostic(fld: FieldEstimate) -> dict:
    """Empirical continuity moduli |du| / (|dt|^{1/2} + |dx|) between lattice
    neighbours at stride 1 and stride 2 (the pairs of _continuity_pairs);
    flags blow-up when the fine-scale worst ratio exceeds ten times the
    coarse-scale worst ratio."""

    def ratios(axis, s, gaps):  # |u_a - u_b| / gap over the pairs s apart along one axis of the lattice
        u = np.moveaxis(fld.values, axis, 0)
        return (np.abs(u[s:] - u[:-s]) / gaps[:, None]).ravel()

    worst_fine, worst_coarse = (float(np.max(np.concatenate([ratios(axis, s, gaps) for axis, gaps in pairs])))
                                for s, pairs in _continuity_pairs(fld.grid.times, fld.grid.points).items())
    return {
        "worst_fine": worst_fine,
        "worst_coarse": worst_coarse,
        "blowup": worst_fine > 10.0 * max(worst_coarse, 1e-12),
    }
