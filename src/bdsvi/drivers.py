"""Brownian drivers, the increasing weight process, and discrete Ito conventions.

Two independent d-dimensional Brownian motions are sampled per path: W enters
through forward (left-endpoint) sums and B through backward (right-endpoint)
sums.  Each path owns a counter-based Philox substream keyed by
(seed, path index), so bundles are bit-identical regardless of how path
generation is scheduled.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

__all__ = [
    "TimeGrid",
    "PathBundle",
    "generate_paths",
    "load_a_table",
    "forward_ito",
    "backward_ito",
    "stratonovich_backward",
]


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray  # strictly increasing, nodes[0] = t0, nodes[-1] = T
    dt: np.ndarray = field(init=False, repr=False, compare=False)  # read-only step sizes

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        dt = np.diff(nodes)
        if np.any(dt <= 0.0):
            raise ValueError("time grid nodes must be strictly increasing")
        dt.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dt", dt)

    @classmethod
    def uniform(cls, t0: float, T: float, n_steps: int) -> "TimeGrid":
        if T <= t0:
            raise ValueError("need T > t0")
        return cls(np.linspace(t0, T, n_steps + 1))

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def max_dt(self) -> float:
        return float(np.max(self.dt))


@dataclass(frozen=True)
class PathBundle:
    """Per-path increments of (W, B) and node samples of the increasing A."""

    grid: TimeGrid
    d: int
    n_paths: int
    dW: np.ndarray  # (n_paths, n_steps, d)
    dB: np.ndarray  # (n_paths, n_steps, d)
    A: np.ndarray   # (n_paths, n_nodes), nondecreasing, A[:, 0] = 0
    seed: int
    a_attached: bool = True

    def with_a(self, A: np.ndarray) -> "PathBundle":
        """Return a copy carrying an externally supplied increasing process."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.n_paths, self.grid.nodes.size):
            raise ValueError(f"A must have shape {(self.n_paths, self.grid.nodes.size)}")
        if np.any(np.diff(A, axis=1) < -1e-12):
            raise ValueError("A must be nondecreasing along each path")
        return PathBundle(self.grid, self.d, self.n_paths, self.dW, self.dB,
                          A - A[:, :1], self.seed, a_attached=True)

    @property
    def dA(self) -> np.ndarray:
        return np.diff(self.A, axis=1)


def load_a_table(path) -> Callable[[np.ndarray], np.ndarray]:
    """Load a tabulated increasing process from CSV with columns (t, A)."""
    ts, vals = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() == "t":
                continue
            ts.append(float(row[0]))
            vals.append(float(row[1]))
    ts = np.asarray(ts)
    vals = np.asarray(vals)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("A table times must be strictly increasing")
    if np.any(np.diff(vals) < 0):
        raise ValueError("A table values must be nondecreasing")
    return lambda t: np.interp(t, ts, vals)


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def generate_paths(
    grid: TimeGrid,
    d: int,
    n_paths: int,
    seed: int,
    a_spec: Union[Callable, None] = None,
    shared_backward: bool = False,
) -> PathBundle:
    """Sample Gaussian increments dW, dB with variance dt per component.

    a_spec: a nondecreasing map t -> A(t) applied to the grid nodes, or None
    to leave A = 0 with a_attached=False (attach later, e.g. boundary local
    time from a reflected simulation).  shared_backward draws a single B
    substream used by every path (common backward noise).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps = grid.n_steps
    sqdt = np.sqrt(grid.dt)[:, None]
    dW = np.empty((n_paths, n_steps, d))
    dB = np.empty((n_paths, n_steps, d))
    if shared_backward:
        # path substreams draw only W; B comes from a dedicated substream
        for i in range(n_paths):
            dW[i] = _substream(seed, i).standard_normal((n_steps, d)) * sqdt
        dB[:] = _substream(seed, 2**63).standard_normal((n_steps, d)) * sqdt
    else:
        for i in range(n_paths):
            z = _substream(seed, i).standard_normal((n_steps, 2 * d))
            dW[i] = z[:, :d] * sqdt
            dB[i] = z[:, d:] * sqdt

    A = np.zeros((n_paths, n_steps + 1))
    attached = a_spec is not None
    if attached:
        vals = np.asarray(a_spec(grid.nodes), dtype=float)
        if np.any(np.diff(vals) < 0):
            raise ValueError("a_spec must be nondecreasing on the grid")
        A[:] = vals - vals[0]
    return PathBundle(grid, d, n_paths, dW, dB, A, seed, a_attached=attached)


def forward_ito(integrand_left: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Left-endpoint sum  sum_i zeta(t_i) dW_i  over the step axis (axis -1
    after broadcasting; arrays must share the number of steps)."""
    integrand_left = np.asarray(integrand_left, dtype=float)
    dW = np.asarray(dW, dtype=float)
    if integrand_left.shape[-1] != dW.shape[-1]:
        raise ValueError("integrand and increment step counts differ")
    return np.sum(integrand_left * dW, axis=-1)


def backward_ito(integrand_right: np.ndarray, dB: np.ndarray) -> np.ndarray:
    """Right-endpoint sum  sum_i zeta(t_{i+1}) dB_i  (backward convention).

    The sum is forward_ito's; the conventions differ only in which node
    values the caller passes (here the right endpoints of the steps)."""
    return forward_ito(integrand_right, dB)


def stratonovich_backward(integrand: Callable, dB: np.ndarray, y_terminal=0.0):
    """Heun (midpoint-corrected) backward Stratonovich integration.

    Solves the scalar state recursion y_j = y_{j+1} + 0.5*(h(y_{j+1}) +
    h(y*)) dB_j with predictor y* = y_{j+1} + h(y_{j+1}) dB_j, traversing the
    steps from the terminal end down to the initial one.  Returns
    (y_initial, integral_value) where integral_value = y_initial - y_terminal.
    Strong order >= 1 on smooth integrands.
    """
    dB = np.asarray(dB, dtype=float)
    y = np.asarray(y_terminal, dtype=float) + np.zeros(dB.shape[:-1])
    for j in range(dB.shape[-1] - 1, -1, -1):
        db = dB[..., j]
        hy = integrand(y)
        pred = y + hy * db
        y = y + 0.5 * (hy + integrand(pred)) * db
    return y, y - np.asarray(y_terminal, dtype=float)
