"""Brownian drivers and the increasing weight process.

Two independent d-dimensional Brownian motions drive the equation: W enters
through forward (left-endpoint) sums and B through backward (right-endpoint)
sums.  Every random stream of the package comes from one key packer,
`_stream_key(seed, tag, *ids)`, which packs its arguments injectively into the
2x64-bit key of a counter-based Philox generator (Salmon et al., SC'11).  Its
four tags are W (path i), B (path i), B_SHARED (backward-noise draw) and
FIELD_W (field node draw, lattice time, lattice point).  A call packs its
keys once and re-keys one generator for each stream (`_rekey`), which draws
what a new generator on that key (`_stream`) draws.  No generator is shared
across calls, and a stream depends on its key only, so bundles are
bit-identical regardless of batch size, ordering, scheduling or thread count.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "TimeGrid",
    "PathBundle",
    "generate_paths",
]


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray  # strictly increasing, nodes[0] = t0, nodes[-1] = T
    dt: np.ndarray = field(init=False, repr=False, compare=False)  # read-only step sizes

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        if not np.isfinite(nodes).all():  # before np.diff, which warns on inf - inf; a nan dt passes the check below
            raise ValueError("time grid nodes must be finite")
        dt = np.diff(nodes)
        if np.any(dt <= 0.0):
            raise ValueError("time grid nodes must be strictly increasing")
        dt.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dt", dt)

    @classmethod
    def uniform(cls, t0: float, T: float, n_steps: int) -> "TimeGrid":
        if not (np.isfinite([t0, T]).all() and T > t0):  # before np.linspace, which warns on a non-finite end
            raise ValueError(f"a time grid needs finite t0 < T, got t0 {t0}, T {T}")
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
    """One ensemble of the equation: per-path increments of (W, B), node
    samples of the increasing A and, for a reflected ensemble, its state X
    (A is then the boundary local time of X).

    The shapes put paths first.  A per-path array the package builds is
    stored node-major (time axis outermost in memory), so the per-node slice
    arr[:, i] that the forward and backward loops read is one contiguous
    block; an array every path shares (a shared dB, a field stretch's dB and
    carried A) is one read-only row broadcast over the paths.  No consumer
    may write into a bundle or assume C-contiguous path-major storage; a
    bundle built by hand in any layout gives the same numbers, only slower."""

    grid: TimeGrid
    dW: np.ndarray  # (n_paths, n_steps, d)
    dB: np.ndarray  # (n_paths, n_steps, d)
    A: np.ndarray   # (n_paths, n_nodes), nondecreasing; A[:, 0] is 0 from generate_paths, or a carried path's A
    X: Optional[np.ndarray] = None  # (n_paths, n_nodes, d), the reflected state

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def d(self) -> int:
        return self.dW.shape[2]

    @property
    def dA(self) -> np.ndarray:
        return np.diff(self.A, axis=1)


def _node_major(n_paths: int, n_nodes: int, *tail: int) -> np.ndarray:
    """A zero float array of shape (n_paths, n_nodes, *tail) whose time axis
    is outermost in memory, so each [:, i] is C-contiguous."""
    return np.zeros((n_nodes, n_paths) + tail).swapaxes(0, 1)


# key word 1 is tag << 62 | payload; the payload packs the ids, first id highest
_STREAM_TAGS = {"W": (0, (62,)), "B": (1, (62,)), "B_SHARED": (2, (62,)), "FIELD_W": (3, (22, 20, 20))}


def _stream_key(seed: int, tag: str, *ids: int) -> tuple:
    """The Philox key (seed, word) of the stream (seed, tag, ids).

    Word 0 of the key is the seed.  Word 1 is the tag's two bits over its
    payload: W and B carry a path index, B_SHARED a backward-noise draw (62
    bits each), FIELD_W a field node (draw << 40 | it << 20 | jp).  A seed or
    id that is not an integer, a seed outside [0, 2**64) or an id wider than
    its field raises ValueError, so distinct arguments never share a key.
    """
    code, widths = _STREAM_TAGS[tag]
    try:
        seed, ids = operator.index(seed), [operator.index(i) for i in ids]
    except TypeError:
        raise ValueError(f"stream {tag} takes an integer seed and ids, got {seed!r}, {ids!r}") from None
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    if len(ids) != len(widths):
        raise ValueError(f"stream {tag} takes {len(widths)} ids, got {len(ids)}")
    word = code
    for i, bits in zip(ids, widths):
        if not 0 <= i < 1 << bits:
            raise ValueError(f"stream {tag} id {i} does not fit in {bits} bits")
        word = word << bits | i
    return seed, word


def _stream(seed: int, tag: str, *ids: int) -> np.random.Generator:
    """A new Philox generator keyed by (seed, tag, ids), see _stream_key."""
    return np.random.Generator(np.random.Philox(key=np.array(_stream_key(seed, tag, *ids), dtype=np.uint64)))


def _rekey(gen: np.random.Generator, key: tuple) -> np.random.Generator:
    """gen with its Philox set to the fresh state of key, a (seed, word) that
    _stream_key packed: counter 0, empty buffer, no cached half word.  Its
    draws are then those of a new generator on key (_stream), without the
    cost of making one; a caller packs its keys once, not once per stream."""
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                               "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


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
    to leave A = 0 (simulate_reflected fills in the boundary local time).
    shared_backward draws a single B substream used by every path (common
    backward noise), one read-only row broadcast over the paths.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps = grid.n_steps
    sqdt = np.sqrt(grid.dt)[:, None]

    # standard_normal(out=) fills only contiguous blocks: draw a few paths into a buffer of about
    # 256 KiB, then scale it into place, so each node takes one contiguous run of them per block
    buf = np.empty((max(1, min(n_paths, 32768 // max(1, n_steps * d))), n_steps, d))

    gen = _stream(seed, "W", 0)  # re-keyed for every stream below

    def per_path(tag):
        word0, last = _stream_key(seed, tag, n_paths - 1)  # checks the widest id; path i's word is id 0's plus i
        z = _node_major(n_paths, n_steps, d)
        for i0 in range(0, n_paths, len(buf)):
            block = buf[:n_paths - i0]
            for word1, row in enumerate(block, last - n_paths + 1 + i0):
                _rekey(gen, (word0, word1)).standard_normal((n_steps, d), out=row)
            np.multiply(block, sqdt, out=z[i0:i0 + len(block)])
        return z

    dW = per_path("W")
    if shared_backward:
        dB = np.broadcast_to(_rekey(gen, _stream_key(seed, "B_SHARED", 0)).standard_normal((n_steps, d)) * sqdt,
                             (n_paths, n_steps, d))
    else:
        dB = per_path("B")

    A = _node_major(n_paths, n_steps + 1)
    if a_spec is not None:
        vals = np.asarray(a_spec(grid.nodes), dtype=float)
        if np.any(np.diff(vals) < 0):
            raise ValueError("a_spec must be nondecreasing on the grid")
        A[:] = vals - vals[0]
    return PathBundle(grid, dW, dB, A)
