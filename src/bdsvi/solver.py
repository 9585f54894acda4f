"""Backward solver for the Yosida-penalized doubly stochastic equation.

The recursion runs from the terminal node to the start.  At each step the
next value plus the dt, dA and backward-noise contributions is projected onto
the chosen conditional-expectation estimator, the Z component is extracted
from the correlation with the forward increments, and the penalization is
applied either explicitly (a Yosida gradient step for phi, then the resolvent
of the envelope psi_eps over dA, nonexpansive for any dA) or implicitly
(resolvent steps, the stable surrogate of the small-eps limit).  The estimator
is fitted once per node and shared by the Z and Y targets; for ``poly`` and
``partition`` its condition number is s_max/s_min of the worst block's design.
The state-free ``sample-mean`` estimator, the resolvent oracles, the zero
penalties (skipped), a scenario's constant f, g and h, and so which per-step
views a step reads, are resolved once per sweep, not per step.  Each step
writes Y, Z, U and V in place into the solution arrays; the Z fit runs under
``sample-mean`` in one pass after the sweep when neither f nor h reads z.
Finiteness is checked once, after an unchecked pass; a sweep that fails the
check runs again with a check at every step, which raises at the step where
Y, U or V turns non-finite (FloatingPointError).

Conditional expectations:

* ``sample-mean`` is meant for the non-Markov regime with a deterministic
  terminal value and state-free coefficients.  There the running value is
  measurable with respect to the backward noise, which is *known* at the
  current time under the two-sided filtration, so the value update is exact
  pathwise; only the Z extraction averages across paths (where the forward
  expectation genuinely acts).  The sweep rejects it for an ensemble that
  carries a state X or for a terminal map.
* ``poly``/``partition`` regress on the Markov state, which the sweep
  requires.  They assume the ensemble shares one backward-noise draw
  (common noise), which is how the field sampler builds its ensembles.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .convex import AssumptionConstants, ConvexFunction, _is_zero, _oracle, _prox, _subgradient_violation, prox
from .drivers import PathBundle, TimeGrid, _node_major

__all__ = [
    "CoefficientSet",
    "SolverConfig",
    "BdsdeSolution",
    "solve_penalized",
    "weighted_norms",
    "penalization_diagnostics",
    "cauchy_study",
    "verify_vi_inclusion",
]

@dataclass(frozen=True)
class CoefficientSet:
    """Coefficient maps of the backward equation.

    f(t, x, y, z) -> (n, k);  g(t, x, y) -> (n, k);  h(t, x, y, z) -> (n, k, d).
    x is the Markov state (n, d) or None in the state-free regime.
    terminal is a constant xi (scalar or length-k) or a map chi(x_T).
    A map that is an _Affine (as a scenario's are) is read by the sweep: a
    constant f, g or h is never called there.  Any other map is called at
    every step.
    """

    f: Callable
    g: Callable
    h: Callable
    terminal: Union[float, np.ndarray, Callable]
    constants: AssumptionConstants = field(default_factory=AssumptionConstants)


@dataclass(frozen=True)
class _Affine:
    """The coefficient a_y y + a_z sum(z) + c, for h (noise) repeated along the
    last axis of z.  g is called without z; f and h read z only when a_z != 0
    and h its last axis.  A map with a_y = a_z = 0 is the constant c."""

    a_y: float
    a_z: float
    c: float
    noise: bool

    def __post_init__(self):  # a zero constant is +0.0, the term the sweep skips
        if not np.isfinite([self.a_y, self.a_z, self.c]).all():
            raise ValueError(f"coefficient a_y, a_z and c must be finite, got {self.a_y}, {self.a_z}, {self.c}")
        if not (self.a_y or self.a_z):
            object.__setattr__(self, "c", self.c or 0.0)

    def __call__(self, t, x, y, *z):
        if self.a_z:
            v = self.a_y * y + self.a_z * np.sum(z[0], axis=-1) + self.c
        elif self.a_y:
            v = self.a_y * y + self.c
        else:
            v = np.full(y.shape, self.c)
        return v[..., None] * np.ones(z[0].shape[-1]) if self.noise else v


@dataclass(frozen=True)
class SolverConfig:
    grid: TimeGrid
    eps: float = 1e-3
    scheme: str = "implicit-prox"  # or "explicit-yosida"
    regression: Union[str, tuple] = "sample-mean"  # or ("poly", degree) / ("partition", cells)

    def __post_init__(self):
        if self.scheme not in ("explicit-yosida", "implicit-prox"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        reg = self.regression
        if reg != "sample-mean" and not (isinstance(reg, tuple) and len(reg) == 2 and reg[0] in ("poly", "partition")):
            raise ValueError(f"unknown regression {reg!r}; known: sample-mean, (poly, degree), (partition, cells)")
        if not (np.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if self.scheme == "explicit-yosida" and self.eps == 0.0:
            raise ValueError("explicit scheme needs eps > 0")


@dataclass
class BdsdeSolution:
    """Solution arrays of one backward sweep.  Y, Z, U and V are stored
    node-major like the arrays of PathBundle, so each [:, i] is contiguous;
    no consumer may assume C-contiguous path-major storage.  A is the A of
    the bundle that drove the sweep, dA its increments as the sweep applied
    them, and grid the grid of config.  constants, phi and psi are those of
    the solve, which the analysis below reads instead of taking them again."""

    Y: np.ndarray  # (n_paths, n_nodes, k)
    Z: np.ndarray  # (n_paths, n_nodes, k, d)
    U: np.ndarray  # (n_paths, n_nodes, k)
    V: np.ndarray  # (n_paths, n_nodes, k)
    A: np.ndarray  # (n_paths, n_nodes)
    config: SolverConfig
    constants: AssumptionConstants  # lam and mu weight the norms, energies and Cauchy gaps
    phi: ConvexFunction
    psi: ConvexFunction
    condition_numbers: list  # the worst block's per step; empty under sample-mean

    @property
    def grid(self) -> TimeGrid:
        return self.config.grid

    @property
    def dA(self) -> np.ndarray:  # (n_paths, n_steps)
        return np.maximum(np.diff(self.A, axis=1), 0.0)


def _poly_features(d: int, degree: int):
    """(features, p): features(x) stacks the p monomials of x (..., d) up to degree on a new last axis: the
    constant, then each degree's index combinations with replacement in order, from a table built once here.
    Each column is its prefix's column times one more coordinate, so a monomial is the product
    (1 * x_a) * x_b * ... taken left to right.  The columns are contiguous in memory, which svd reads without
    a transposing copy."""
    combos = [()]
    for deg in range(1, degree + 1):
        combos += itertools.combinations_with_replacement(range(d), deg)
    table = [(combos.index(combo[:-1]), combo[-1]) for combo in combos[1:]]

    def features(x):
        cols = np.empty((len(combos),) + x.shape[:-1])
        cols[0] = 1.0
        for k, (parent, j) in enumerate(table, 1):
            np.multiply(cols[parent], x[..., j], out=cols[k])
        return cols.transpose(*range(1, cols.ndim), 0)
    return features, len(combos)


def _check_regression(spec, d: int, has_state: bool, terminal):
    """The estimator rule, a ValueError where it fails: sample-mean takes state-free data (module docstring), poly
    and partition a state and a count _projector would not change: a degree in 0, 1, ..., or cells m**d, m >= 1."""
    kind, n = (spec, 0) if spec == "sample-mean" else spec
    if kind == "sample-mean" and (has_state or callable(terminal)):
        raise ValueError("regression sample-mean needs no state or domain and a constant terminal; use poly/partition")
    if kind != "sample-mean" and not has_state:
        raise ValueError(f"regression {kind} needs a state: a domain, or an ensemble that carries X")
    if kind == "poly" and not (n >= 0 and n % 1 == 0):
        raise ValueError(f"regression poly degree must be a whole number >= 0, got {n}")
    if kind == "partition" and not (1 <= n < np.inf and round(n ** (1 / d)) ** d == n):
        raise ValueError(f"regression partition cells must be m**{d} for a whole m >= 1, got {n}")


def _projector(spec, blocks: int, shape: Optional[tuple]):
    """The plan of the conditional-expectation estimator of `blocks` stacked
    ensembles: the monomial table, the quantile levels and cell ids, and
    lstsq's cutoff, built once.  fit(x_state) fits it at one node, for the Z
    and Y targets, and returns (project, cond).  project(t, out) writes the
    fit of targets t, (blocks * n, m), into out, a C-contiguous array of t's
    shape that may be t itself, and returns out.  sample-mean fits each
    block's mean and reads no state.  For poly/partition, x_state, of shape
    (blocks * n, d), holds the blocks' states, and each row's fit is the
    least-squares fit on its block's features: the monomials (poly), or the
    indicators of its quantile cells (partition), whose fit is each cell's
    mean.  cond is the worst block's s_max/s_min of its design (inf when
    s_min = 0, as for an empty cell; None for sample-mean)."""
    if spec == "sample-mean":
        def project(t, out):
            rows = t.reshape(blocks, -1, t.shape[-1])  # add.reduce / n is np.mean bit for bit, without its overhead
            np.divide(np.add.reduce(rows, axis=1, keepdims=True), rows.shape[1], out=out.reshape(rows.shape))
            return out
        return lambda x_state: (project, None)
    n, d = shape[0] // blocks, shape[1]
    if spec[0] == "poly":
        features, p = _poly_features(d, int(spec[1]))
    else:  # partition
        per_dim = int(round(int(spec[1]) ** (1.0 / d)))  # a whole root: _check_regression
        levels, cells, p = np.linspace(0, 1, per_dim + 1)[1:-1], np.arange(per_dim ** d), per_dim ** d

        def features(states):
            ids = np.zeros((blocks, n), dtype=np.intp)
            for j in range(d):  # per_dim cells per axis, cut at the block's own quantiles
                qs = np.quantile(states[..., j], levels, axis=1).T
                ids = ids * per_dim + np.sum(qs[:, None, :] < states[..., j, None], axis=-1)
            return (ids[..., None] == cells).astype(float)
    cutoff = np.finfo(float).eps * max(n, p)  # lstsq keeps the directions with s > s_max * eps_mach * max(n, p)

    def fit(x_state):
        u, s, _ = np.linalg.svd(features(x_state.reshape(blocks, n, d)), full_matrices=False)  # raises unless finite
        keep = s > s[:, :1] * cutoff
        q = u if keep.all() else u * keep[:, None, :]  # u * 1 is u, so a design of full rank skips the pass

        def project(t, out):
            rows = t.reshape(-1, n, t.shape[-1])
            np.matmul(q, q.transpose(0, 2, 1) @ rows, out=out.reshape(rows.shape))
            return out
        return project, float((s[:, 0] / s[:, -1]).max()) if s[:, -1].all() else np.inf  # s >= 0: s > 0 is s != 0
    return fit


def _terminal_values(coeffs: CoefficientSet, n_paths: int, X_T: Optional[np.ndarray]):
    if callable(coeffs.terminal):  # X_T is not None: _check_regression
        xi = np.asarray(coeffs.terminal(X_T), dtype=float).reshape(len(X_T), -1)
    else:
        xi = np.atleast_1d(np.asarray(coeffs.terminal, dtype=float))
        xi = np.broadcast_to(xi, (n_paths, xi.size)).copy()
    return xi


def solve_penalized(
    coeffs: CoefficientSet,
    phi: ConvexFunction,
    psi: ConvexFunction,
    config: SolverConfig,
    noise: PathBundle,
) -> BdsdeSolution:
    """Backward recursion for the penalized equation, driven by the W, B and
    A of noise and regressed on its state X when it carries one.

    Per step i:
      (a) Z_i from the regression of Y_{i+1} dW_i^T / dt_i;
      (b) Ytil_i = E_i[Y_{i+1} + f dt + g dA + h dB] (coefficients at the
          right endpoint in (t, x, y), current Z);
      (c) explicit-yosida:  j = Ytil - U_i dt with U_i = grad phi_eps(Ytil), then
          Y_i = prox_{dA psi_eps}(j) = j - V_i dA with V_i = grad psi_{eps+dA}(j);
          implicit-prox:    Y_i = J^psi_dA(J^phi_dt(Ytil)), with the
          multipliers read off the resolvent gaps (V_i = 0 when dA_i = 0).
    """
    Y, Z, U, V, conds = _backward_sweep(coeffs, phi, psi, config, [config.eps], noise)
    return BdsdeSolution(Y[0], Z[0], U[0], V[0], noise.A, config, coeffs.constants, phi, psi, conds)


def _backward_sweep(coeffs, phi, psi, config, eps_blocks, noise):
    """The recursion of solve_penalized for B = len(eps_blocks) independent
    ensembles stacked block-major on the rows of noise.  Block b runs at
    eps_blocks[b] and is regressed on its own rows of the state noise.X, so
    it matches a solve on its own.  Returns Y, Z, U and V, each of shape
    (B, n_paths, ...), and the worst block's condition number per step.

    What does not change from step to step is set up once here: the finiteness
    of dW, dB and dA, dA clipped at 0 in place, the estimator's plan
    (_projector; a state regression is fitted per node), the resolvent oracles
    of phi and psi, the explicit scheme's per-row eps and its column, which
    penalties are zero, which coefficients are zero or constant _Affine maps
    (a nonzero constant h is built once, as _Affine builds it), and so which
    of the step's views (dW, dB and dA at step i; t, x and z for the maps) a
    step reads.  A zero penalty's step is the identity and its multiplier
    exactly 0, so its resolvent, gradient and U or V store are skipped (for
    finite input the generic step gives the same bits: +0.0 multipliers, and j
    - 0 * dA = j).  Only the implicit psi step, where dA can be 0, goes
    through _prox.  A zero g or h term is skipped, a constant f adds the float
    c dt, and any other map is called at every step.  A skipped term is +0.0,
    which only turns a -0.0 sum into +0.0, so such a sweep adds 0.0 once:
    folded into the float, c dt + 0.0, for a constant f, else after the h
    term.  The step writes Ytil and then Y_i into Y[:, i], and U_i and V_i
    into U[:, i] and V[:, i], in place; each read of the explicit psi step's
    input ends before it writes Y_i.  Each node's Z fit is written into Z[:,
    i]; under sample-mean, when neither f nor h reads z, no step reads Z, and
    the fits are one pass over Z[:, :-1] after the sweep, in the step's
    layout.

    Finiteness.  A checked step raises FloatingPointError naming the step:
    on a non-finite Ytil before a moving penalty, whose resolvent can map it
    to a finite Y_i, then on a non-finite Y_i, U_i or V_i (a moving
    penalty's multiplier can overflow while Y_i stays finite).  The sweep
    first runs every step unchecked, under an errstate that turns each FP
    category the caller does not ignore into a 'call' to a recorder, with
    any Exception of a map or an oracle caught.  It stands if nothing was
    recorded or raised and the steps' Y, and U and V of a moving penalty,
    are finite.  Otherwise its condition numbers are dropped and it runs
    again from the terminal node, checked, under the caller's errstate.  Its
    inputs (the terminal values, the noise and the maps, assumed pure) are
    unchanged and it redoes every write, so it raises and warns as a sweep
    that checks every step; a map's own warnings.warn is emitted again.

    The scan misses no step whose Ytil check would raise: a non-finite
    Ytil_i leaves a non-finite value in Y_i, U_i or V_i.  With no moving
    penalty, Y_i = Ytil_i.  A moving phi writes
    U_i = (Ytil_i - J(Ytil_i)) / tau in either scheme, non-finite for any J.
    A moving psi alone writes V_i = (j - J(j)) / e in the explicit scheme;
    the implicit one writes V_i = (j - J(j)) / dA on the rows with dA > 0
    and keeps Y_i = j on the rows with dA = 0."""
    grid = config.grid
    if not np.array_equal(noise.grid.nodes, grid.nodes):
        raise ValueError("noise bundle and solver grid disagree")
    rows, d = noise.n_paths, noise.d
    dA, X = noise.dA, noise.X
    sample_mean = config.regression == "sample-mean"
    _check_regression(config.regression, d, X is not None, coeffs.terminal)
    shared = noise.dB.strides[0] == 0  # one row, broadcast over the paths
    for name, inc in (("dW", noise.dW), ("dB", noise.dB[:1] if shared else noise.dB)):
        if not np.isfinite(inc).all():
            raise ValueError(f"{name} increments must be finite")
    if not np.all(np.isfinite(dA)) or np.any(dA < -1e-12):
        raise ValueError("dA increments must be finite and >= 0")
    np.maximum(dA, 0.0, out=dA)  # the fresh np.diff of noise.dA, clipped in place
    explicit = config.scheme == "explicit-yosida"
    eps = np.asarray(eps_blocks, dtype=float)  # finite and > 0 under explicit: SolverConfig or _check_ladder
    # the explicit phi step is stable while dt * Lip(grad phi_eps) = dt / eps <= 1; the slack is
    # the rounding of the grid's dt, so dt = eps passes
    move_phi, move_psi = not _is_zero(phi), not _is_zero(psi)
    ratio = grid.max_dt / eps.min() if explicit and move_phi else 0.0
    if ratio > 1.0 + 1e-9:
        raise FloatingPointError(f"explicit scheme unstable: max dt / min eps = {ratio:.3g} > 1")
    n_blocks = eps.size
    n_paths = rows // n_blocks
    if X is not None and len(X) != rows:
        raise ValueError("state ensemble must match the noise rows")

    xi = _terminal_values(coeffs, rows, X[:, -1] if X is not None else None)
    k = xi.shape[1]
    n_nodes = grid.n_steps + 1

    Y, Z, U, V = (_node_major(rows, n_nodes, *tail) for tail in ((k,), (k, d), (k,), (k,)))
    Y[:, -1] = xi
    # c of a map that reads neither y nor z, else None; a nonzero constant h is its value, built as _Affine builds it
    f_c, g_c, h_c = (m.c if isinstance(m, _Affine) and not (m.a_y or m.a_z) else None
                     for m in (coeffs.f, coeffs.g, coeffs.h))
    plus_zero = g_c == 0.0 or h_c == 0.0  # a skipped +0.0 term: add 0.0 once
    if f_c is not None:  # c dt + 0.0 differs from c dt only at -0.0, which a late + 0.0 turns into +0.0
        f_dts = [f_c * dt + 0.0 if plus_zero else f_c * dt for dt in grid.dt.tolist()]
    late_zero = plus_zero and f_c is None
    h_v = np.full((rows, k), h_c)[..., None] * np.ones(d) if h_c else None
    calls, reads_da = None in (f_c, g_c, h_c), g_c != 0.0 or move_psi
    z_after = sample_mean and all(isinstance(m, _Affine) and not m.a_z for m in (coeffs.f, coeffs.h))
    plan = _projector(config.regression, n_blocks, (rows, d))  # the estimator, fitted at each node
    project = plan(None)[0] if sample_mean else None
    res_phi, res_psi = _oracle(phi), _oracle(psi)
    if explicit:
        eps_row = np.repeat(eps, n_paths)
        eps_col = eps_row[:, None]

        def grad(resolvent, e, e_col, y, out):  # the Yosida gradient (y - J_e(y)) / e at the per-row scale e
            return np.divide(y - np.asarray(resolvent(e, y), dtype=float), e_col, out=out)

        if move_phi:
            grad(res_phi, eps_row, eps_col, xi, U[:, -1])
        if move_psi:
            grad(res_psi, eps_row, eps_col, xi, V[:, -1])

    conds = []
    dts, t_nodes, dW, dB = grid.dt.tolist(), grid.nodes.tolist(), noise.dW, noise.dB
    watched = [("Y", Y)] + [("U", U)] * move_phi + [("V", V)] * move_psi  # what a step writes, less a zero U or V

    def steps(checked):  # every step from the terminal node; checked: the per-step finiteness checks
        for i in range(grid.n_steps - 1, -1, -1):
            dt = dts[i]
            y_next, y_i = Y[:, i + 1], Y[:, i]  # y_i holds Ytil, then Y_i
            da = dA[:, i, None] if reads_da else None
            if calls:  # the maps' t, x and y, at the right endpoint
                txy = (t_nodes[i + 1], X[:, i + 1] if X is not None else None, y_next)

            if not sample_mean:
                fit, cond = plan(X[:, i])
                conds.append(cond)
            else:
                fit = project
            if not z_after:  # Y_{i+1} dW_i^T / dt_i into Z[:, i], then its fit in place
                z_i = Z[:, i]
                np.divide(np.multiply(y_next[:, :, None], dW[:, i, None, :], out=z_i), dt, out=z_i)
                fit(z_i.reshape(rows, k * d), z_i.reshape(rows, k * d))

            if f_c is None:
                np.add(y_next, np.asarray(coeffs.f(*txy, Z[:, i]), dtype=float).reshape(rows, k) * dt, out=y_i)
            else:
                np.add(y_next, f_dts[i], out=y_i)
            if g_c is None:
                y_i += np.asarray(coeffs.g(*txy), dtype=float).reshape(rows, k) * da
            elif g_c:
                y_i += g_c * da
            if h_c != 0.0:
                hv = h_v if h_c else np.asarray(coeffs.h(*txy, Z[:, i]), dtype=float).reshape(rows, k, d)
                y_i += np.einsum("pkd,pd->pk", hv, dB[:, i])
            if late_zero:
                y_i += 0.0
            if not sample_mean:  # under sample-mean the target is already measurable at t_i (module docstring)
                fit(y_i, y_i)
            # a moving penalty's resolvent can map a non-finite Ytil to a finite Y; with none, Y_i is Ytil
            if checked and (move_phi or move_psi) and not np.isfinite(y_i).all():
                raise FloatingPointError(f"non-finite Y at step {i}")

            j = y_i
            if move_phi and explicit:
                j = np.subtract(y_i, grad(res_phi, eps_row, eps_col, y_i, U[:, i]) * dt, out=y_i)
            elif move_phi:
                j = np.asarray(res_phi(dt, y_i), dtype=float)
                np.divide(np.subtract(y_i, j, out=U[:, i]), dt, out=U[:, i])
            if move_psi and explicit:
                # j - dA grad psi_{eps+dA}(j) = prox_{dA psi_eps}(j): nonexpansive for any dA
                e = eps_row + da[:, 0]
                j = np.subtract(j, grad(res_psi, e, e[:, None], j, V[:, i]) * da, out=y_i)
            elif move_psi:
                y = _prox(psi, da[:, 0], j)  # the identity on rows with dA_i = 0
                np.divide(j - y, da, out=V[:, i], where=da > 0.0)
                j = y
            if j is not y_i:
                y_i[...] = j
            for name, a in watched if checked else ():  # a multiplier can overflow while Y_i stays finite
                if not np.isfinite(a[:, i]).all():
                    raise FloatingPointError(f"non-finite {name} at step {i}")

    # one pass unchecked, recording the FP events the caller would see, then again checked if it
    # faulted (docstring: Finiteness)
    faults = []
    unchecked = {kind: "ignore" if mode == "ignore" else "call" for kind, mode in np.geterr().items()}
    try:
        with np.errstate(call=lambda kind, flag: faults.append(kind), **unchecked):
            steps(False)
        stands = not faults and all(np.isfinite(a[:, :-1]).all() for _, a in watched)
    except Exception:
        stands = False
    if not stands:
        conds.clear()
        steps(True)
    if z_after:  # Y_{i+1} dW_i^T / dt_i written into Z[:, i], then each node's block means in place
        z = Z[:, :-1]
        np.divide(np.multiply(Y[:, 1:, :, None], dW[:, :, None, :], out=z), grid.dt[:, None, None], out=z)
        nodes = Z.swapaxes(0, 1)[:-1].reshape(-1, k * d)  # node-major storage, one node's rows after another
        _projector("sample-mean", grid.n_steps * n_blocks, None)(None)[0](nodes, nodes)
    return [a.reshape((n_blocks, n_paths) + a.shape[1:]) for a in (Y, Z, U, V)] + [conds]


def _weights(sol: BdsdeSolution) -> np.ndarray:
    """exp(lam t + mu A_t) at the nodes, with the lam and mu of the solve."""
    return np.exp(sol.constants.lam * sol.grid.nodes[None, :] + sol.constants.mu * sol.A)


def _trapezoid(v: np.ndarray, dx: np.ndarray) -> float:
    """E sum_i 0.5 (v_i + v_{i+1}) dx_i for v (n_paths, n_nodes) and increments dx: grid.dt for an M norm, dA for
    an M-bar norm.  The node sums run on a path-major copy, so their order of addition does not follow the layout
    of the solution arrays.  Halving is exact, so a term rounds (a + b) dx once, as np.trapezoid's dx (a + b) / 2."""
    return float(np.mean(np.sum(np.ascontiguousarray(0.5 * (v[:, :-1] + v[:, 1:]) * dx), axis=1)))


def weighted_norms(sol: BdsdeSolution) -> dict:
    """Monte-Carlo weighted norms with weight exp(lam*t + mu*A_t)."""
    w, dt, dA = _weights(sol), sol.grid.dt, sol.dA
    wy2, wz2, wu2, wv2 = (w * np.sum(q ** 2, axis=axes) for q, axes in
                          ((sol.Y, -1), (sol.Z, (-2, -1)), (sol.U, -1), (sol.V, -1)))
    return {
        "Y_M2": _trapezoid(wy2, dt),
        "Y_Mbar2": _trapezoid(wy2, dA),
        "Y_S2": float(np.mean(np.max(wy2, axis=1))),
        "Z_M2": _trapezoid(wz2, dt),
        "U_M2": _trapezoid(wu2, dt),
        "V_Mbar2": _trapezoid(wv2, dA),
    }


def penalization_diagnostics(sol: BdsdeSolution) -> dict:
    """Penalization energies of a solved run at its own eps, phi and psi:
    gradient energies, envelope integrals at the resolvent points, the
    weighted distance to the resolvent (sup over time of its expectation),
    and pointwise envelope expectations.  phi is integrated against dt, psi
    against dA, each from one resolvent; the two terms are then added."""
    eps = sol.config.eps
    if eps == 0.0:
        raise ValueError("penalization_diagnostics requires eps > 0")
    w, terms = _weights(sol), []
    for theta, dx in ((sol.phi, sol.grid.dt), (sol.psi, sol.dA)):
        j = prox(theta, eps, sol.Y)
        theta_j = theta.evaluate(j)  # the Yosida gradient (Y - j) / eps comes from the same resolvent
        terms.append((_trapezoid(w * np.sum(((sol.Y - j) / eps) ** 2, axis=-1), dx), _trapezoid(w * theta_j, dx),
                      np.sum((sol.Y - j) ** 2, axis=-1), theta_j))
    grad, envelope, dist, theta_j = (a + b for a, b in zip(*terms))
    return {
        "grad_energy": grad,
        "envelope_integral": envelope,
        "sup_resolvent_dist": float(np.max(np.mean(w * dist, axis=0))),
        "sup_envelope": float(np.max(np.mean(w * theta_j, axis=0))),
    }


@dataclass
class CauchyReport:
    eps_pairs: list
    gaps_sq: list      # weighted expected sup of the squared gap, per pair
    slope: float       # log(sup-gap) vs log(eps + delta) least-squares slope
    limit: BdsdeSolution


def _check_ladder(ladder):
    """ValueError unless every rung is finite and > 0 and the rungs strictly decrease, as eps goes to 0."""
    if not all(0.0 < b < a for a, b in zip([np.inf] + ladder, ladder)):  # a first rung below inf is finite
        raise ValueError(f"eps ladder must be finite, > 0 and strictly decreasing, got {ladder}")


def cauchy_study(
    coeffs: CoefficientSet,
    phi: ConvexFunction,
    psi: ConvexFunction,
    base_config: SolverConfig,
    eps_ladder,
    noise: PathBundle,
) -> CauchyReport:
    """Coupled-run convergence study along a decreasing eps ladder.

    All runs share the noise, the grid and the state.  Each rung runs
    base_config at its own eps; base_config must be explicit-yosida, the one
    scheme whose step uses eps (ValueError otherwise).  For consecutive
    (eps, delta) the weighted expected sup of the squared gap is estimated
    and the rate exponent is fitted as the slope of log(gap) vs
    log(eps + delta), where gap is the square root of the estimate, weighted
    with coeffs.constants.  A zero gap leaves no rate to fit:
    FloatingPointError.
    """
    ladder = [float(e) for e in eps_ladder]
    if len(ladder) < 2:
        raise ValueError("cauchy needs an eps_ladder with at least two entries")
    if base_config.scheme != "explicit-yosida":
        raise ValueError(f"cauchy runs the explicit-yosida scheme only, not {base_config.scheme!r}")
    _check_ladder(ladder)
    cfg = replace(base_config, eps=ladder[-1])

    def tile(a):  # a block of rows per rung: still a view of a shared draw's one row (path stride 0), else a copy
        return None if a is None else np.broadcast_to(a, (len(ladder),) + a.shape).reshape((-1,) + a.shape[1:])

    rungs = replace(noise, dW=tile(noise.dW), dB=tile(noise.dB), A=tile(noise.A), X=tile(noise.X))
    Y, Z, U, V, conds = _backward_sweep(coeffs, phi, psi, cfg, ladder, rungs)
    limit = BdsdeSolution(Y[-1], Z[-1], U[-1], V[-1], noise.A, cfg, coeffs.constants, phi, psi, conds)
    w = _weights(limit)
    pairs = list(zip(ladder, ladder[1:]))
    gaps = [float(np.mean(np.max(w * np.sum((ya - yb) ** 2, axis=-1), axis=1))) for ya, yb in zip(Y, Y[1:])]
    if min(gaps) == 0.0:
        a, b = pairs[gaps.index(0.0)]
        raise FloatingPointError(f"rungs eps = {a:g} and {b:g} give the same Y: no rate to fit")
    x = np.log([a + b for a, b in pairs])
    y = 0.5 * np.log(gaps)  # log of the unsquared weighted sup gap
    slope = float(np.polyfit(x, y, 1)[0])
    return CauchyReport(pairs, gaps, slope, limit)


def verify_vi_inclusion(sol: BdsdeSolution, test_points) -> dict:
    """Worst violation of the subgradient inequality

        <U_t, r - J_t> + phi(J_t) - phi(r) <= 0

    over nodes, paths and test points r, plus the dA-weighted analogue for
    (V, psi) restricted to nodes with positive dA, and counts of finiteness
    failures phi(J) = +inf (dt nodes) / psi(J) = +inf (dA nodes).

    J_t is the resolvent point at which the scheme puts U_t in dphi, since
    grad theta_eps(x) lies in dtheta(J_eps x).  It is rebuilt from the step
    input Ytil = Y + U dt + V dA (dt = dA = 0 at the terminal node):
    explicit-yosida audits U at J^phi_eps(Ytil) and V at
    J^psi_{eps+dA}(Y + V dA), implicit-prox U at J^phi_dt(Ytil) and V at Y.
    """
    Y, phi, psi = sol.Y, sol.phi, sol.psi
    dt = np.append(sol.grid.dt, 0.0)
    dA = np.pad(sol.dA, ((0, 0), (0, 1)))
    y_til = Y + sol.U * dt[:, None] + sol.V * dA[..., None]
    if sol.config.scheme == "explicit-yosida":
        j_phi, j_psi = prox(phi, sol.config.eps, y_til), prox(psi, sol.config.eps + dA, Y + sol.V * dA[..., None])
    else:
        j_phi, j_psi = prox(phi, dt, y_til), Y
    out = {}
    for name, theta, mult, j, rows in (("phi", phi, sol.U, j_phi, ...), ("psi", psi, sol.V, j_psi, dA > 0.0)):
        theta_j = theta.evaluate(j[rows])  # every node for phi, the nodes with dA > 0 for psi
        out[f"worst_{name}"] = (_subgradient_violation(theta, mult[rows], j[rows], theta_j, test_points)
                                if theta_j.size else -np.inf)
        out[f"{name}_infinite_nodes"] = int(np.sum(~np.isfinite(theta_j)))
    return out
