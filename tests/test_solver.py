import functools
import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bdsvi import (
    AssumptionConstants,
    CoefficientSet,
    ForwardModel,
    SolverConfig,
    TimeGrid,
    cauchy_study,
    generate_paths,
    make_convex,
    make_domain,
    penalization_diagnostics,
    prox,
    simulate_reflected,
    solve_penalized,
    unit_ball,
    verify_vi_inclusion,
    weighted_norms,
)
from bdsvi import solver as solver_module
from bdsvi.drivers import _node_major
from bdsvi.scenarios import make_coefficients
from bdsvi.solver import _poly_features, _projector
from projector_reference import per_node_projector

ZERO = make_convex("zero")
BM_ON_INTERVAL = ForwardModel(make_domain("interval", lo=-1.0, hi=1.0), 0.0, 1.0)  # reflected Brownian motion


def _coeffs(f=None, g=None, h=None, terminal=0.0, **const):
    return CoefficientSet(
        f=f or (lambda t, x, y, z: np.zeros_like(y)),
        g=g or (lambda t, x, y: np.zeros_like(y)),
        h=h or (lambda t, x, y, z: np.zeros(y.shape + (z.shape[-1],))),
        terminal=terminal,
        constants=AssumptionConstants(**const) if const else AssumptionConstants(),
    )


def _bundle(n_steps=100, n_paths=100, seed=0, a="zero", d=1):
    grid = TimeGrid.uniform(0, 1, n_steps)
    spec = {"zero": lambda t: np.zeros_like(np.asarray(t, float)),
            "time": lambda t: np.asarray(t, float)}[a]
    return grid, generate_paths(grid, d, n_paths, seed=seed, a_spec=spec)


# ---------------------------------------------------------------- exact reductions

def test_constant_terminal_zero_coeffs():
    grid, noise = _bundle()
    sol = solve_penalized(_coeffs(terminal=1.5), ZERO, ZERO, SolverConfig(grid), noise)
    assert np.allclose(sol.Y, 1.5)
    assert np.all(sol.U == 0.0) and np.all(sol.V == 0.0)


@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
@pytest.mark.parametrize("terminal", ["constant", "callable"])
def test_the_sweep_writes_the_terminal_value_bit_for_bit(scheme, terminal):
    """Y at the last node is xi itself, a constant or chi(X_T), under live
    f, g, h, phi and psi: the sweep owns terminal exactness, so no command
    re-checks it."""
    co = dict(f=lambda t, x, y, z: np.ones_like(y), g=lambda t, x, y: 0.5 * np.ones_like(y),
              h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3))
    if terminal == "constant":
        grid, noise = _bundle(n_steps=100, n_paths=40, seed=8, a="time")
        coeffs, regression, xi = _coeffs(**co, terminal=0.7), "sample-mean", np.full(40, 0.7)
    else:
        noise = _interval_ensemble()
        chi = lambda x: np.cos(3.0 * x[:, 0]) + x[:, 0] ** 2  # noqa: E731
        grid, coeffs, regression, xi = noise.grid, _coeffs(**co, terminal=chi), ("poly", 2), chi(noise.X[:, -1])
    config = SolverConfig(grid, eps=2e-2, scheme=scheme, regression=regression)
    sol = solve_penalized(coeffs, make_convex("indicator_box(-inf,0.5)"), make_convex("abs"), config, noise)
    assert np.ascontiguousarray(sol.Y[:, -1, 0]).tobytes() == xi.tobytes()
    assert np.any(sol.Y[:, 0, 0] != sol.Y[:, -1, 0])


def test_noise_on_another_grid_with_the_same_step_count_raises():
    """A bundle on [0, 4] under a solver grid on [0, 1] would sum dt over one
    horizon and dA over the other; the sweep compares the grid nodes."""
    noise = generate_paths(TimeGrid.uniform(0, 4, 10), 1, 5, seed=0, a_spec=lambda t: np.asarray(t, float))
    coeffs = _coeffs(f=lambda t, x, y, z: np.ones_like(y), g=lambda t, x, y: np.ones_like(y))
    with pytest.raises(ValueError, match="disagree"):
        solve_penalized(coeffs, ZERO, ZERO, SolverConfig(TimeGrid.uniform(0, 1, 10)), noise)


def test_constant_drift_matches_linear_profile():
    grid, noise = _bundle(a="time")
    coeffs = _coeffs(f=lambda t, x, y, z: 0.7 * np.ones_like(y),
                     g=lambda t, x, y: 0.3 * np.ones_like(y),
                     terminal=0.2)
    sol = solve_penalized(coeffs, ZERO, ZERO, SolverConfig(grid), noise)
    exact = 0.2 + (0.7 + 0.3) * (1.0 - grid.nodes)
    assert np.max(np.abs(sol.Y[:, :, 0] - exact)) < 1e-12


def test_backward_noise_pathwise_exact():
    # h constant: Y_i = xi + c * (B_T - B_i) path by path
    grid, noise = _bundle(n_paths=50, seed=4)
    c = 0.45
    coeffs = _coeffs(h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), c), terminal=1.0)
    sol = solve_penalized(coeffs, ZERO, ZERO, SolverConfig(grid), noise)
    B_rest = np.cumsum(noise.dB[:, ::-1, 0], axis=1)[:, ::-1]
    exact = 1.0 + c * np.concatenate([B_rest, np.zeros((50, 1))], axis=1)
    assert np.max(np.abs(sol.Y[:, :, 0] - exact)) < 1e-12


def test_schemes_agree_without_penalty():
    grid, noise = _bundle(n_paths=200, seed=9, a="time")
    coeffs = _coeffs(f=lambda t, x, y, z: -0.5 * y + 0.3,
                     g=lambda t, x, y: -0.2 * y,
                     h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.25),
                     terminal=1.5)
    se = solve_penalized(coeffs, ZERO, ZERO,
                         SolverConfig(grid, eps=1e-3, scheme="explicit-yosida"), noise)
    si = solve_penalized(coeffs, ZERO, ZERO,
                         SolverConfig(grid, eps=1e-3, scheme="implicit-prox"), noise)
    assert np.max(np.abs(se.Y - si.Y)) <= 1e-12
    assert np.max(np.abs(se.U)) == 0.0 and np.max(np.abs(si.V)) == 0.0


# ---------------------------------------------------------------- VI oracle

def _vi_coeffs(**const):
    return _coeffs(f=lambda t, x, y, z: np.ones_like(y), terminal=0.0, **const)


def _vi_limit_ode(eps, dt):
    """Independent scalar oracle for the penalized backward flow: drift step
    then penalization step, matching the solver's operator order.  The step
    is the resolvent of the envelope, y - dt grad phi_{eps+dt}(y)."""
    n = int(round(1.0 / dt))
    y = 0.0
    for _ in range(n):
        y_til = y + dt
        y = y_til - dt * max(y_til - 0.5, 0.0) / (eps + dt)
    return y


def test_vi_oracle_implicit_hits_barrier():
    grid, noise = _bundle(n_steps=1000, n_paths=4)
    phi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_vi_coeffs(), phi, ZERO,
                          SolverConfig(grid, eps=1e-4, scheme="implicit-prox"), noise)
    assert sol.Y[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert np.max(sol.Y) <= 0.5 + 1e-12


def test_vi_oracle_explicit_matches_ode():
    eps = 1e-2
    grid, noise = _bundle(n_steps=2000, n_paths=2)
    phi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_vi_coeffs(), phi, ZERO,
                          SolverConfig(grid, eps=eps, scheme="explicit-yosida"), noise)
    oracle = _vi_limit_ode(eps, 1.0 / 2000)
    assert sol.Y[0, 0, 0] == pytest.approx(oracle, abs=1e-10)
    # the analytic plateau of the penalized flow is 0.5 + eps * (1 - decay)
    assert abs(sol.Y[0, 0, 0] - (0.5 + eps)) < 2 * eps


def test_explicit_scheme_requires_positive_eps():
    grid, _ = _bundle(n_steps=10, n_paths=2)
    with pytest.raises(ValueError):
        SolverConfig(grid, eps=0.0, scheme="explicit-yosida")
    with pytest.raises(ValueError):
        SolverConfig(grid, scheme="magic")


@pytest.mark.parametrize("regression", ["sample_mean", "poly", ("poly",), ("foo", 2)],
                         ids=["sample_mean", "poly", "poly-alone", "foo-2"])
def test_solver_config_rejects_an_unknown_regression(regression):
    """Each was accepted here and failed only inside the solve."""
    with pytest.raises(ValueError, match="unknown regression"):
        SolverConfig(TimeGrid.uniform(0, 1, 10), regression=regression)
    for known in ("sample-mean", ("poly", 2), ("partition", 4)):
        assert SolverConfig(TimeGrid.uniform(0, 1, 10), regression=known).regression == known


def test_dA_penalization_uses_psi():
    # A = t makes dA act like dt: psi barrier at 0.5 caps the same flow
    grid, noise = _bundle(n_steps=1000, n_paths=2, a="time")
    psi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_vi_coeffs(), ZERO, psi,
                          SolverConfig(grid, eps=1e-4, scheme="implicit-prox"), noise)
    assert sol.Y[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert float(np.max(sol.V)) > 0.0
    assert np.all(sol.U == 0.0)


@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
def test_step_closes_with_recorded_multipliers(scheme):
    """Y_i = Ytil_i - U_i dt - V_i dA_i: U and V are the multipliers the step
    applied.  State-free sample-mean, so Ytil_i is the pathwise target
    Y_{i+1} + f dt + g dA + h dB at the right endpoint with the step's Z."""
    grid, noise = _bundle(n_steps=100, n_paths=50, seed=3, a="time")
    coeffs = _coeffs(f=lambda t, x, y, z: 1.0 - 0.5 * y + 0.2 * z[..., 0],
                     g=lambda t, x, y: 0.4 + 0.1 * y,
                     h=lambda t, x, y, z: 0.3 * y[..., None],
                     terminal=0.8)
    phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex("abs")
    sol = solve_penalized(coeffs, phi, psi, SolverConfig(grid, eps=0.05, scheme=scheme), noise)
    assert np.max(np.abs(sol.U[:, :-1])) > 0.1 and np.max(np.abs(sol.V[:, :-1])) > 0.1
    worst = 0.0
    for i in range(grid.n_steps):
        t, dt, da = grid.nodes[i + 1], grid.dt[i], sol.dA[:, i, None]
        y, z = sol.Y[:, i + 1], sol.Z[:, i]
        y_til = (y + coeffs.f(t, None, y, z) * dt + coeffs.g(t, None, y) * da
                 + np.einsum("pkd,pd->pk", coeffs.h(t, None, y, z), noise.dB[:, i]))
        worst = max(worst, float(np.max(np.abs(sol.Y[:, i] - (y_til - sol.U[:, i] * dt - sol.V[:, i] * da)))))
    assert worst <= 1e-12


def _interval_ensemble():
    """Reflected Brownian motion on [-1, 1] from 0: 150 paths, 100 steps, one
    shared backward draw; its local time increases on the boundary rows."""
    grid = TimeGrid.uniform(0, 1, 100)
    noise = generate_paths(grid, 1, 150, seed=5, shared_backward=True)
    return simulate_reflected(BM_ON_INTERVAL, np.zeros(1), noise)


def _resolvent_must_not_run(eps, x):
    raise AssertionError("the zero penalty's resolvent ran")


@pytest.mark.parametrize("pair", [("zero", "zero"), ("indicator_box(-inf,0.5)", "zero"), ("zero", "abs")], ids=str)
@pytest.mark.parametrize("regression", ["sample-mean", ("poly", 2), ("partition", 4)], ids=str)
@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
def test_zero_penalty_step_is_the_generic_step_bit_for_bit(scheme, regression, pair):
    """A zero penalty is resolved once per sweep: its resolvent never runs and
    its multiplier stays the allocated +0.0.  Y, Z, U and V have the bytes of
    the same zero function relabelled onto the generic step (sign of zero
    included), as do the condition numbers, on an ensemble with dA > 0."""
    f = lambda t, x, y, z: 1.0 - 0.5 * y + 0.2 * z[..., 0] + (0.0 if x is None else 0.1 * x)
    coeffs = _coeffs(f=f, g=lambda t, x, y: 0.4 + 0.1 * y, h=lambda t, x, y, z: 0.3 * y[..., None],
                     terminal=0.8 if regression == "sample-mean" else (lambda x: x[:, 0] ** 2))
    noise = _bundle(n_paths=50, seed=3, a="time")[1] if regression == "sample-mean" else _interval_ensemble()
    assert np.max(noise.dA) > 0.0
    config = SolverConfig(noise.grid, eps=0.05, scheme=scheme, regression=regression)
    fast, generic = [], []
    for name in pair:
        theta = make_convex(name)
        if name == "zero":
            theta = replace(theta, prox_oracle=_resolvent_must_not_run)
            generic.append(replace(ZERO, label="zero on the generic step"))
        else:
            generic.append(theta)
        fast.append(theta)
    a = solve_penalized(coeffs, *fast, config, noise)
    b = solve_penalized(coeffs, *generic, config, noise)
    for name in ("Y", "Z", "U", "V"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.condition_numbers == b.condition_numbers
    assert np.max(np.abs(a.Z)) > 0.0
    if pair != ("zero", "zero"):
        assert np.max(np.abs(a.U) + np.abs(a.V)) > 0.0  # the non-zero penalty acts


_KINDS = {"zero": {"kind": "zero"}, "constant": {"kind": "constant", "value": -0.7},
          "linear": {"kind": "linear", "a_y": -0.5, "c": 0.3},
          "linear-z": {"kind": "linear", "a_y": 0.2, "a_z": 0.4, "c": -0.1},
          "subnormal": {"kind": "constant", "value": -5e-324}}  # c dt underflows to -0.0


class _NeverCalled(solver_module._Affine):
    """A constant f, g or h, which the sweep resolves at set-up and must never call."""

    def __call__(self, *args):
        raise AssertionError("the sweep called a zero or constant coefficient")


@pytest.mark.parametrize("a_y, a_z, c", [(-0.5, 0.0, np.nan), (np.inf, 0.0, 0.3), (0.0, -np.inf, 0.0),
                                          (np.nan, 0.0, 0.0)])
def test_affine_coefficient_must_be_finite(a_y, a_z, c):
    """A nan c loaded and made a solve exit 3 while compat-check passed; an
    affine map now rejects a non-finite a_y, a_z or c where it is built."""
    with pytest.raises(ValueError, match="coefficient a_y, a_z and c must be finite"):
        solver_module._Affine(a_y, a_z, c, False)


@functools.lru_cache(maxsize=None)
def _coefficient_ensemble(sample_mean, d, n_paths, n_steps=30):
    """State-free paths with A = t^2, or a reflected ensemble (interval or
    disc) with one shared backward draw; dA > 0 on some rows in both."""
    grid = TimeGrid.uniform(0, 1, n_steps)
    if sample_mean:
        return generate_paths(grid, d, n_paths, seed=n_paths + d, a_spec=lambda t: np.asarray(t, float) ** 2)
    noise = generate_paths(grid, d, n_paths, seed=n_paths + d, shared_backward=True)
    domain = make_domain("interval", lo=-0.5, hi=0.5) if d == 1 else unit_ball(2, 0.5)
    return simulate_reflected(ForwardModel(domain, 0.0, 1.0), np.zeros(d), noise)


@pytest.mark.parametrize("kinds", [("zero",) * 3, ("constant",) * 3, ("linear",) * 3, ("linear-z",) * 3,
                                   ("constant", "zero", "zero"), ("zero", "constant", "zero"),
                                   ("linear-z", "zero", "constant"), ("callable", "zero", "zero"),
                                   ("subnormal", "zero", "zero")], ids="-".join)
@pytest.mark.parametrize("regression", ["sample-mean", ("poly", 2), ("partition", 4)], ids=str)
@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
def test_resolved_coefficients_are_the_generic_step_bit_for_bit(scheme, regression, kinds):
    """A constant f, g or h is resolved at set-up and never called (a
    nonzero constant h is built once, as _Affine builds it), and under
    sample-mean with no z read the Z fits run after the sweep.  Y, Z, U, V and the condition
    numbers have the bytes of the same maps wrapped in plain lambdas, which
    take the generic step; the terminal -0.0 checks the sign of zero that
    the skipped +0.0 terms give: the f of kind "callable", 0.5 y, a map the
    sweep cannot read, and the subnormal constant f both give a -0.0 f term
    at y = -0.0."""
    fast, generic = [], []
    for role, kind in zip("fgh", kinds):
        if kind == "callable":
            fast.append(lambda t, x, y, z: 0.5 * y)
            generic.append(fast[-1])
            continue
        spec = {key: v for key, v in _KINDS[kind].items() if role != "g" or key != "a_z"}
        m = make_coefficients({role: spec})["fgh".index(role)]
        called = "linear" in kind
        fast.append(m if called else _NeverCalled(m.a_y, m.a_z, m.c, m.noise))
        generic.append(lambda *args, m=m: m(*args))
    z_max = 0.0
    for d, n_paths, terminal in itertools.product((1, 2), (1, 9, 64), (0.8, -0.0)):
        noise = _coefficient_ensemble(regression == "sample-mean", d, n_paths)
        config = SolverConfig(noise.grid, eps=0.05, scheme=scheme, regression=regression)
        phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex("abs")
        a = solve_penalized(_coeffs(*fast, terminal=terminal), phi, psi, config, noise)
        b = solve_penalized(_coeffs(*generic, terminal=terminal), phi, psi, config, noise)
        for name in ("Y", "Z", "U", "V"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (name, d, n_paths, terminal)
        assert a.condition_numbers == b.condition_numbers
        z_max = max(z_max, float(np.max(np.abs(a.Z))))
    assert z_max > 0.0


def _reference_sweep(coeffs, phi, psi, config, noise):
    """Y, Z, U and V of the recursion in solve_penalized's docstring, one
    step after another on fresh arrays, in the order of operations of a step
    that writes nothing in place.  One ensemble; sample-mean fits are path
    means, a state regression is the solver's own projector.  No multiplier
    is written at the terminal node, and V only on the rows with dA > 0,
    where a step applies it; on the others the explicit step's unmasked
    gradient would give Y the same bytes, as j - grad * 0 = j."""
    grid, X, n, d = config.grid, noise.X, noise.n_paths, noise.d
    dA = np.maximum(noise.dA, 0.0)
    explicit, e_row = config.scheme == "explicit-yosida", np.full(n, config.eps)
    terminal = coeffs.terminal
    xi = terminal(X[:, -1]).reshape(n, 1) if callable(terminal) else np.full((n, 1), float(terminal))
    Y, U, V = (np.zeros((n, grid.n_steps + 1, 1)) for _ in range(3))
    Z = np.zeros((n, grid.n_steps + 1, 1, d))
    Y[:, -1] = xi
    for i in range(grid.n_steps - 1, -1, -1):
        dt, t, da = grid.dt[i], grid.nodes[i + 1], dA[:, i, None]
        x, y = (None if X is None else X[:, i + 1]), Y[:, i + 1]
        if X is None:
            fit = lambda a: np.broadcast_to(np.mean(a, axis=0), a.shape)
        else:
            project = _projector(config.regression, 1, X[:, i].shape)(X[:, i])[0]
            fit = lambda a: project(a, np.empty_like(a))
        z = fit((y[:, :, None] * noise.dW[:, i, None, :] / dt).reshape(n, d)).reshape(n, 1, d)
        target = y + coeffs.f(t, x, y, z) * dt
        target = target + coeffs.g(t, x, y) * da
        target = target + np.einsum("pkd,pd->pk", coeffs.h(t, x, y, z), noise.dB[:, i])
        y_til = target if X is None else fit(target)
        if explicit:
            e = e_row + dt
            u = (y_til - prox(phi, e, y_til)) / e[:, None]
            j = y_til - u * dt
            e = e_row + da[:, 0]
            grad = (j - prox(psi, e, j)) / e[:, None]
            v = np.where(da > 0.0, grad, 0.0)
            y_i = j - v * da
            assert y_i.tobytes() == (j - grad * da).tobytes()
        else:
            j = prox(phi, dt, y_til)
            u = (y_til - j) / dt
            y_i = prox(psi, da[:, 0], j)
            v = np.divide(j - y_i, da, out=np.zeros_like(j), where=da > 0.0)
        Y[:, i], Z[:, i], U[:, i], V[:, i] = y_i, z, u, v
    return {"Y": Y, "Z": Z, "U": U, "V": V}


@pytest.mark.parametrize("psi", ["abs", "indicator_box(-inf,0.3)"])
@pytest.mark.parametrize("regression", ["sample-mean", ("poly", 2)], ids=str)
@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
@pytest.mark.parametrize("n_steps", [30, 63, 64, 65, 129])
def test_step_with_both_penalties_moving_is_the_reference_bit_for_bit(scheme, regression, psi, n_steps):
    """With phi = indicator_box(-inf,0.5) and a moving psi the sweep writes
    Ytil, the phi step and the psi step into Y[:, i], U[:, i] and V[:, i] in
    place.  Y, Z, U and V have the bytes of the plain per-step recursion, on
    ensembles with dA > 0 on some rows (and dA = 0 on others for the
    reflected one), where both penalties act, on grids of 30 to 129 steps.
    Under either scheme U_T = V_T = 0, and V is 0 on the rows with dA = 0."""
    sample_mean = regression == "sample-mean"
    noise = _coefficient_ensemble(sample_mean, 1, 64, n_steps)
    coeffs = _coeffs(f=lambda t, x, y, z: 1.0 - 0.5 * y + 0.2 * z[..., 0], g=lambda t, x, y: 0.4 + 0.1 * y,
                     h=lambda t, x, y, z: 0.3 * y[..., None],
                     terminal=0.8 if sample_mean else (lambda x: x[:, 0] ** 2 + 0.4))
    assert np.max(noise.dA) > 0.0 and (sample_mean or np.min(noise.dA) == 0.0)
    phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex(psi)
    config = SolverConfig(noise.grid, eps=0.05, scheme=scheme, regression=regression)
    sol = solve_penalized(coeffs, phi, psi, config, noise)
    ref = _reference_sweep(coeffs, phi, psi, config, noise)
    for name in ("Y", "Z", "U", "V"):
        assert getattr(sol, name).tobytes() == ref[name].tobytes(), name
    assert not np.any(sol.U[:, -1]) and not np.any(sol.V[:, -1]) and not np.any(sol.V[:, :-1, 0][sol.dA == 0.0])
    assert np.min(np.abs(sol.U[:, :-1])) == 0.0 < np.max(np.abs(sol.U))  # phi binds on some rows only
    assert np.max(np.abs(sol.V[:, :-1])) > 0.0


@pytest.mark.parametrize("name", ["dW", "dB", "shared dB"])
def test_non_finite_increment_raises_at_set_up(name):
    """A NaN in dW or dB is an error before the first step, even where no
    step would read it: with f constant and h = 0 a NaN in dW would leave
    Y finite and Z partly NaN.  A shared dB is checked on its one row."""
    grid = TimeGrid.uniform(0, 1, 20)
    noise = generate_paths(grid, 1, 10, seed=0, shared_backward=name == "shared dB")
    key = name.split()[-1]
    bad = np.array(getattr(noise, key)[:1] if name == "shared dB" else getattr(noise, key))
    bad[3 if name != "shared dB" else 0, 7] = np.nan
    noise = replace(noise, **{key: np.broadcast_to(bad, noise.dB.shape) if name == "shared dB" else bad})
    coeffs = _coeffs(*make_coefficients({"f": {"kind": "constant", "value": 1.0}}), terminal=0.0)
    with pytest.raises(ValueError, match=f"{key} increments must be finite"):
        solve_penalized(coeffs, ZERO, ZERO, SolverConfig(grid), noise)


@pytest.mark.parametrize("value", [-1e-9, np.nan, np.inf], ids=["decrease", "nan", "inf"])
def test_bad_dA_of_a_hand_built_bundle_raises_at_set_up(value):
    """generate_paths and simulate_reflected build a finite, nondecreasing A;
    a bundle built by hand whose A falls or is not finite fails before the
    first step."""
    grid, noise = _bundle(n_steps=20, n_paths=10)
    A = np.array(noise.A)
    A[3, 8] = value
    with pytest.raises(ValueError, match="dA increments must be finite and >= 0"):
        solve_penalized(_coeffs(), ZERO, ZERO, SolverConfig(grid), replace(noise, A=A))


# ---------------------------------------------------------------- cauchy

def test_cauchy_slope_near_one():
    grid = TimeGrid.uniform(0, 1, 4000)
    noise = generate_paths(grid, 1, 2, seed=1,
                           a_spec=lambda t: np.zeros_like(np.asarray(t, float)))
    phi = make_convex("indicator_box(-inf,0.5)")
    rep = cauchy_study(_vi_coeffs(lam=0.0, mu=0.0), phi, ZERO,
                       SolverConfig(grid, eps=1e-1, scheme="explicit-yosida"), [1e-1, 1e-2, 1e-3], noise)
    assert 0.75 <= rep.slope <= 1.25
    assert all(g2 > g1 for g1, g2 in zip(rep.gaps_sq[1:], rep.gaps_sq[:-1]))


def test_cauchy_runs_the_explicit_scheme_only():
    """The ladder study varies the eps of the explicit step; an implicit-prox
    config is an error, not silently replaced."""
    grid, noise = _bundle(n_steps=10, n_paths=2)
    phi = make_convex("indicator_box(-inf,0.5)")
    with pytest.raises(ValueError, match="explicit-yosida scheme only, not 'implicit-prox'"):
        cauchy_study(_vi_coeffs(), phi, ZERO, SolverConfig(grid), [1e-1, 1e-2], noise)


def test_cauchy_validates_ladder():
    grid, noise = _bundle(n_steps=10, n_paths=2)
    phi = make_convex("indicator_box(-inf,0.5)")
    with pytest.raises(ValueError):
        cauchy_study(_vi_coeffs(), phi, ZERO, SolverConfig(grid, scheme="explicit-yosida"), [1e-1], noise)
    with pytest.raises(ValueError):
        cauchy_study(_vi_coeffs(), phi, ZERO, SolverConfig(grid, scheme="explicit-yosida"), [1e-2, 1e-1], noise)



@pytest.mark.parametrize("seed", [41, 42])
def test_penalization_rate_follows_h_on_the_barrier(seed):
    """The table of the hypothesis behind the penalization rate: f = 1, phi
    the barrier y <= 0.5, psi = 0, xi = 0, no A and no weight, 64 paths on
    2000 steps.  Where h vanishes on the barrier the Cauchy slope is one
    and U_M2 stays bounded from eps 1e-2 to 1e-3; with h = 0.3 the slope is
    near 1/2 and U_M2 grows like eps^(-1/2) (sqrt(10) over that decade); an
    h of 0.03 on the barrier falls in between.  The bands were set before
    the run."""
    grid = TimeGrid.uniform(0, 1, 2000)
    noise = generate_paths(grid, 1, 64, seed=seed)  # A = 0
    phi, config = make_convex("indicator_box(-inf,0.5)"), SolverConfig(grid, scheme="explicit-yosida")
    rows = {"0": {"kind": "zero"}, "0.3": {"kind": "constant", "value": 0.3},
            "0.3(y-0.5)": {"kind": "linear", "a_y": 0.3, "c": -0.15},
            "0.3(y-0.5)+0.03": {"kind": "linear", "a_y": 0.3, "c": -0.12}}
    slope, ratio = {}, {}
    for name, h in rows.items():
        f, g, h = make_coefficients({"f": {"kind": "constant", "value": 1.0}, "h": h})
        coeffs = CoefficientSet(f, g, h, 0.0, AssumptionConstants(lam=0.0, mu=0.0))
        slope[name] = cauchy_study(coeffs, phi, ZERO, config, [1e-1, 1e-2, 1e-3], noise).slope
        u_m2 = [weighted_norms(solve_penalized(coeffs, phi, ZERO, replace(config, eps=e), noise))["U_M2"]
                for e in (1e-2, 1e-3)]
        ratio[name] = u_m2[1] / u_m2[0]
    for name in ("0", "0.3(y-0.5)"):
        assert 0.75 <= slope[name] <= 1.25 and ratio[name] <= 1.5, (name, slope[name], ratio[name])
    assert 0.3 <= slope["0.3"] <= 0.7 and ratio["0.3"] >= 2.5, (slope["0.3"], ratio["0.3"])
    assert slope["0.3"] < slope["0.3(y-0.5)+0.03"] < slope["0.3(y-0.5)"], slope


_BOUNDARY_PSI = make_convex("indicator_box(-inf,0.5)")


def _boundary_problem(seed, n_paths, h, regression):
    """The boundary side of the penalization: reflected Brownian motion on
    [-1, 1] from 0.9 on 200 steps, phi = 0, psi the barrier y <= 0.5, g = 1,
    which pushes Y up on the boundary, f = 0, xi = 0 and no weight.  Returns
    the noise and solve(config) on it."""
    grid = TimeGrid.uniform(0, 1, 200)
    noise = simulate_reflected(BM_ON_INTERVAL, np.array([0.9]),
                               generate_paths(grid, 1, n_paths, seed=seed, shared_backward=True))
    f, g, h = make_coefficients({"g": {"kind": "constant", "value": 1.0}, "h": h})
    coeffs = CoefficientSet(f, g, h, 0.0, AssumptionConstants(lam=0.0, mu=0.0))

    def solve(scheme, eps):
        config = SolverConfig(grid, eps=eps, scheme=scheme, regression=regression)
        return solve_penalized(coeffs, ZERO, _BOUNDARY_PSI, config, noise)
    return coeffs, noise, solve


_BOUNDARY_LADDER = [1e-1, 1e-2, 1e-3, 1e-4]


@pytest.mark.parametrize("h", [{"kind": "zero"}, {"kind": "constant", "value": 0.3}], ids=["h=0", "h=0.3"])
@pytest.mark.parametrize("seed", [33, 34])
def test_boundary_penalization_rate_is_one_half(seed, h):
    """On the boundary side the rate is 1/2 whatever h is: the explicit psi
    step's gap on a boundary row is eps / (eps + dA_i) times the overshoot,
    and the local time puts many rows at dA_i below eps.  (a) The Cauchy
    slope of the ladder 1e-1 ... 1e-4 and (b) the slope in eps of
    sqrt(E sup_t |Y^eps - Y^impl|^2), the explicit ladder's distance to the
    implicit solve on the same noise, both lie in [0.35, 0.65]; the band was
    set before the run.  poly 2, 500 paths.  The ensemble shares one
    backward draw, which shifts every path alike under h = 0.3; the barrier
    must bind on it (seed 31 keeps Y below 0.5 there, and every rung gives
    the same Y)."""
    coeffs, noise, solve = _boundary_problem(seed, 500, h, ("poly", 2))
    y_impl = solve("implicit-prox", 0.0).Y
    sols = [solve("explicit-yosida", e) for e in _BOUNDARY_LADDER]
    assert np.max(sols[0].V) > 0.0  # the barrier binds
    gaps = [np.sqrt(np.mean(np.max(np.sum((sol.Y - y_impl) ** 2, axis=-1), axis=1))) for sol in sols]
    config = SolverConfig(noise.grid, scheme="explicit-yosida", regression=("poly", 2))
    cauchy = cauchy_study(coeffs, ZERO, _BOUNDARY_PSI, config, _BOUNDARY_LADDER, noise).slope
    limit = float(np.polyfit(np.log(_BOUNDARY_LADDER), np.log(gaps), 1)[0])
    assert 0.35 <= cauchy <= 0.65 and 0.35 <= limit <= 0.65, (cauchy, limit, gaps)


def test_boundary_energy_rises_towards_the_implicit_solve():
    """In the pairing the step applies, V_i over dA_i, the boundary
    multiplier's energy V_Mbar2 = E sum_i |V_i|^2 dA_i is nondecreasing
    along the explicit ladder 1e-1 ... 1e-4 and stays below the implicit
    solve's value on the same noise, as the bounded energies of the
    penalization argument need.  Bounds set before the run; partition 4,
    1000 paths.  A trapezoid that read V_{i+1} against dA_i, and V written
    on rows with dA = 0, read 95.8 and 8.8e3 at 1e-3 and 1e-4 against an
    implicit 55.4 on this problem."""
    _, noise, solve = _boundary_problem(13, 1000, {"kind": "zero"}, ("partition", 4))
    energy = [weighted_norms(solve("explicit-yosida", e))["V_Mbar2"] for e in _BOUNDARY_LADDER]
    implicit = weighted_norms(solve("implicit-prox", 0.0))["V_Mbar2"]
    assert all(a <= b for a, b in zip(energy, energy[1:])) and energy[-1] < implicit, (energy, implicit)


def test_a_terminal_outside_dom_phi_is_not_a_multiplier_fault():
    """chi = x^2 from 0.8 puts Y_T above the barrier 0.5 on some paths.  No
    step ran at the terminal node, so the audit does not read it: phi's
    worst violation is finite, with no infinite node."""
    grid = TimeGrid.uniform(0, 1, 100)
    noise = simulate_reflected(BM_ON_INTERVAL, np.array([0.8]),
                               generate_paths(grid, 1, 60, seed=33, shared_backward=True))
    config = SolverConfig(grid, eps=1e-3, scheme="implicit-prox", regression=("poly", 2))
    sol = solve_penalized(_coeffs(terminal=lambda x: x[:, 0] ** 2), make_convex("indicator_box(-inf,0.5)"), ZERO,
                          config, noise)
    assert np.any(sol.Y[:, -1] > 0.5) and np.max(sol.U) > 0.0
    out = verify_vi_inclusion(sol, [-1.0, 0.0, 0.25, 0.5])
    assert out["worst_phi"] <= 1e-12 and out["phi_infinite_nodes"] == 0, out


def _per_rung_study(coeffs, phi, psi, grid, regression, ladder, noise, lam, mu):
    """The ladder study as one solve_penalized per rung."""
    sols = [solve_penalized(coeffs, phi, psi,
                            SolverConfig(grid, eps=e, scheme="explicit-yosida", regression=regression),
                            noise) for e in ladder]
    w = np.exp(lam * grid.nodes[None, :] + mu * sols[0].A)
    gaps = [float(np.mean(np.max(w * np.sum((a.Y - b.Y) ** 2, axis=-1), axis=1)))
            for a, b in zip(sols, sols[1:])]
    x = np.log([a + b for a, b in zip(ladder, ladder[1:])])
    return sols[-1], gaps, float(np.polyfit(x, 0.5 * np.log(gaps), 1)[0])


def _assert_batched_ladder_matches(coeffs, phi, psi, grid, regression, noise):
    ladder = [1e-1, 1e-2, 5e-3]
    rep = cauchy_study(coeffs, phi, psi, SolverConfig(grid, scheme="explicit-yosida", regression=regression),
                       ladder, noise)
    limit, gaps, slope = _per_rung_study(coeffs, phi, psi, grid, regression, ladder, noise,
                                         coeffs.constants.lam, coeffs.constants.mu)
    assert (coeffs.constants.lam, coeffs.constants.mu) == (3.0, 1.5)
    assert rep.eps_pairs == [(1e-1, 1e-2), (1e-2, 5e-3)]
    assert rep.gaps_sq == gaps
    assert rep.slope == slope
    for name in ("Y", "Z", "U", "V", "dA"):
        assert np.array_equal(getattr(rep.limit, name), getattr(limit, name)), name
    assert rep.limit.condition_numbers == limit.condition_numbers
    assert rep.limit.config.eps == 5e-3 and rep.limit.config.scheme == "explicit-yosida"


def test_batched_ladder_matches_per_rung_solves_state_free():
    grid, noise = _bundle(n_steps=400, n_paths=6, seed=4, a="time")
    coeffs = _coeffs(f=lambda t, x, y, z: np.ones_like(y),
                     g=lambda t, x, y: np.full_like(y, 0.2),
                     h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3))
    _assert_batched_ladder_matches(coeffs, make_convex("indicator_box(-inf,0.5)"), make_convex("abs"),
                                   grid, "sample-mean", noise)


@pytest.mark.parametrize("regression", [("poly", 2), ("partition", 4)])
def test_batched_ladder_matches_per_rung_solves_reflected(regression):
    grid = TimeGrid.uniform(0, 1, 200)
    noise = generate_paths(grid, 1, 150, seed=5, shared_backward=True)
    state = simulate_reflected(BM_ON_INTERVAL, np.zeros(1), noise)
    coeffs = _coeffs(f=lambda t, x, y, z: 1.0 - 0.5 * y + 0.1 * x,
                     g=lambda t, x, y: np.full_like(y, 0.1),
                     terminal=lambda x: x[:, 0] ** 2)
    _assert_batched_ladder_matches(coeffs, make_convex("indicator_box(-inf,0.5)"), make_convex("abs"),
                                   grid, regression, state)


def test_cauchy_keeps_a_shared_dB_as_one_broadcast_row(monkeypatch):
    """The rungs read one broadcast dB row, not a copy per path and rung, and the
    report equals that of the same ensemble with dB written out in full."""
    grid = TimeGrid.uniform(0, 1, 200)
    noise = generate_paths(grid, 1, 150, seed=5, shared_backward=True)
    state = simulate_reflected(BM_ON_INTERVAL, np.zeros(1), noise)
    assert state.dB.strides[0] == 0
    coeffs = _coeffs(f=lambda t, x, y, z: 1.0 - 0.5 * y + 0.1 * x,
                     g=lambda t, x, y: np.full_like(y, 0.1),
                     h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3),
                     terminal=lambda x: x[:, 0] ** 2)
    phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex("abs")
    config = SolverConfig(grid, scheme="explicit-yosida", regression=("poly", 2))
    ladder = [1e-1, 1e-2, 5e-3]
    seen = []
    sweep = solver_module._backward_sweep
    monkeypatch.setattr(solver_module, "_backward_sweep",
                        lambda *args: seen.append(args[-1]) or sweep(*args))
    shared = cauchy_study(coeffs, phi, psi, config, ladder, state)
    tiled = cauchy_study(coeffs, phi, psi, config, ladder, replace(state, dB=np.array(state.dB)))
    assert seen[0].dB.shape == (3 * 150, 200, 1) and seen[0].dB.strides[0] == 0
    assert seen[1].dB.strides[0] != 0
    assert shared.eps_pairs == tiled.eps_pairs and shared.gaps_sq == tiled.gaps_sq
    assert shared.slope == tiled.slope
    for name in ("Y", "Z", "U", "V", "A"):
        assert getattr(shared.limit, name).tobytes() == getattr(tiled.limit, name).tobytes(), name
    assert shared.limit.condition_numbers == tiled.limit.condition_numbers


def test_cauchy_with_equal_rungs_has_no_rate_to_fit():
    """With phi = psi = zero every rung gives the same Y, so every gap is 0."""
    grid, noise = _bundle(n_steps=50, n_paths=2)
    with pytest.raises(FloatingPointError, match="same Y: no rate to fit"):
        cauchy_study(_vi_coeffs(), ZERO, ZERO, SolverConfig(grid, scheme="explicit-yosida"),
                     [1e-1, 1e-2], noise)


@pytest.mark.parametrize("regression, d, message", [
    (("poly", -1), 1, "poly degree must be a whole number >= 0, got -1"),
    (("poly", 2.5), 1, "poly degree must be a whole number >= 0, got 2.5"),
    (("partition", 0), 1, r"cells must be m\*\*1 for a whole m >= 1, got 0"),
    (("partition", 2), 2, r"cells must be m\*\*2 for a whole m >= 1, got 2"),
    (("partition", 3), 2, r"cells must be m\*\*2 for a whole m >= 1, got 3")])
def test_regression_count_the_projector_would_change_raises(regression, d, message):
    """A degree below 0 fitted a constant, a fractional one was truncated,
    and a cell count that is not m**d was rounded to one that is; m**d
    cells run."""
    grid = TimeGrid.uniform(0, 1, 10)
    noise = generate_paths(grid, d, 20, seed=1, shared_backward=True)
    state = simulate_reflected(ForwardModel(unit_ball(d), 0.0, 1.0), np.zeros(d), noise)
    coeffs = _coeffs(terminal=lambda x: x[:, 0] ** 2)
    with pytest.raises(ValueError, match=message):
        solve_penalized(coeffs, ZERO, ZERO, SolverConfig(grid, regression=regression), state)
    solve_penalized(coeffs, ZERO, ZERO, SolverConfig(grid, regression=("partition", 2 ** d)), state)


def _fit(project, targets):
    """The estimator's fit of targets, written into a new array."""
    return project(targets, np.empty_like(targets))


def test_regressor_projects_each_block_on_its_own():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (3 * 40, 1))  # each block has its own state rows
    targets = rng.normal(size=(3 * 40, 2))
    for spec in ("sample-mean", ("poly", 2), ("partition", 4)):
        out = _fit(_projector(spec, 3, x.shape)(x)[0], targets)
        for b in range(3):
            rows = slice(40 * b, 40 * (b + 1))
            alone = _fit(_projector(spec, 1, x[rows].shape)(x[rows])[0], targets[rows])
            assert np.array_equal(out[rows], alone)


@pytest.mark.parametrize("blocks", [1, 3, 5])
def test_sample_mean_projector_is_np_mean_bit_for_bit(blocks):
    """The sample-mean fit, written as the sweep writes Z into one node of a
    node-major array, or in place over its targets, is each block's np.mean."""
    rng = np.random.default_rng(blocks)
    project = _projector("sample-mean", blocks, None)(None)[0]
    for n in (1, 2, 7, 8, 9, 17, 128, 129, 2000):
        for m in (1, 2):
            targets = rng.normal(size=(blocks * n, m)) * rng.uniform(0.1, 1e3, size=(blocks * n, 1))
            node = _node_major(blocks * n, 3, m)[:, 1]
            assert project(targets, node) is node
            in_place = targets.copy()
            project(in_place, in_place)
            for b in range(blocks):
                rows = slice(n * b, n * (b + 1))
                mean = np.broadcast_to(np.mean(targets[rows], axis=0), (n, m))
                assert np.array_equal(node[rows], mean) and np.array_equal(in_place[rows], mean)


def _blows_up(t, x, y, z):
    return np.full_like(y, np.inf if t > 0.5 else 1.0)


@pytest.mark.parametrize("run", ["explicit", "implicit", "ladder", "explicit-phi-overflows"])
def test_non_finite_value_in_sweep_raises(run):
    """A value that turns non-finite during the sweep raises
    FloatingPointError (exit code 3 in the CLI, a numerical failure rather
    than bad input), whichever scheme or study runs it.  With psi = zero the
    run raises at the step where the generic psi step, run on the same zero
    function relabelled, raises."""
    grid, noise = _bundle(n_steps=100, n_paths=4)
    phi = make_convex("indicator_box(-inf,0.5)")
    coeffs = _coeffs(f=_blows_up)
    explicit = SolverConfig(grid, eps=2e-2, scheme="explicit-yosida")
    runs = {
        "explicit": lambda psi: solve_penalized(coeffs, phi, psi, explicit, noise),
        "implicit": lambda psi: solve_penalized(coeffs, phi, psi, SolverConfig(grid), noise),
        "ladder": lambda psi: cauchy_study(coeffs, phi, psi, SolverConfig(grid, scheme="explicit-yosida"),
                                           [1e-1, 2e-2], noise),
        # Ytil = 1e308 is finite, but grad phi_{eps+dt}(Ytil) = a Ytil / (1 + (eps + dt) a) is not: the
        # value turns non-finite in the phi step, and the step's own check raises
        "explicit-phi-overflows": lambda psi: solve_penalized(_coeffs(terminal=1e308), make_convex("quadratic(1e3)"),
                                                              psi, explicit, noise),
    }
    raised = []
    for psi in (ZERO, replace(ZERO, label="zero on the generic step")):
        with pytest.raises(FloatingPointError, match="non-finite Y at step") as caught, np.errstate(all="ignore"):
            runs[run](psi)
        raised.append(str(caught.value))
    assert raised[0] == raised[1]


def _fault_case(case):
    """A solve that turns non-finite or overflows: an interior inf from f under
    the explicit scheme, the implicit scheme with a box that maps it to a
    finite Y (with the closed-form and with the lattice-oracle resolvent) and
    with no penalty; a value that grows until f overflows; an f whose every
    call overflows or underflows to a finite value; and an implicit phi step
    whose multiplier U overflows while Y stays finite."""
    grid, noise = _bundle(n_steps=100, n_paths=4)
    box = make_convex("indicator_box(-inf,0.5)")
    explicit, implicit = SolverConfig(grid, eps=2e-2, scheme="explicit-yosida"), SolverConfig(grid)
    if case == "u-overflow":  # the vi_oracle scenario with phi = quadratic(1000) and terminal 1e306
        grid, noise = _bundle(n_steps=300, n_paths=8)
        coeffs = _coeffs(*make_coefficients({"f": {"kind": "constant", "value": 1.0}}), terminal=1e306)
        return solve_penalized(coeffs, make_convex("quadratic(1000.0)"), ZERO, SolverConfig(grid, eps=1e-4), noise)
    if case == "overflow-growth":  # Y doubles each step from 1e285 until 100 y overflows
        coeffs = _coeffs(f=lambda t, x, y, z: 100.0 * y, terminal=1e285)
        return solve_penalized(coeffs, make_convex("quadratic(1.0)"), make_convex("abs"), explicit, noise)
    if case in ("overflow-in-finite-f", "underflow-in-finite-f"):  # an FP event at every step, all values finite
        big = case == "overflow-in-finite-f"
        f = lambda t, x, y, z: np.minimum(np.full_like(y, 1e308 if big else 1e-300) * (10.0 if big else 1e-100), 1.0)
        return solve_penalized(_coeffs(f=f), box, ZERO, explicit, noise)
    phi, config = {"explicit-inf": (box, explicit), "implicit-box-inf": (box, implicit),
                   "lattice-oracle-inf": (replace(box, prox_oracle=None), implicit),
                   "no-penalty-inf": (ZERO, implicit)}[case]
    f = lambda t, x, y, z: np.full_like(y, np.inf if t < 0.455 else 1.0)  # from step 44 down
    return solve_penalized(_coeffs(f=f), phi, ZERO, config, noise)


_ERRSTATES = {"default": dict(divide="warn", over="warn", under="ignore", invalid="warn"),
              "ignore": dict(all="ignore"), "raise": dict(all="raise")}


def _fault_record(case, errstate):
    """(exception type, message, RuntimeWarning messages) of a fault case."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**_ERRSTATES[errstate]):
        warnings.simplefilter("always")
        try:
            _fault_case(case)
            raised = (None, None)
        except Exception as exc:
            raised = (type(exc).__name__, str(exc))
    return raised + (tuple(str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)),)


_OVER_MUL = "overflow encountered in multiply"
_NON_FINITE_44 = ("FloatingPointError", "non-finite Y at step 44", ())


@pytest.mark.parametrize("errstate", list(_ERRSTATES))
@pytest.mark.parametrize("case, expected", [
    ("explicit-inf", dict.fromkeys(_ERRSTATES, _NON_FINITE_44)),
    ("implicit-box-inf", dict.fromkeys(_ERRSTATES, _NON_FINITE_44)),
    ("lattice-oracle-inf", dict.fromkeys(_ERRSTATES, _NON_FINITE_44)),
    ("no-penalty-inf", dict.fromkeys(_ERRSTATES, _NON_FINITE_44)),
    ("overflow-growth", {"default": ("FloatingPointError", "non-finite Y at step 27", (_OVER_MUL,)),
                         "ignore": ("FloatingPointError", "non-finite Y at step 27", ()),
                         "raise": ("FloatingPointError", _OVER_MUL, ())}),
    ("overflow-in-finite-f", {"default": (None, None, (_OVER_MUL,) * 100), "ignore": (None, None, ()),
                              "raise": ("FloatingPointError", _OVER_MUL, ())}),
    ("underflow-in-finite-f", {"default": (None, None, ()), "ignore": (None, None, ()),
                               "raise": ("FloatingPointError", "underflow encountered in multiply", ())}),
    # a sweep that checked Y only returned the inf U here, with exit 0 in the CLI
    ("u-overflow", {"default": ("FloatingPointError", "non-finite U at step 299", ("overflow encountered in divide",)),
                    "ignore": ("FloatingPointError", "non-finite U at step 299", ()),
                    "raise": ("FloatingPointError", "overflow encountered in divide", ())}),
])
def test_a_fault_raises_and_warns_as_the_per_step_sweep(case, expected, errstate):
    """Each fault case gives the exception type, the message with its step
    index and the list of RuntimeWarnings of a sweep that checks every step,
    under numpy's default, an ignoring and a raising errstate."""
    assert _fault_record(case, errstate) == expected[errstate]


@pytest.mark.parametrize("penalty", ["phi", "psi"])
def test_a_non_finite_multiplier_with_a_finite_y_raises(penalty):
    """An implicit resolvent step of quadratic(1000) from 1e306 over dt = dA = 1/300
    keeps Y finite, but its multiplier (Ytil - J) / dt overflows: the sweep
    raises naming U (phi) or V (psi) and the step."""
    grid, noise = _bundle(n_steps=300, n_paths=8, a="time")
    steep = make_convex("quadratic(1000.0)")
    phi, psi = (steep, ZERO) if penalty == "phi" else (ZERO, steep)
    coeffs = _coeffs(*make_coefficients({"f": {"kind": "constant", "value": 1.0}}), terminal=1e306)
    name = "U" if penalty == "phi" else "V"
    with pytest.raises(FloatingPointError, match=f"non-finite {name} at step 299$"), np.errstate(all="ignore"):
        solve_penalized(coeffs, phi, psi, SolverConfig(grid, eps=1e-4), noise)


@pytest.mark.parametrize("step", [0, 63, 64, 128])
@pytest.mark.parametrize("phi, scheme", [("zero", "implicit-prox"), ("indicator_box(-inf,0.5)", "implicit-prox"),
                                         ("indicator_box(-inf,0.5)", "explicit-yosida")])
def test_a_fault_at_one_step_names_that_step(step, phi, scheme):
    """An inf from f at one step of a 129-step grid, at its first and last
    step and at steps in between, raises at that step, also where the box
    maps it to a finite Y."""
    grid, noise = _bundle(n_steps=129, n_paths=4)
    t_fault = grid.nodes[step + 1]  # f is taken at the right endpoint
    coeffs = _coeffs(f=lambda t, x, y, z: np.full_like(y, np.inf if t == t_fault else 1.0))
    config = SolverConfig(grid, eps=2e-2, scheme=scheme)
    with pytest.raises(FloatingPointError, match=f"non-finite Y at step {step}$"), np.errstate(all="ignore"):
        solve_penalized(coeffs, make_convex(phi), ZERO, config, noise)


def test_a_sweep_that_runs_again_checked_returns_what_an_unchecked_one_does():
    """An f whose every call overflows to a finite value: under numpy's
    default errstate the unchecked pass records the overflow, so the sweep
    runs again checked from the terminal node and emits one warning per
    step; under over="ignore" nothing is recorded and the first pass stands.
    Both give the same bytes of Y, Z, U and V and the same condition
    numbers, one per step."""
    noise = _coefficient_ensemble(False, 1, 200, 130)
    f = lambda t, x, y, z: np.minimum(np.full_like(y, 1e308) * 10.0, 1.0)
    coeffs = _coeffs(f=f, terminal=lambda x: x[:, 0] ** 2 + 0.4)
    config = SolverConfig(noise.grid, regression=("poly", 2))
    solve = functools.partial(solve_penalized, coeffs, make_convex("indicator_box(-inf,0.5)"), ZERO, config, noise)
    with warnings.catch_warnings(record=True) as caught, np.errstate(**_ERRSTATES["default"]):
        warnings.simplefilter("always")
        again = solve()
    assert [str(w.message) for w in caught] == [_OVER_MUL] * 130
    with warnings.catch_warnings(record=True) as caught, np.errstate(**_ERRSTATES["default"] | {"over": "ignore"}):
        warnings.simplefilter("always")
        once = solve()
    assert caught == []
    for name in ("Y", "Z", "U", "V"):
        assert getattr(again, name).tobytes() == getattr(once, name).tobytes(), name
    assert len(once.condition_numbers) == 130 and again.condition_numbers == once.condition_numbers

# ---------------------------------------------------------------- diagnostics

def test_weighted_norms_constant_solution():
    grid, noise = _bundle(n_paths=10)
    sol = solve_penalized(_coeffs(terminal=2.0, lam=0.0, mu=0.0), ZERO, ZERO, SolverConfig(grid), noise)
    norms = weighted_norms(sol)
    assert norms["Y_M2"] == pytest.approx(4.0)       # |Y|^2 * T
    assert norms["Y_S2"] == pytest.approx(4.0)
    assert norms["Y_Mbar2"] == 0.0                    # A = 0
    # Z is the cross-path Monte-Carlo estimate of E[Y dW]/dt = 0; its norm is
    # pure estimator noise of scale |Y|^2 * n_steps / n_paths
    assert norms["Z_M2"] < 10 * 4.0 * grid.n_steps / noise.n_paths


def test_weighted_norms_with_weight_and_a():
    grid, noise = _bundle(n_paths=5, a="time")
    sol = solve_penalized(_coeffs(terminal=1.0, lam=1.0, mu=0.0), ZERO, ZERO, SolverConfig(grid), noise)
    norms = weighted_norms(sol)
    # the left-point sum of int_0^1 e^t dt on 100 steps: dt (e - 1) / (e^dt - 1), in the pairing the sweep applies
    dt = grid.dt[0]
    left_point = dt * (np.e - 1.0) / np.expm1(dt)
    assert norms["Y_M2"] == pytest.approx(left_point, rel=1e-12)
    norms2 = weighted_norms(replace(sol, constants=AssumptionConstants(lam=0.0, mu=1.0)))
    assert norms2["Y_Mbar2"] == pytest.approx(left_point, rel=1e-12)


def test_penalization_diagnostics_unconstrained_run_is_zero():
    grid, noise = _bundle(n_paths=5)
    phi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_coeffs(terminal=0.2, lam=0.0, mu=0.0), phi, ZERO,
                          SolverConfig(grid, eps=1e-3), noise)
    d = penalization_diagnostics(sol)
    assert d["sup_resolvent_dist"] == 0.0
    assert d["grad_energy"] == 0.0


def test_vi_inclusion_on_oracle_run():
    grid, noise = _bundle(n_steps=1000, n_paths=4)
    phi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_vi_coeffs(), phi, ZERO,
                          SolverConfig(grid, eps=1e-4, scheme="implicit-prox"), noise)
    out = verify_vi_inclusion(sol, [-1.0, 0.0, 0.25, 0.5])
    assert out["worst_phi"] <= 1e-10
    assert out["phi_infinite_nodes"] == 0


def test_the_analysis_reads_its_problem_from_the_solve():
    """A solve and a ladder study's limit record the constants, phi and psi
    they ran with; the norms, energies and audit read them, and eps from the
    config, so energies at eps = 0 are a ValueError."""
    grid, noise = _bundle(n_steps=50, n_paths=4, a="time")
    phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex("abs")
    coeffs = _vi_coeffs(lam=1.0, mu=0.5)
    sol = solve_penalized(coeffs, phi, psi, SolverConfig(grid, eps=2e-2), noise)
    ladder = cauchy_study(coeffs, phi, psi, SolverConfig(grid, scheme="explicit-yosida"), [1e-1, 5e-2, 2e-2], noise)
    for s in (sol, ladder.limit):
        assert s.constants is coeffs.constants and s.phi is phi and s.psi is psi
    w = np.exp(1.0 * grid.nodes[None, :] + 0.5 * sol.A)
    assert weighted_norms(sol)["Y_S2"] == float(np.mean(np.max(w * np.sum(sol.Y ** 2, axis=-1), axis=1)))
    dist = np.sum((sol.Y - prox(phi, 2e-2, sol.Y)) ** 2 + (sol.Y - prox(psi, 2e-2, sol.Y)) ** 2, axis=-1)
    assert penalization_diagnostics(sol)["sup_resolvent_dist"] == float(np.max(np.mean(w * dist, axis=0)))
    with pytest.raises(ValueError, match="requires eps > 0"):
        penalization_diagnostics(replace(sol, config=replace(sol.config, eps=0.0)))


def _two_kernel_analysis(sol, test_points):
    """weighted_norms and penalization_diagnostics written out as left-point
    step sums E sum_{i<n} w_i q_i dx_i, one path's sum after another, with a
    phi and a psi copy of the resolvent work, and verify_vi_inclusion as a
    phi block and a psi block over the n step nodes: the reference of the
    one-kernel, one-loop form.  Node i is read with step i, the step that
    wrote it; the sups read every node."""
    w = np.exp(sol.constants.lam * sol.grid.nodes[None, :] + sol.constants.mu * sol.A)
    dt, dA, eps, Y = sol.grid.dt, sol.dA, sol.config.eps, sol.Y

    def step_sum(q, dx):
        dx = np.broadcast_to(dx, dA.shape)
        return float(np.mean([np.sum(w[p, :-1] * q[p, :-1] * dx[p]) for p in range(len(q))]))

    y2, z2 = np.sum(Y ** 2, axis=-1), np.sum(sol.Z ** 2, axis=(-2, -1))
    u2, v2 = np.sum(sol.U ** 2, axis=-1), np.sum(sol.V ** 2, axis=-1)
    norms = {"Y_M2": step_sum(y2, dt), "Y_Mbar2": step_sum(y2, dA), "Y_S2": float(np.mean(np.max(w * y2, axis=1))),
             "Z_M2": step_sum(z2, dt), "U_M2": step_sum(u2, dt), "V_Mbar2": step_sum(v2, dA)}
    j_phi, j_psi = prox(sol.phi, eps, Y), prox(sol.psi, eps, Y)
    gp2, gq2 = np.sum(((Y - j_phi) / eps) ** 2, axis=-1), np.sum(((Y - j_psi) / eps) ** 2, axis=-1)
    phi_j, psi_j = sol.phi.evaluate(j_phi), sol.psi.evaluate(j_psi)
    dist = np.sum((Y - j_phi) ** 2, axis=-1) + np.sum((Y - j_psi) ** 2, axis=-1)
    diag = {"grad_energy": step_sum(gp2, dt) + step_sum(gq2, dA),
            "envelope_integral": step_sum(phi_j, dt) + step_sum(psi_j, dA),
            "sup_resolvent_dist": float(np.max(np.mean(w * dist, axis=0))),
            "sup_envelope": float(np.max(np.mean(w * (phi_j + psi_j), axis=0)))}

    def violation(theta, u, j, theta_j):
        worst = -np.inf
        for r in test_points:
            r = np.atleast_1d(np.asarray(r, dtype=float))
            worst = max(worst, float(np.max(np.sum(u * (r - j), axis=-1) + theta_j - float(theta.evaluate(r)))))
        return worst

    Y, U, V = Y[:, :-1], sol.U[:, :-1], sol.V[:, :-1]
    y_til = Y + U * dt[:, None] + V * dA[..., None]
    if sol.config.scheme == "explicit-yosida":
        j_phi, j_psi = prox(sol.phi, eps + dt, y_til), prox(sol.psi, eps + dA, Y + V * dA[..., None])
    else:
        j_phi, j_psi = prox(sol.phi, dt, y_til), Y
    phi_j, psi_j, active = sol.phi.evaluate(j_phi), sol.psi.evaluate(j_psi), dA > 0.0
    audit = {"worst_phi": violation(sol.phi, U, j_phi, phi_j),
             "worst_psi": (violation(sol.psi, V[active], j_psi[active], psi_j[active])
                           if np.any(active) else -np.inf),
             "phi_infinite_nodes": int(np.sum(~np.isfinite(phi_j))),
             "psi_infinite_nodes": int(np.sum(~np.isfinite(psi_j[active])))}
    return norms, diag, audit


@pytest.mark.parametrize("scheme, a", [("explicit-yosida", "time"), ("implicit-prox", "time"),
                                      ("implicit-prox", "reflected"), ("implicit-prox", "zero")])
def test_one_kernel_analysis_keeps_the_bits_of_two(scheme, a):
    """One step-sum kernel over increments (grid.dt or dA) and one loop over
    (phi, dt) and (psi, dA) give the values of the written-out left-point
    sums and the two copies bit for bit, the sign of zero included, for
    node-major and path-major solution arrays alike (the sups' path means
    add in the order of the layout, and are held on the sweep's node-major
    arrays).  So does the audit's
    one loop over (phi, U, every step node) and (psi, V, the step nodes with
    dA > 0), at report's points, -inf included where no dA is active.  psi
    is not zero, so the dA terms carry work; A is t, a local time that
    differs by path, or identically 0.  In the reflected case chi = x^2
    leaves Y_T outside Dom phi on some paths, and the audit reads it
    nowhere: no infinite phi node."""
    phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex("abs")
    coeffs = _coeffs(f=lambda t, x, y, z: np.ones_like(y), g=lambda t, x, y: 0.5 * np.ones_like(y),
                     h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3), terminal=0.2, lam=1.0, mu=0.5)
    grid, regression = TimeGrid.uniform(0, 1, 100), "sample-mean"
    if a == "reflected":  # the local time of reflected Brownian motion on [-1, 1] from 0.8
        noise = simulate_reflected(BM_ON_INTERVAL, np.array([0.8]),
                                   generate_paths(grid, 1, 40, seed=3, shared_backward=True))
        coeffs, regression = replace(coeffs, terminal=lambda x: x[:, 0] ** 2), ("poly", 2)
    else:
        noise = _bundle(n_steps=100, n_paths=40, seed=3, a=a)[1]
    sol = solve_penalized(coeffs, phi, psi, SolverConfig(grid, eps=2e-2, scheme=scheme, regression=regression), noise)
    assert (np.max(sol.A) == 0.0) == (a == "zero") and np.max(sol.U) > 0.0
    assert a == "zero" or np.max(np.abs(sol.V)) > 0.0
    assert (a == "reflected") == bool(np.any(sol.Y[:, -1] > 0.5))
    points = (-1.0, 0.0, 0.25, 0.5)
    norms, diag, audit = _two_kernel_analysis(sol, points)
    assert (audit["worst_psi"] == -np.inf) == (a == "zero") and audit["phi_infinite_nodes"] == 0
    path_major = replace(sol, **{q: np.ascontiguousarray(getattr(sol, q)) for q in ("Y", "Z", "U", "V", "A")})
    assert not sol.Y.flags.c_contiguous and path_major.Y.flags.c_contiguous
    for s in (sol, path_major):
        for got, ref in ((weighted_norms(s), norms), (penalization_diagnostics(s), diag),
                         (verify_vi_inclusion(s, points), audit)):
            assert got.keys() == ref.keys()
            for key in ref if s is sol else set(ref) - {"sup_resolvent_dist", "sup_envelope"}:
                assert np.float64(got[key]).tobytes() == np.float64(ref[key]).tobytes(), (key, got[key], ref[key])


@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
def test_vi_inclusion_at_the_resolvent_point(scheme):
    """U and V are both active.  The explicit Y lies outside Dom psi by
    O(eps), where psi(Y) = +inf, and the implicit U belongs to the phi
    resolvent, not to the psi resolvent Y.  The audit takes each multiplier
    at the resolvent point where the scheme puts it in the subdifferential."""
    grid, noise = _bundle(n_steps=200, n_paths=8, seed=5, a="time")
    phi, psi = make_convex("abs"), make_convex("indicator_box(-inf,0.3)")
    coeffs = _coeffs(f=lambda t, x, y, z: np.ones_like(y), g=lambda t, x, y: np.ones_like(y),
                     h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3))
    sol = solve_penalized(coeffs, phi, psi, SolverConfig(grid, eps=1e-2, scheme=scheme), noise)
    assert np.max(sol.U) > 0.0 and np.max(sol.V) > 0.0
    out = verify_vi_inclusion(sol, [-1.0, 0.0, 0.25, 0.3, 0.5])
    assert out["phi_infinite_nodes"] == 0 and out["psi_infinite_nodes"] == 0
    assert out["worst_phi"] <= 1e-12 and out["worst_psi"] <= 1e-12


@pytest.mark.parametrize("phi", ["abs", "quadratic(1.0)"])
@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
def test_vi_inclusion_takes_scalar_points_in_dimension_k(scheme, phi):
    """At k = 2 a scalar audit point v is the point (v, v) of both theta(r)
    and <U, r - J>.  theta was taken at the 1-vector (v,) while the product
    broadcast r to (v, v), so a solve whose U lies in dphi(J) read a
    violation of 0.5 for abs and 0.125 for quadratic(1.0).  The scalar
    points now read what np.full(2, v) reads."""
    grid, noise = _bundle(n_steps=100, n_paths=4)
    coeffs = _coeffs(f=lambda t, x, y, z: np.ones_like(y), terminal=np.zeros(2))
    sol = solve_penalized(coeffs, make_convex(phi), ZERO, SolverConfig(grid, eps=0.05, scheme=scheme), noise)
    assert sol.Y.shape[-1] == 2 and np.max(np.abs(sol.U)) > 0.5
    values = (-1.0, 0.0, 0.25, 0.5)
    scalar, full = verify_vi_inclusion(sol, values), verify_vi_inclusion(sol, [np.full(2, v) for v in values])
    assert scalar == full
    assert scalar["worst_phi"] <= 1e-8


@functools.lru_cache(maxsize=1)
def _disc_ensemble():
    """Reflected Brownian motion in the unit disc from (0.3, 0): 2000 paths,
    200 steps, one shared backward draw."""
    grid = TimeGrid.uniform(0, 1, 200)
    noise = generate_paths(grid, 2, 2000, seed=5, shared_backward=True)
    return simulate_reflected(ForwardModel(unit_ball(2), 0.0, 1.0), np.array([0.3, 0.0]), noise)


# one rounding slack, fixed before any run: 64 ulp of the O(1) values |x|^2 <= 1
_ROUNDING_SLACK = 64 * np.finfo(float).eps


def _gap_of_two_solves(scheme, psi, regression, **fgh):
    """Y - Y' of two solves on the disc ensemble with terminals |x|^2 and
    |x|^2 + 1e-3 cos(3 x_0), phi = indicator_box(-inf,0.5) and eps 1e-2, at
    which dA >> eps on the boundary rows."""
    state = _disc_ensemble()
    cfg = SolverConfig(state.grid, eps=1e-2, scheme=scheme, regression=regression)
    quad = lambda x: np.sum(x * x, axis=-1)
    Ys = [solve_penalized(_coeffs(terminal=chi, **fgh), make_convex("indicator_box(-inf,0.5)"),
                          make_convex(psi), cfg, state).Y[..., 0]
          for chi in (quad, lambda x: quad(x) + 1e-3 * np.cos(3.0 * x[:, 0]))]
    assert np.max(state.dA) > 10 * cfg.eps
    return state, Ys[0] - Ys[1]


def _l2(a):
    """The empirical L2 norm over paths, per node."""
    return np.sqrt(np.mean(a ** 2, axis=0))


@pytest.mark.parametrize("regression", [("poly", 2), ("poly", 3), ("partition", 9)], ids=str)
@pytest.mark.parametrize("psi", ["indicator_box(-inf,0.5)", "abs"])
@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
def test_backward_step_never_widens_the_gap(scheme, psi, regression):
    """Two solves on one noise with f = g = h = 0.  The fit is an orthogonal
    projection in the empirical norm and each penalty step a resolvent, so
    the empirical L2 gap |Y_i - Y'_i| never exceeds |Y_{i+1} - Y'_{i+1}|
    (Pardoux and Rascanu's a-priori estimate in discrete form)."""
    gap = _l2(_gap_of_two_solves(scheme, psi, regression)[1])
    assert gap[-1] > 1e-4
    excess = gap[:-1] - gap[1:]
    assert np.max(excess) <= _ROUNDING_SLACK, (np.max(gap[:-1] / gap[1:]), np.max(excess))


@pytest.mark.parametrize("regression", [("poly", 2), ("poly", 3), ("partition", 9)], ids=str)
@pytest.mark.parametrize("psi", ["indicator_box(-inf,0.5)", "abs"])
@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
def test_affine_step_bound(scheme, psi, regression):
    """The two solves under f = -0.5y + 0.4 sum z + 0.3, g = 0.2y - 0.1 and
    h = 0.3y + 0.1 sum z + 0.1.  The target's gap is m_i dY_{i+1} plus
    c_i P[dY_{i+1} sum_j dW_{i,j}], with m_i = 1 + a_y^f dt + a_y^g dA_i +
    a_y^h sum_j dB_{i,j} per row and c_i = a_z^f + a_z^h sum_j dB_{i,j} / dt,
    one number per step since every path shares the B draw.  The fit P is an
    orthogonal projection in the empirical norm and each penalty step
    nonexpansive, so |dY_i| <= |m_i dY_{i+1}| + |c_i| |dY_{i+1} sum_j dW_{i,j}|."""
    f, g, h = make_coefficients({"f": {"kind": "linear", "a_y": -0.5, "a_z": 0.4, "c": 0.3},
                                 "g": {"kind": "linear", "a_y": 0.2, "c": -0.1},
                                 "h": {"kind": "linear", "a_y": 0.3, "a_z": 0.1, "c": 0.1}})
    state, dY = _gap_of_two_solves(scheme, psi, regression, f=f, g=g, h=h)
    assert np.ptp(state.dB, axis=0).max() == 0.0 and _l2(dY)[-1] > 1e-4  # one B draw for every path
    sum_db, sum_dw, dt = state.dB[0].sum(axis=-1), state.dW.sum(axis=-1), state.grid.dt
    m = 1.0 - 0.5 * dt + 0.2 * state.dA + 0.3 * sum_db
    c = 0.4 + 0.1 * sum_db / dt
    excess = _l2(dY[:, :-1]) - (_l2(m * dY[:, 1:]) + np.abs(c) * _l2(dY[:, 1:] * sum_dw))
    assert np.max(excess) <= _ROUNDING_SLACK, np.max(excess)


_AFFINE = {"f": {"kind": "linear", "a_y": -0.5, "c": 0.3}, "g": {"kind": "linear", "a_y": 0.2, "c": -0.1},
           "h": {"kind": "linear", "a_y": 0.3, "c": 0.1}}
# test_affine_step_bound's triple with f's a_z (0.4) or h's: at h's 0.1 there, m_i + c_i sum_j dW_{i,j} falls
# to -0.55 on 206 of the disc ensemble's 400000 rows, outside comparison's hypothesis; at 0.05 its min is 0.25
_COMPARISON_SETS = {"f-a_z": {**_AFFINE, "f": {**_AFFINE["f"], "a_z": 0.4}},
                    "h-a_z": {**_AFFINE, "h": {**_AFFINE["h"], "a_z": 0.05}}}


def _row_multipliers(state, co):
    """m_i + c_i sum_j dW_{i,j} on every row and step, with test_affine_step_bound's m_i and c_i for the
    coefficient section co: the factor by which the fitted target carries the gap of Y_{i+1}."""
    coef = lambda role, key: co.get(role, {}).get(key, 0.0)
    sum_db, dt = state.dB.sum(axis=-1), state.grid.dt
    m = 1.0 + coef("f", "a_y") * dt + coef("g", "a_y") * state.dA + coef("h", "a_y") * sum_db
    return m + (coef("f", "a_z") + coef("h", "a_z") * sum_db / dt) * state.dW.sum(axis=-1)


def _ordered_solves(state, cos, scheme, psi, regression, terminals):
    """Y' - Y of two solves on one noise, phi = indicator_box(-inf,0.5) and eps 1e-2: Y under the coefficient
    section cos[0] and terminal terminals[0], Y' under cos[1] and terminals[1]."""
    cfg = SolverConfig(state.grid, eps=1e-2, scheme=scheme, regression=regression)
    Y, Y2 = (solve_penalized(_coeffs(*make_coefficients(co), terminal=chi), make_convex("indicator_box(-inf,0.5)"),
                             make_convex(psi), cfg, state).Y[..., 0] for co, chi in zip(cos, terminals))
    return Y2 - Y


def _raised(role, by):
    """_AFFINE with the constant c of one coefficient raised: a larger f, or a larger g on the boundary rows."""
    return {**_AFFINE, role: {**_AFFINE[role], "c": _AFFINE[role]["c"] + by}}


_QUAD = lambda x: np.sum(x * x, axis=-1)
_BUMPED = lambda x: _QUAD(x) + 0.05 * (1.0 + np.cos(3.0 * x[:, 0]))
# id: the coefficient sections of Y and Y', their terminals, and the least terminal gap Y'_T - Y_T
_ORDERED_DATA = {**{key: ((co, co), (_QUAD, _BUMPED), 5e-4) for key, co in _COMPARISON_SETS.items()},
                 "f-plus": ((_AFFINE, _raised("f", 0.05)), (_QUAD, _QUAD), 0.0),
                 "g-plus": ((_AFFINE, _raised("g", 0.05)), (_QUAD, _QUAD), 0.0)}


@pytest.mark.parametrize("data", sorted(_ORDERED_DATA))
@pytest.mark.parametrize("scheme, psi", [("explicit-yosida", "indicator_box(-inf,0.5)"), ("implicit-prox", "abs")])
def test_ordered_terminals_give_ordered_solutions(scheme, psi, data):
    """Comparison (Shi, Gu and Liu 2005) in discrete form: on the disc
    ensemble, ordered data give Y <= Y' at every node and path.  The data
    are terminals |x|^2 <= |x|^2 + 0.05 (1 + cos 3 x_0), at least 5e-4 apart
    on the disc, under f's or h's a_z; or equal terminals |x|^2 with f' = f +
    0.05, or with g' = g + 0.05, which acts on the boundary rows through dA.
    A step keeps the order when the fit has nonnegative weights (partition's
    cell means do), every row's multiplier m_i + c_i sum_j dW_{i,j} is >= 0
    (checked first, for both coefficient sections, on the run's own
    increments) and each penalty step is nondecreasing (a resolvent in one
    dimension, of the penalty or of its envelope).  Some entry's gap is
    strictly positive, so the order is not that of equal solutions."""
    state, (cos, terminals, least) = _disc_ensemble(), _ORDERED_DATA[data]
    assert min(np.min(_row_multipliers(state, co)) for co in cos) >= 0.0
    gap = _ordered_solves(state, cos, scheme, psi, ("partition", 9), terminals)
    assert np.min(gap[:, -1]) >= least
    assert np.min(gap) >= -_ROUNDING_SLACK, np.min(gap)
    assert np.max(gap) > 0.0


@pytest.mark.parametrize("scheme", ["explicit-yosida", "implicit-prox"])
def test_ordered_constant_terminals_give_ordered_solutions_under_sample_mean(scheme):
    """The state-free form: sample-mean's value update is pathwise, so with
    a_z = 0 a row keeps the order when m_i >= 0.  Constant terminals 0.4 <=
    0.45 give Y <= Y' at every node and path."""
    state = _bundle(n_steps=200, n_paths=500, seed=4, a="time")[1]
    assert np.min(_row_multipliers(state, _AFFINE)) >= 0.0
    gap = _ordered_solves(state, (_AFFINE, _AFFINE), scheme, "abs", "sample-mean", (0.4, 0.45))
    assert np.min(gap[:, -1]) >= 0.05 - _ROUNDING_SLACK
    assert np.min(gap) >= -_ROUNDING_SLACK, np.min(gap)


# ---------------------------------------------------------------- regression backends

def test_sample_mean_projects_z_targets():
    project, cond = _projector("sample-mean", 1, None)(None)
    out = _fit(project, np.array([[1.0], [3.0]]))
    assert np.allclose(out, 2.0)
    assert cond is None


def test_poly_regression_recovers_linear_map():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4000, 1))
    targets = (2.0 * x[:, 0] + 1.0 + 0.01 * rng.normal(size=4000))[:, None]
    project, cond = _projector(("poly", 1), 1, x.shape)(x)
    out = _fit(project, targets)
    assert np.max(np.abs(out[:, 0] - (2.0 * x[:, 0] + 1.0))) < 0.01
    assert cond is not None


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_poly_features_match_the_per_column_products(d, degree):
    """The one-pass design equals, bit for bit, its columns built one by one
    as products 1 * x_a * x_b * ... taken left to right, for one ensemble
    and for stacked blocks, and is a (..., p) array for svd either way."""
    x = np.random.default_rng(10 * d + degree).normal(size=(3, 50, d)) * 1e3

    def loop(x):
        cols = [np.ones(x.shape[:-1])]
        for deg in range(1, degree + 1):
            for combo in itertools.combinations_with_replacement(range(d), deg):
                col = np.ones(x.shape[:-1])
                for j in combo:
                    col = col * x[..., j]
                cols.append(col)
        return np.stack(cols, axis=-1)

    for pts in (x, x[0]):
        ref = loop(pts)
        out = _poly_features(d, degree)[0](pts)
        assert out.shape == ref.shape and np.array_equal(out, ref)
        assert all(np.array_equal(a, b) for a, b in zip(np.linalg.svd(out, full_matrices=False),
                                                         np.linalg.svd(ref, full_matrices=False)))


def test_poly_projector_matches_lstsq_per_block():
    """The stacked SVD projector equals a per-block lstsq fit, on a
    well-conditioned design and on a start node where every row of a block
    sits at one point (there the fit is the block mean), and it is idempotent."""
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.uniform(-1, 1, (2 * 300, 2)), np.tile([0.3, -0.2], (300, 1))])
    targets = rng.normal(size=(3 * 300, 3))
    project, cond = _projector(("poly", 2), 3, x.shape)(x)
    out = _fit(project, targets)
    conds = []
    for b in range(3):
        rows = slice(300 * b, 300 * (b + 1))
        phi = _poly_features(2, 2)[0](x[rows])
        coef, _, _, sv = np.linalg.lstsq(phi, targets[rows], rcond=None)
        assert np.max(np.abs(out[rows] - phi @ coef)) < 1e-12
        conds.append(sv[0] / sv[-1] if sv[-1] > 0 else np.inf)
    assert np.max(np.abs(out[600:] - np.mean(targets[600:], axis=0))) < 1e-12
    assert max(conds[:2]) < 1e3 and conds[2] > 1e12 and cond > 1e12  # huge or inf at the start node
    assert _projector(("poly", 2), 2, (600, 2))(x[:600])[1] == pytest.approx(max(conds[:2]), rel=1e-10)
    assert np.max(np.abs(_fit(project, out) - out)) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("spec", [("poly", k) for k in range(4)] + [("partition", c) for c in (1, 4, 9)],
                         ids=lambda spec: f"{spec[0]}-{spec[1]}")
def test_planned_projector_matches_the_per_node_projector_byte_for_byte(d, spec):
    """One plan per block count, each fitted at three nodes, gives the bytes of
    the per-node projector it replaced: each fit, written into a new array
    and in place, and cond.  The nodes stack 1-3 blocks of spread states, of
    one point (a rank-deficient poly design, and every partition row in one
    cell) and of lopsided states (half at one point for d = 1, x_1 = x_2 for
    d = 2: a rank-deficient design, and empty cells), each kind first in turn."""
    rng = np.random.default_rng(10 * d + len(spec[0]) + spec[1])
    n = 60
    lopsided = (np.where(rng.random((n, 1)) < 0.5, 0.25, rng.uniform(-1, 1, (n, 1))) if d == 1
                else np.repeat(rng.uniform(-1, 1, (n, 1)), 2, axis=1))
    kinds = [rng.uniform(-1, 1, (n, d)), np.tile(rng.uniform(-1, 1, d), (n, 1)), lopsided]
    conds = []
    for blocks in (1, 2, 3):
        plan = _projector(spec, blocks, (blocks * n, d))
        for first in range(3):
            x = np.concatenate([kinds[(first + b) % 3] for b in range(blocks)])
            project, cond = plan(x)
            ref_project, ref_cond = per_node_projector(spec, x, blocks)
            assert np.float64(cond).tobytes() == np.float64(ref_cond).tobytes()
            conds.append(cond)
            for m in (1, 3):
                targets = rng.normal(size=(blocks * n, m))
                assert _fit(project, targets).tobytes() == _fit(ref_project, targets).tobytes()
                in_place, ref_in_place = targets.copy(), targets.copy()
                assert project(in_place, in_place) is in_place
                ref_project(ref_in_place, ref_in_place)
                assert in_place.tobytes() == ref_in_place.tobytes()
    if spec in (("poly", 0), ("partition", 1)):  # the constant column alone
        assert set(conds) == {1.0}
    else:  # a degenerate block was fitted: an empty cell's cond is inf
        assert max(conds) == np.inf if spec[0] == "partition" else max(conds) > 1e12


def test_partition_regression_piecewise_means():
    x = np.linspace(-1, 1, 1000)[:, None]
    targets = np.where(x[:, 0] > 0, 1.0, -1.0)[:, None]
    out = _fit(_projector(("partition", 2), 1, x.shape)(x)[0], targets)
    assert np.max(np.abs(out - targets)) < 1e-12


def _cell_means(x, targets, cells):
    """Per-cell np.mean of targets (n, m) over the quantile cells of one
    block's states x (n, d), and whether a cell is empty."""
    n, d = x.shape
    per_dim = max(1, int(round(cells ** (1.0 / d))))
    ids = np.zeros(n, dtype=int)
    for j in range(d):
        cuts = np.quantile(x[:, j], np.linspace(0, 1, per_dim + 1)[1:-1])
        ids = ids * per_dim + np.searchsorted(cuts, x[:, j], side="left")  # cuts strictly below x
    out = np.empty_like(targets)
    for c in np.unique(ids):
        out[ids == c] = np.mean(targets[ids == c], axis=0)
    return out, np.unique(ids).size < per_dim ** d


@pytest.mark.parametrize("d", [1, 2])
def test_partition_projector_is_the_per_cell_mean(d):
    """Least squares on the cell indicators is each cell's mean, for three
    stacked blocks: spread states, tied states, and states that leave a cell
    empty, where the condition number is inf."""
    rng = np.random.default_rng(d)
    n = 90
    spread = rng.uniform(-1, 1, (n, d))
    tied = rng.integers(0, 3, (n, d)) / 2.0
    if d == 1:
        lopsided = np.full((n, 1), 0.25)  # one point: every row in the first cell
    else:
        lopsided = np.repeat(rng.uniform(-1, 1, (n, 1)), 2, axis=1)  # x_1 = x_2: the off-diagonal cells are empty
    x = np.concatenate([spread, tied, lopsided])
    targets = rng.normal(size=(3 * n, 3))
    project, cond = _projector(("partition", 4), 3, x.shape)(x)
    out = _fit(project, targets)
    empty = []
    for b in range(3):
        rows = slice(n * b, n * (b + 1))
        ref, has_empty = _cell_means(x[rows], targets[rows], 4)
        assert np.max(np.abs(out[rows] - ref)) < 1e-12, b
        empty.append(has_empty)
    assert isinstance(cond, float)
    assert empty[2] and cond == np.inf
    spread_cond = _projector(("partition", 4), 1, spread.shape)(spread)[1]
    assert not empty[0] and np.isfinite(spread_cond)


def test_state_regression_requires_state():
    """poly regresses on the state X: on a state-free bundle the sweep
    indexed X[:, i] on None (TypeError); its set-up names the rule."""
    grid, noise = _bundle(n_steps=10, n_paths=8)
    with pytest.raises(ValueError, match="regression poly needs a state"):
        solve_penalized(_coeffs(), ZERO, ZERO, SolverConfig(grid, regression=("poly", 2)), noise)


def test_sample_mean_rejects_state_dependent_data():
    """The pathwise value update of sample-mean holds only for state-free
    data.  On a reflected ensemble it used to return a Y_0 that spread across
    paths where the true Y_0 is deterministic."""
    grid = TimeGrid.uniform(0, 1, 50)
    noise = generate_paths(grid, 2, 200, seed=3, shared_backward=True)
    state = simulate_reflected(ForwardModel(unit_ball(2), 0.0, 1.0), np.zeros(2), noise)
    cfg = SolverConfig(grid, regression="sample-mean")
    with pytest.raises(ValueError, match="sample-mean"):
        solve_penalized(_coeffs(g=lambda t, x, y: np.full_like(y, 0.1)), ZERO, ZERO, cfg, state)
    with pytest.raises(ValueError, match="sample-mean"):
        solve_penalized(_coeffs(terminal=lambda x: np.sum(x * x, axis=-1)), ZERO, ZERO, cfg, noise)


def test_markov_solve_with_reflected_state():
    dom = unit_ball(1)
    grid = TimeGrid.uniform(0, 1, 50)
    noise = generate_paths(grid, 1, 300, seed=2, shared_backward=True)
    state = simulate_reflected(ForwardModel(dom, 0.0, 1.0), np.zeros(1), noise)
    coeffs = CoefficientSet(
        f=lambda t, x, y, z: np.ones_like(y),
        g=lambda t, x, y: np.zeros_like(y),
        h=lambda t, x, y, z: np.zeros(y.shape + (z.shape[-1],)),
        terminal=lambda x: np.zeros(x.shape[0]),
    )
    sol = solve_penalized(coeffs, ZERO, ZERO,
                          SolverConfig(grid, regression=("poly", 2)), state)
    assert np.mean(sol.Y[:, 0, 0]) == pytest.approx(1.0, abs=0.02)
    assert np.all(np.diff(sol.A, axis=1) >= 0.0)
    assert np.shares_memory(sol.A, state.A)  # one A: the solution keeps a view of the bundle's
    short = simulate_reflected(ForwardModel(dom, 0.0, 1.0), np.zeros(1),
                               generate_paths(grid, 1, 200, seed=2, shared_backward=True))
    with pytest.raises(ValueError, match="state ensemble"):  # not one state row per noise row
        solve_penalized(coeffs, ZERO, ZERO, SolverConfig(grid, regression=("poly", 2)), replace(state, X=short.X))


# ---------------------------------------------------------------- storage layout

def _path_major(bundle):
    """The bundle with each array copied C-contiguous, paths outermost."""
    arrays = {name: np.ascontiguousarray(getattr(bundle, name)) for name in ("dW", "dB", "A", "X")
              if getattr(bundle, name) is not None}
    return replace(bundle, **arrays)


def _node_slices_contiguous(a):
    return all(a[:, i].flags.c_contiguous for i in range(a.shape[1]))


@pytest.mark.parametrize("regression, scheme", [
    (("poly", 2), "implicit-prox"), (("partition", 4), "implicit-prox"),
    ("sample-mean", "implicit-prox"), (("poly", 2), "explicit-yosida"),
], ids=["poly", "partition", "sample-mean", "explicit-yosida"])
def test_node_major_storage_matches_path_major_copies(regression, scheme):
    """generate_paths, simulate_reflected and solve_penalized store their
    per-path arrays node-major, so every [:, i] is C-contiguous; a shared dB
    is one row with stride 0 on the path axis.  Path-major copies of the same
    bundle give the same X, A, Y, Z, U and V bit for bit: a bundle built by
    hand in either layout gets the same numbers."""
    grid = TimeGrid.uniform(0, 1, 40)
    state_free = regression == "sample-mean"
    noise = generate_paths(grid, 2, 60, seed=7, shared_backward=not state_free,
                           a_spec=(lambda t: np.asarray(t, float)) if state_free else None)
    assert all(_node_slices_contiguous(a) for a in (noise.dW, noise.A))
    # shared: one row, stride 0 on the path axis; per path: node-major
    assert noise.dB.strides[0] == 0 if not state_free else _node_slices_contiguous(noise.dB)
    copy = _path_major(noise)
    assert not copy.dW[:, 0].flags.c_contiguous and np.array_equal(copy.dW, noise.dW)
    if not state_free:
        dom = unit_ball(2)
        noise, ref = (simulate_reflected(ForwardModel(dom, 0.3, 1.0), np.zeros(2), b) for b in (noise, copy))
        assert _node_slices_contiguous(noise.X) and _node_slices_contiguous(noise.A)
        assert np.array_equal(noise.X, ref.X) and np.array_equal(noise.A, ref.A)
        assert np.any(noise.A[:, -1] > 0.0)
        copy = _path_major(noise)
    coeffs = _coeffs(f=lambda t, x, y, z: 1.0 - 0.5 * y + 0.2 * z[..., 0] + (0 if x is None else 0.1 * x[:, :1]),
                     g=lambda t, x, y: 0.4 + 0.1 * y,
                     h=lambda t, x, y, z: 0.3 * y[..., None] * np.ones(z.shape[-1]),
                     terminal=0.8 if state_free else (lambda x: np.sum(x * x, axis=-1)))
    cfg = SolverConfig(grid, eps=0.05, scheme=scheme, regression=regression)
    phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex("abs")
    sol, ref = (solve_penalized(coeffs, phi, psi, cfg, b) for b in (noise, copy))
    assert np.max(np.abs(sol.U[:, :-1])) > 0.0 and np.max(np.abs(sol.V[:, :-1])) > 0.0
    for name in ("Y", "Z", "U", "V", "dA"):
        assert _node_slices_contiguous(getattr(sol, name)), name
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
    assert sol.condition_numbers == ref.condition_numbers
