import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest

from bdsvi import (
    AssumptionConstants,
    CoefficientSet,
    SolverConfig,
    TimeGrid,
    cauchy_study,
    generate_paths,
    make_convex,
    make_domain,
    penalization_diagnostics,
    simulate_reflected,
    solve_penalized,
    unit_ball,
    verify_vi_inclusion,
    weighted_norms,
)
from bdsvi import solver as solver_module
from bdsvi.scenarios import make_coefficients
from bdsvi.solver import _poly_features, _projector

ZERO = make_convex("zero")


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

def _vi_coeffs():
    return _coeffs(f=lambda t, x, y, z: np.ones_like(y), terminal=0.0)


def _vi_limit_ode(eps, dt):
    """Independent scalar oracle for the penalized backward flow: drift step
    then penalization step, matching the solver's operator order."""
    n = int(round(1.0 / dt))
    y = 0.0
    for _ in range(n):
        y_til = y + dt
        y = y_til - dt * max(y_til - 0.5, 0.0) / eps
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


# ---------------------------------------------------------------- cauchy

def test_cauchy_slope_near_one():
    grid = TimeGrid.uniform(0, 1, 4000)
    noise = generate_paths(grid, 1, 2, seed=1,
                           a_spec=lambda t: np.zeros_like(np.asarray(t, float)))
    phi = make_convex("indicator_box(-inf,0.5)")
    rep = cauchy_study(_vi_coeffs(), phi, ZERO, SolverConfig(grid, eps=1e-1, scheme="explicit-yosida"),
                       [1e-1, 1e-2, 1e-3], noise)
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
                       ladder, noise, lam=3.0, mu=1.5)
    limit, gaps, slope = _per_rung_study(coeffs, phi, psi, grid, regression, ladder, noise, 3.0, 1.5)
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
    state = simulate_reflected(make_domain("interval", lo=-1.0, hi=1.0), 0.0, 1.0,
                               (0.0, np.zeros(1)), noise)
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
    state = simulate_reflected(make_domain("interval", lo=-1.0, hi=1.0), 0.0, 1.0,
                               (0.0, np.zeros(1)), noise)
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
    shared = cauchy_study(coeffs, phi, psi, config, ladder, state, lam=3.0, mu=1.5)
    tiled = cauchy_study(coeffs, phi, psi, config, ladder, replace(state, dB=np.array(state.dB)),
                         lam=3.0, mu=1.5)
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


def test_regressor_projects_each_block_on_its_own():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (3 * 40, 1))  # each block has its own state rows
    targets = rng.normal(size=(3 * 40, 2))
    for spec in ("sample-mean", ("poly", 2), ("partition", 4)):
        out = _projector(spec, x, 3)[0](targets)
        for b in range(3):
            rows = slice(40 * b, 40 * (b + 1))
            alone = _projector(spec, x[rows], 1)[0](targets[rows])
            assert np.array_equal(out[rows], alone)


@pytest.mark.parametrize("blocks", [1, 3, 5])
def test_sample_mean_projector_is_np_mean_bit_for_bit(blocks):
    rng = np.random.default_rng(blocks)
    for n in (1, 2, 7, 8, 9, 17, 128, 129, 2000):
        for m in (1, 2):
            targets = rng.normal(size=(blocks * n, m)) * rng.uniform(0.1, 1e3, size=(blocks * n, 1))
            out = _projector("sample-mean", None, blocks)[0](targets)
            for b in range(blocks):
                rows = slice(n * b, n * (b + 1))
                assert np.array_equal(out[rows], np.broadcast_to(np.mean(targets[rows], axis=0), (n, m)))


def _blows_up(t, x, y, z):
    return np.full_like(y, np.inf if t > 0.5 else 1.0)


@pytest.mark.parametrize("run", ["explicit", "implicit", "ladder", "unstable"])
def test_non_finite_value_in_sweep_raises(run):
    """A value that turns non-finite during the sweep raises
    FloatingPointError (exit code 3 in the CLI, a numerical failure rather
    than bad input), whichever scheme or study runs it."""
    grid, noise = _bundle(n_steps=100, n_paths=4)
    phi = make_convex("indicator_box(-inf,0.5)")
    coeffs = _coeffs(f=_blows_up)
    runs = {
        "explicit": lambda: solve_penalized(coeffs, phi, ZERO,
                                            SolverConfig(grid, eps=2e-2, scheme="explicit-yosida"), noise),
        "implicit": lambda: solve_penalized(coeffs, phi, ZERO, SolverConfig(grid), noise),
        "ladder": lambda: cauchy_study(coeffs, phi, ZERO, SolverConfig(grid, scheme="explicit-yosida"),
                                       [1e-1, 2e-2], noise),
        # dt * Lip(grad phi_eps) = 0.01 * 5e5: the explicit step overflows
        "unstable": lambda: solve_penalized(_coeffs(terminal=1.0), make_convex("quadratic(1e6)"), ZERO,
                                            SolverConfig(grid, eps=1e-6, scheme="explicit-yosida"), noise),
    }
    message = "explicit scheme unstable" if run == "unstable" else "non-finite Y at step"
    with pytest.raises(FloatingPointError, match=message), np.errstate(all="ignore"):
        runs[run]()

# ---------------------------------------------------------------- diagnostics

def test_weighted_norms_constant_solution():
    grid, noise = _bundle(n_paths=10)
    sol = solve_penalized(_coeffs(terminal=2.0), ZERO, ZERO, SolverConfig(grid), noise)
    norms = weighted_norms(sol, lam=0.0, mu=0.0)
    assert norms["Y_M2"] == pytest.approx(4.0)       # |Y|^2 * T
    assert norms["Y_S2"] == pytest.approx(4.0)
    assert norms["Y_Mbar2"] == 0.0                    # A = 0
    # Z is the cross-path Monte-Carlo estimate of E[Y dW]/dt = 0; its norm is
    # pure estimator noise of scale |Y|^2 * n_steps / n_paths
    assert norms["Z_M2"] < 10 * 4.0 * grid.n_steps / noise.n_paths


def test_weighted_norms_with_weight_and_a():
    grid, noise = _bundle(n_paths=5, a="time")
    sol = solve_penalized(_coeffs(terminal=1.0), ZERO, ZERO, SolverConfig(grid), noise)
    norms = weighted_norms(sol, lam=1.0, mu=0.0)
    # int_0^1 e^t dt = e - 1 (trapezoid on 100 steps)
    assert norms["Y_M2"] == pytest.approx(np.e - 1.0, rel=1e-4)
    norms2 = weighted_norms(sol, lam=0.0, mu=1.0)
    assert norms2["Y_Mbar2"] == pytest.approx(np.e - 1.0, rel=1e-3)


def test_penalization_diagnostics_unconstrained_run_is_zero():
    grid, noise = _bundle(n_paths=5)
    phi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_coeffs(terminal=0.2), phi, ZERO,
                          SolverConfig(grid, eps=1e-3), noise)
    d = penalization_diagnostics(sol, phi, ZERO, 1e-3)
    assert d["sup_resolvent_dist"] == 0.0
    assert d["grad_energy"] == 0.0


def test_vi_inclusion_on_oracle_run():
    grid, noise = _bundle(n_steps=1000, n_paths=4)
    phi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_vi_coeffs(), phi, ZERO,
                          SolverConfig(grid, eps=1e-4, scheme="implicit-prox"), noise)
    out = verify_vi_inclusion(sol, phi, ZERO, [-1.0, 0.0, 0.25, 0.5])
    assert out["worst_phi"] <= 1e-10
    assert out["phi_infinite_nodes"] == 0


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
    out = verify_vi_inclusion(sol, phi, psi, [-1.0, 0.0, 0.25, 0.3, 0.5])
    assert out["phi_infinite_nodes"] == 0 and out["psi_infinite_nodes"] == 0
    assert out["worst_phi"] <= 1e-12 and out["worst_psi"] <= 1e-12


@functools.lru_cache(maxsize=1)
def _disc_ensemble():
    """Reflected Brownian motion in the unit disc from (0.3, 0): 2000 paths,
    200 steps, one shared backward draw."""
    grid = TimeGrid.uniform(0, 1, 200)
    noise = generate_paths(grid, 2, 2000, seed=5, shared_backward=True)
    return simulate_reflected(unit_ball(2), 0.0, 1.0, (0.0, np.array([0.3, 0.0])), noise)


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


# ---------------------------------------------------------------- regression backends

def test_sample_mean_projects_z_targets():
    project, cond = _projector("sample-mean", None, 1)
    out = project(np.array([[1.0], [3.0]]))
    assert np.allclose(out, 2.0)
    assert cond is None


def test_poly_regression_recovers_linear_map():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4000, 1))
    targets = (2.0 * x[:, 0] + 1.0 + 0.01 * rng.normal(size=4000))[:, None]
    project, cond = _projector(("poly", 1), x, 1)
    out = project(targets)
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
        out = _poly_features(pts, degree)
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
    project, cond = _projector(("poly", 2), x, 3)
    out = project(targets)
    conds = []
    for b in range(3):
        rows = slice(300 * b, 300 * (b + 1))
        phi = _poly_features(x[rows], 2)
        coef, _, _, sv = np.linalg.lstsq(phi, targets[rows], rcond=None)
        assert np.max(np.abs(out[rows] - phi @ coef)) < 1e-12
        conds.append(sv[0] / sv[-1] if sv[-1] > 0 else np.inf)
    assert np.max(np.abs(out[600:] - np.mean(targets[600:], axis=0))) < 1e-12
    assert max(conds[:2]) < 1e3 and conds[2] > 1e12 and cond > 1e12  # huge or inf at the start node
    assert _projector(("poly", 2), x[:600], 2)[1] == pytest.approx(max(conds[:2]), rel=1e-10)
    assert np.max(np.abs(project(out) - out)) < 1e-12


def test_partition_regression_piecewise_means():
    x = np.linspace(-1, 1, 1000)[:, None]
    targets = np.where(x[:, 0] > 0, 1.0, -1.0)[:, None]
    out = _projector(("partition", 2), x, 1)[0](targets)
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
    project, cond = _projector(("partition", 4), x, 3)
    out = project(targets)
    empty = []
    for b in range(3):
        rows = slice(n * b, n * (b + 1))
        ref, has_empty = _cell_means(x[rows], targets[rows], 4)
        assert np.max(np.abs(out[rows] - ref)) < 1e-12, b
        empty.append(has_empty)
    assert isinstance(cond, float)
    assert empty[2] and cond == np.inf
    spread_cond = _projector(("partition", 4), spread, 1)[1]
    assert not empty[0] and np.isfinite(spread_cond)


def test_state_regression_requires_state():
    with pytest.raises(ValueError):
        _projector(("poly", 2), None, 1)


def test_sample_mean_rejects_state_dependent_data():
    """The pathwise value update of sample-mean holds only for state-free
    data.  On a reflected ensemble it used to return a Y_0 that spread across
    paths where the true Y_0 is deterministic."""
    grid = TimeGrid.uniform(0, 1, 50)
    noise = generate_paths(grid, 2, 200, seed=3, shared_backward=True)
    state = simulate_reflected(unit_ball(2), 0.0, 1.0, (0.0, np.zeros(2)), noise)
    cfg = SolverConfig(grid, regression="sample-mean")
    with pytest.raises(ValueError, match="sample-mean"):
        solve_penalized(_coeffs(g=lambda t, x, y: np.full_like(y, 0.1)), ZERO, ZERO, cfg, state)
    with pytest.raises(ValueError, match="sample-mean"):
        solve_penalized(_coeffs(terminal=lambda x: np.sum(x * x, axis=-1)), ZERO, ZERO, cfg, noise)


def test_markov_solve_with_reflected_state():
    dom = unit_ball(1)
    grid = TimeGrid.uniform(0, 1, 50)
    noise = generate_paths(grid, 1, 300, seed=2, shared_backward=True)
    state = simulate_reflected(dom, 0.0, 1.0, (0.0, np.zeros(1)), noise)
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
    short = simulate_reflected(dom, 0.0, 1.0, (0.0, np.zeros(1)),
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
        noise, ref = (simulate_reflected(dom, 0.3, 1.0, (0.0, np.zeros(2)), b) for b in (noise, copy))
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
