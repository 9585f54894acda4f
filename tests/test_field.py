from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bdsvi import (
    AssumptionConstants,
    CoefficientSet,
    FieldGrid,
    PathBundle,
    SolverConfig,
    TimeGrid,
    boundary_residual,
    continuity_diagnostic,
    interior_residual,
    make_convex,
    manufactured_field,
    sample_field,
    simulate_reflected,
    smoothed_interval,
    solve_penalized,
    unit_ball,
    yosida_gradient,
)
from bdsvi import field
from bdsvi.drivers import _stream
from bdsvi.scenarios import load_scenario

ZERO = make_convex("zero")
DOM = smoothed_interval(-1.0, 1.0)


def _coeffs(f=None, g=None, terminal=0.0):
    return CoefficientSet(
        f=f or (lambda t, x, y, z: np.zeros_like(y)),
        g=g or (lambda t, x, y: np.zeros_like(y)),
        h=lambda t, x, y, z: np.zeros(y.shape + (z.shape[-1],)),
        terminal=terminal,
        constants=AssumptionConstants(),
    )


def _fgrid(nt=5, npts=5):
    return FieldGrid.build(DOM, np.linspace(0, 1, nt), np.linspace(-1, 1, npts)[:, None])


def _config(n_steps=50, regression=("poly", 2)):
    return SolverConfig(TimeGrid.uniform(0, 1, n_steps), eps=1e-3,
                        scheme="implicit-prox", regression=regression)


def test_field_grid_boundary_tagging():
    fg = _fgrid()
    assert fg.boundary_mask.tolist() == [True, False, False, False, True]


def test_field_grid_rejects_exterior_points():
    with pytest.raises(ValueError):
        FieldGrid.build(DOM, [0.0], np.array([[1.5]]))


def test_field_grid_rejects_misshapen_points():
    """Two 2-d points on the interval are an error, not four 1-d points."""
    with pytest.raises(ValueError, match="shape"):
        FieldGrid.build(DOM, [0.0], np.array([[0.1, 0.2], [0.3, 0.4]]))
    with pytest.raises(ValueError, match="shape"):
        FieldGrid.build(DOM, [0.0], np.linspace(-1, 1, 5))


def test_sample_field_labels_the_snapped_times():
    """On a 50-step grid the lattice time 0.35 is snapped up to the node
    0.36, and the estimate carries the node times its values belong to:
    with f = 1 and a zero terminal, u = 1 - t at each of them."""
    fg = FieldGrid.build(DOM, [0.0, 0.35, 1.0], np.linspace(-1, 1, 3)[:, None])
    est = sample_field(DOM, _coeffs(f=lambda t, x, y, z: np.ones_like(y)), ZERO, ZERO,
                       _config(50, ("poly", 1)), fg, n_paths=20, seed=1)
    assert np.allclose(est.grid.times, [0.0, 0.36, 1.0], rtol=0.0, atol=1e-15)
    assert np.allclose(est.values, 1.0 - est.grid.times[:, None], rtol=0.0, atol=1e-12)
    assert np.array_equal(est.grid.points, fg.points)


def test_constant_scenario_exact():
    fg = _fgrid()
    est = sample_field(DOM, _coeffs(terminal=0.7), ZERO, ZERO, _config(), fg,
                       n_paths=20, seed=1)
    assert np.max(np.abs(est.values - 0.7)) < 1e-12
    assert np.max(est.stderr) < 1e-12


def test_unit_drift_matches_linear_profile():
    fg = _fgrid()
    cfg = _config()
    est = sample_field(DOM, _coeffs(f=lambda t, x, y, z: np.ones_like(y)),
                       ZERO, ZERO, cfg, fg, n_paths=50, seed=2)
    exact = (1.0 - fg.times)[:, None]
    assert np.max(np.abs(est.values - exact)) <= 2 * cfg.grid.max_dt


def test_terminal_slice_uses_exact_map():
    fg = FieldGrid.build(DOM, [1.0], np.linspace(-1, 1, 7)[:, None])
    coeffs = _coeffs(terminal=0.0)
    coeffs = CoefficientSet(coeffs.f, coeffs.g, coeffs.h,
                            lambda x: np.sum(x * x, axis=-1), coeffs.constants)
    est = sample_field(DOM, coeffs, ZERO, ZERO, _config(), fg, n_paths=3, seed=0)
    assert np.allclose(est.values[0], np.linspace(-1, 1, 7) ** 2)
    assert np.all(est.stderr[0] == 0.0)


def test_field_determinism():
    fg = _fgrid(3, 3)
    cfg = _config(20)
    coeffs = _coeffs(f=lambda t, x, y, z: np.ones_like(y))
    a = sample_field(DOM, coeffs, ZERO, ZERO, cfg, fg, n_paths=30, seed=5)
    b = sample_field(DOM, coeffs, ZERO, ZERO, cfg, fg, n_paths=30, seed=5)
    assert np.array_equal(a.values, b.values)


def _per_node_field(domain, coeffs, phi, psi, config, fgrid, n_paths, seed, sigma, b, n_b_draws):
    """sample_field rebuilt node by node from public calls: one forward
    stream, reflected ensemble and backward solve per lattice node."""
    master = config.grid
    d = domain.d
    t_index = np.searchsorted(master.nodes, fgrid.times - 1e-12)
    shape = (n_b_draws, fgrid.times.size, fgrid.points.shape[0])
    per_draw, per_draw_se = np.empty(shape), np.zeros(shape)
    for draw in range(n_b_draws):
        db = _stream(seed, "B_SHARED", draw).standard_normal((master.n_steps, d)) * np.sqrt(master.dt)[:, None]
        for it, j0 in enumerate(t_index):
            for jp, x in enumerate(fgrid.points):
                if j0 == master.n_steps:
                    xi = coeffs.terminal(x[None]) if callable(coeffs.terminal) else coeffs.terminal
                    per_draw[draw, it, jp] = np.atleast_1d(xi)[0]
                    continue
                sub = TimeGrid(master.nodes[j0:])
                dW = (_stream(seed, "FIELD_W", draw, it, jp).standard_normal((n_paths, sub.n_steps, d))
                      * np.sqrt(sub.dt)[:, None])
                noise = PathBundle(sub, dW, np.broadcast_to(db[j0:], dW.shape).copy(),
                                   np.zeros((n_paths, sub.n_steps + 1)))
                ens = simulate_reflected(domain, b, sigma, (sub.t0, x), noise)
                y0 = solve_penalized(coeffs, phi, psi, replace(config, grid=sub), ens).Y[:, 0, 0]
                per_draw[draw, it, jp] = np.mean(y0)
                per_draw_se[draw, it, jp] = np.std(y0, ddof=1) / np.sqrt(n_paths)
    within = np.sqrt(np.mean(per_draw_se ** 2, axis=0) / n_b_draws)
    across = np.std(per_draw, axis=0, ddof=1) / np.sqrt(n_b_draws)
    return np.mean(per_draw, axis=0), np.sqrt(within ** 2 + np.square(across)), per_draw


def _affine_sigma(x):
    return (1.0 + 0.25 * x)[..., None]


def _mean_reverting(x):
    return -0.3 * x


@pytest.mark.parametrize("regression", [("poly", 2), ("partition", 4)])
@pytest.mark.parametrize("terminal", ["callable", "constant"])
def test_stacked_field_matches_per_node_solves(regression, terminal):
    """One stacked ensemble per lattice time gives, bit for bit, the field of
    one reflected simulation and one solve per node.  g and psi make the
    local time enter the values; sigma and b depend on the state."""
    coeffs = CoefficientSet(
        f=lambda t, x, y, z: 1.0 - 0.5 * y + 0.1 * x,
        g=lambda t, x, y: np.full_like(y, 0.2),
        h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3),
        terminal=(lambda x: x[:, 0] ** 2) if terminal == "callable" else 0.4,
        constants=AssumptionConstants(),
    )
    phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex("abs")
    cfg = _config(40, regression)
    fg = FieldGrid.build(DOM, [0.0, 0.35, 0.8, 1.0], np.linspace(-1, 1, 4)[:, None])
    est = sample_field(DOM, coeffs, phi, psi, cfg, fg, 30, 4, _affine_sigma, _mean_reverting, n_b_draws=2)
    values, stderr, per_draw = _per_node_field(DOM, coeffs, phi, psi, cfg, fg, 30, 4,
                                               _affine_sigma, _mean_reverting, 2)
    assert np.array_equal(est.values, values)
    assert np.array_equal(est.stderr, stderr)
    assert np.array_equal(est.per_draw, per_draw)


def test_sample_field_rejects_sample_mean():
    """Every field ensemble carries its reflected state, which sample-mean
    cannot use."""
    with pytest.raises(ValueError, match="sample-mean"):
        sample_field(DOM, _coeffs(g=lambda t, x, y: np.full_like(y, 0.2)), ZERO, ZERO,
                     _config(20, "sample-mean"), _fgrid(3, 3), 20, 1)


def test_stacked_field_matches_per_node_solves_on_ball():
    dom = unit_ball(2)
    coeffs = CoefficientSet(
        f=lambda t, x, y, z: 1.0 - 0.5 * y,
        g=lambda t, x, y: np.full_like(y, 0.2),
        h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3),
        terminal=lambda x: np.sum(x * x, axis=-1),
        constants=AssumptionConstants(),
    )
    cfg = _config(30, ("poly", 2))
    fg = FieldGrid.build(dom, [0.0, 0.5], [[0.0, 0.0], [0.5, -0.2], [0.0, 1.0]])
    est = sample_field(dom, coeffs, ZERO, make_convex("abs"), cfg, fg, 25, 8, 0.8, 0.0, n_b_draws=2)
    values, stderr, per_draw = _per_node_field(dom, coeffs, ZERO, make_convex("abs"), cfg, fg, 25, 8, 0.8, 0.0, 2)
    assert np.array_equal(est.per_draw, per_draw)
    assert np.array_equal(est.values, values)
    assert np.array_equal(est.stderr, stderr)


def test_stretched_field_matches_per_node_solves_on_an_unsorted_lattice():
    """The stretch cut orders lattice times by snapped node with a stable
    sort and writes each time's values back to its own index: unsorted
    times, 0.34 and 0.35 on the same node, times at t0 and T, the explicit
    scheme and two backward draws."""
    coeffs = CoefficientSet(
        f=lambda t, x, y, z: 1.0 - 0.5 * y + 0.1 * x,
        g=lambda t, x, y: np.full_like(y, 0.2),
        h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3),
        terminal=lambda x: x[:, 0] ** 2,
        constants=AssumptionConstants(),
    )
    phi, psi = make_convex("indicator_box(-inf,0.5)"), make_convex("abs")
    cfg = SolverConfig(TimeGrid.uniform(0, 1, 40), eps=0.05, scheme="explicit-yosida", regression=("poly", 2))
    fg = FieldGrid.build(DOM, [0.8, 1.0, 0.34, 0.0, 0.35, 0.6], np.linspace(-1, 1, 4)[:, None])
    est = sample_field(DOM, coeffs, phi, psi, cfg, fg, 20, 6, _affine_sigma, _mean_reverting, n_b_draws=2)
    values, stderr, per_draw = _per_node_field(DOM, coeffs, phi, psi, cfg, fg, 20, 6,
                                               _affine_sigma, _mean_reverting, 2)
    assert np.allclose(est.grid.times, [0.8, 1.0, 0.35, 0.0, 0.35, 0.6], rtol=0.0, atol=1e-15)
    assert np.array_equal(est.per_draw, per_draw)
    assert np.array_equal(est.values, values)
    assert np.array_equal(est.stderr, stderr)


@pytest.mark.parametrize("times, bad", [([-0.1, 0.5], "-0.1"), ([0.5, 1.2], "1.2"), ([0.0, np.nan], "nan")])
def test_sample_field_rejects_times_outside_the_grid(times, bad):
    """A lattice time before t0 is not moved to t0, and one after T does not
    fail deep inside the sweep: both name the time."""
    fg = FieldGrid.build(DOM, times, np.linspace(-1, 1, 3)[:, None])
    with pytest.raises(ValueError, match=f"lattice time {bad} lies outside"):
        sample_field(DOM, _coeffs(), ZERO, ZERO, _config(20), fg, n_paths=5, seed=1)


def test_field_runs_each_stretch_of_the_grid_once(monkeypatch):
    """On scenarios/field.yaml the reflected simulations and backward sweeps
    of one draw tile the master grid once from the first lattice time: 50
    steps each, not one ensemble per lattice time from its own time to T."""
    scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "field.yaml")
    grids = {"forward": [], "backward": []}

    def recording(kernel, key, grid_of):
        def wrapped(*args):
            grids[key].append(grid_of(args).nodes)
            return kernel(*args)
        return wrapped

    monkeypatch.setattr(field, "simulate_reflected", recording(field.simulate_reflected, "forward",
                                                               lambda args: args[4].grid))
    monkeypatch.setattr(field, "_backward_sweep", recording(field._backward_sweep, "backward",
                                                            lambda args: args[3].grid))
    sample_field(scn.domain, scn.coeffs, scn.phi, scn.psi, scn.solver, scn.lattice, scn.n_paths, scn.seed,
                 scn.sigma, scn.drift, scn.draws)
    master = scn.solver.grid.nodes
    assert scn.draws == 1 and scn.lattice.times[0] == master[0]
    for nodes in (grids["forward"], grids["backward"][::-1]):
        assert sum(g.size - 1 for g in nodes) == master.size - 1 == 50
        assert np.array_equal(np.concatenate([nodes[0]] + [g[1:] for g in nodes[1:]]), master)


def test_continuity_diagnostic_flags_nothing_on_smooth_field():
    fg = _fgrid(6, 6)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)) + t, fg)
    out = continuity_diagnostic(est)
    assert not out["blowup"]


def test_manufactured_quadratic_interior_residual():
    # u = x^2 solves u_t + 0.5 u_xx + f = 0 with f = -1
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: -np.ones_like(y)),
                            ZERO, 0.0)
    assert out["max_abs"] < 1e-12


def test_interior_residual_state_dependent_sigma():
    # u = x^2 with sigma(x) = 1 + 0.25 x: 0.5 sigma^2 u_xx = sigma^2, so f = -sigma^2
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: -(1.0 + 0.25 * x) ** 2),
                            ZERO, 0.0, sigma=_affine_sigma)
    assert out["max_abs"] <= 1e-12


def test_interior_residual_state_dependent_drift():
    # b(x) = 0.5 x adds b u_x = x^2, so f = -1 - x^2
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: -1.0 - x * x),
                            ZERO, 0.0, b=lambda x: 0.5 * x)
    assert out["max_abs"] <= 1e-12


def test_manufactured_quadratic_boundary_residual():
    # <grad level, u_x> = -2 at both endpoints, so g = 2 closes the relation
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = boundary_residual(est, _coeffs(g=lambda t, x, y: 2.0 * np.ones_like(y)),
                            ZERO, 0.0, DOM)
    assert out["max_abs"] < 1e-12


def test_boundary_residual_matches_per_node_loop():
    fg = _fgrid(6, 9)
    est = manufactured_field(lambda t, x: float(np.sin(3.0 * x[0]) + t), fg)
    coeffs = _coeffs(g=lambda t, x, y: 0.3 * y + x + t)
    psi, eps = make_convex("abs"), 0.1
    out = boundary_residual(est, coeffs, psi, eps, DOM)
    x = fg.points[:, 0]
    for i, t in enumerate(fg.times):
        u_x = np.gradient(est.values[i], x, edge_order=2)
        for j in np.nonzero(fg.boundary_mask)[0]:
            y = np.array([[est.values[i, j]]])
            expect = (DOM.gradient(x[j: j + 1, None])[0, 0] * u_x[j]
                      + coeffs.g(float(t), x[j: j + 1, None], y)[0, 0] - yosida_gradient(psi, eps, y)[0, 0])
            assert out["residual"][i, j] == expect
    assert out["max_abs"] == np.nanmax(np.abs(out["residual"]))


def test_residual_detects_wrong_source():
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: np.zeros_like(y)),
                            ZERO, 0.0)
    assert out["max_abs"] == pytest.approx(1.0)


def test_residual_includes_penalization_term():
    # u = 0.8 constant above a barrier at 0.5: residual = f - (u - 0.5)/eps
    fg = _fgrid(5, 8)
    est = manufactured_field(lambda t, x: 0.8, fg)
    phi = make_convex("indicator_box(-inf,0.5)")
    eps = 0.1
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: np.full_like(y, 3.0)),
                            phi, eps)
    assert out["max_abs"] == pytest.approx(0.0, abs=1e-10)


def test_residual_requires_line_lattice():
    fg = _fgrid(2, 2)
    est = manufactured_field(lambda t, x: 0.0, fg)
    with pytest.raises(ValueError):
        interior_residual(est, _coeffs(), ZERO, 0.0)
