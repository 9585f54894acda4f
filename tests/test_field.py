from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from bdsvi import (
    AssumptionConstants,
    CoefficientSet,
    FieldGrid,
    ForwardModel,
    PathBundle,
    SolverConfig,
    TimeGrid,
    continuity_diagnostic,
    generate_paths,
    make_convex,
    sample_field,
    simulate_reflected,
    smoothed_interval,
    solve_penalized,
    unit_ball,
    yosida_gradient,
)
from bdsvi import field
from bdsvi.drivers import _rekey, _stream, _stream_key
from bdsvi.reflected import _BOUNDARY_TOL, _check_closure
from bdsvi.scenarios import load_scenario, make_coefficients
from field_stencils import boundary_mask, boundary_residual, interior_residual, manufactured_field
from spde_oracle import solve_spde

ZERO = make_convex("zero")
DOM = smoothed_interval(-1.0, 1.0)
MODEL = ForwardModel(DOM, 0.0, 1.0)


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
    assert boundary_mask(DOM, fg).tolist() == [True, False, False, False, True]


def test_field_grid_rejects_exterior_points():
    with pytest.raises(ValueError):
        FieldGrid.build(DOM, [0.0], np.array([[1.5]]))


@pytest.mark.parametrize("depth, inside", [(0.5, True), (2.0, False)])
def test_lattice_and_start_checks_share_one_tolerance(tmp_path, depth, inside):
    """FieldGrid.build, simulate_reflected and the loader's start check call
    one owner, reflected._check_closure: a point whose level is below -tol
    lies outside the closure for all of them, and one whose level is above
    it lies inside for all of them."""
    x = np.array([[1.0 + depth * _BOUNDARY_TOL]])
    assert (DOM.level(x)[0] >= -_BOUNDARY_TOL) == inside
    noise = generate_paths(TimeGrid.uniform(0, 1, 4), 1, 2, seed=0)
    path = tmp_path / "start.yaml"
    path.write_text(yaml.safe_dump({"domain": {"kind": "interval", "lo": -1.0, "hi": 1.0}, "start": [float(x[0, 0])],
                                    "solver": {"regression": {"kind": "poly", "degree": 1}}}))
    if inside:
        _check_closure(DOM, x, "point")
        assert np.array_equal(FieldGrid.build(DOM, [0.0], x).points, x)
        assert simulate_reflected(MODEL, x[0], noise).X.shape[0] == 2
        assert np.array_equal(load_scenario(path).start, x[0])
    else:
        for check in (lambda: _check_closure(DOM, x, "point"), lambda: FieldGrid.build(DOM, [0.0], x),
                      lambda: simulate_reflected(MODEL, x[0], noise), lambda: load_scenario(path)):
            with pytest.raises(ValueError, match="point lies outside the closure of the domain"):
                check()


@pytest.mark.parametrize("times, points, key", [([], [[0.0]], "times"), ([0.0], np.empty((0, 1)), "points")])
def test_field_grid_rejects_an_empty_lattice(times, points, key):
    with pytest.raises(ValueError, match=f"lattice has no {key}"):
        FieldGrid.build(DOM, times, points)


@pytest.mark.parametrize("n_paths, n_b_draws", [(10, 0), (0, 1)], ids=["no-draws", "no-paths"])
def test_sample_field_needs_paths_and_draws(n_paths, n_b_draws):
    with pytest.raises(ValueError, match="n_paths and n_b_draws must be >= 1"):
        sample_field(MODEL, _coeffs(), ZERO, ZERO, _config(), _fgrid(), n_paths, 0, n_b_draws)


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
    est = sample_field(MODEL, _coeffs(f=lambda t, x, y, z: np.ones_like(y)), ZERO, ZERO,
                       _config(50, ("poly", 1)), fg, n_paths=20, seed=1)
    assert np.allclose(est.grid.times, [0.0, 0.36, 1.0], rtol=0.0, atol=1e-15)
    assert np.allclose(est.values, 1.0 - est.grid.times[:, None], rtol=0.0, atol=1e-12)
    assert np.array_equal(est.grid.points, fg.points)


def test_constant_scenario_exact():
    fg = _fgrid()
    est = sample_field(MODEL, _coeffs(terminal=0.7), ZERO, ZERO, _config(), fg,
                       n_paths=20, seed=1)
    assert np.max(np.abs(est.values - 0.7)) < 1e-12
    assert np.max(est.stderr) < 1e-12


def test_unit_drift_matches_linear_profile():
    fg = _fgrid()
    cfg = _config()
    est = sample_field(MODEL, _coeffs(f=lambda t, x, y, z: np.ones_like(y)),
                       ZERO, ZERO, cfg, fg, n_paths=50, seed=2)
    exact = (1.0 - fg.times)[:, None]
    assert np.max(np.abs(est.values - exact)) <= 2 * cfg.grid.max_dt


def test_terminal_slice_uses_exact_map():
    fg = FieldGrid.build(DOM, [1.0], np.linspace(-1, 1, 7)[:, None])
    coeffs = _coeffs(terminal=0.0)
    coeffs = CoefficientSet(coeffs.f, coeffs.g, coeffs.h,
                            lambda x: np.sum(x * x, axis=-1), coeffs.constants)
    est = sample_field(MODEL, coeffs, ZERO, ZERO, _config(), fg, n_paths=3, seed=0)
    assert np.allclose(est.values[0], np.linspace(-1, 1, 7) ** 2)
    assert np.all(est.stderr[0] == 0.0)


def test_field_determinism():
    fg = _fgrid(3, 3)
    cfg = _config(20)
    coeffs = _coeffs(f=lambda t, x, y, z: np.ones_like(y))
    a = sample_field(MODEL, coeffs, ZERO, ZERO, cfg, fg, n_paths=30, seed=5)
    b = sample_field(MODEL, coeffs, ZERO, ZERO, cfg, fg, n_paths=30, seed=5)
    assert np.array_equal(a.values, b.values)


def _per_node_field(model, coeffs, phi, psi, config, fgrid, n_paths, seed, n_b_draws):
    """sample_field rebuilt node by node from public calls: one forward
    stream, reflected ensemble and backward solve per lattice node."""
    master = config.grid
    d = model.domain.d
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
                ens = simulate_reflected(model, x, noise)
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
    """One stacked ensemble per stretch of the grid between lattice times
    gives, bit for bit, the field of one reflected simulation and one solve
    per node.  g and psi make the
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
    model = ForwardModel(DOM, _mean_reverting, _affine_sigma)
    est = sample_field(model, coeffs, phi, psi, cfg, fg, 30, 4, n_b_draws=2)
    values, stderr, per_draw = _per_node_field(model, coeffs, phi, psi, cfg, fg, 30, 4, 2)
    assert np.array_equal(est.values, values)
    assert np.array_equal(est.stderr, stderr)
    assert np.array_equal(est.per_draw, per_draw)


def test_sample_field_rejects_sample_mean():
    """Every field ensemble carries its reflected state, which sample-mean
    cannot use."""
    with pytest.raises(ValueError, match="sample-mean"):
        sample_field(MODEL, _coeffs(g=lambda t, x, y: np.full_like(y, 0.2)), ZERO, ZERO,
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
    model = ForwardModel(dom, 0.0, 0.8)
    est = sample_field(model, coeffs, ZERO, make_convex("abs"), cfg, fg, 25, 8, n_b_draws=2)
    values, stderr, per_draw = _per_node_field(model, coeffs, ZERO, make_convex("abs"), cfg, fg, 25, 8, 2)
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
    model = ForwardModel(DOM, _mean_reverting, _affine_sigma)
    est = sample_field(model, coeffs, phi, psi, cfg, fg, 20, 6, n_b_draws=2)
    values, stderr, per_draw = _per_node_field(model, coeffs, phi, psi, cfg, fg, 20, 6, 2)
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
        sample_field(MODEL, _coeffs(), ZERO, ZERO, _config(20), fg, n_paths=5, seed=1)


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
                                                               lambda args: args[2].grid))
    monkeypatch.setattr(field, "_backward_sweep", recording(field._backward_sweep, "backward",
                                                            lambda args: args[3].grid))
    sample_field(scn.model, scn.coeffs, scn.phi, scn.psi, scn.solver, scn.lattice, scn.n_paths, scn.seed, scn.draws)
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


@pytest.mark.parametrize("times, points", [
    ([0.0, 0.5, 0.5, 1.0], [-1.0, 0.0, 1.0]),
    ([0.0, 1.0, 0.5], [-1.0, 0.0, 1.0]),
    ([0.0, 0.5, 1.0], [-1.0, 0.0, 0.0, 1.0])], ids=["repeated-time", "unsorted-times", "repeated-point"])
def test_continuity_diagnostic_rejects_a_gap_that_is_not_positive(times, points):
    """Two lattice times on one node divided by a zero gap and passed on a
    NaN ratio, and unsorted times divided by a negative gap."""
    est = manufactured_field(lambda t, x: t + float(x[0]), FieldGrid.build(DOM, times, np.array(points)[:, None]))
    with pytest.raises(ValueError, match="lattice times must increase"):
        continuity_diagnostic(est)


def _two_block_continuity(fld):
    """continuity_diagnostic as a time-pair block and a space-pair block per
    stride: the reference of the one-kernel form."""
    u, times, pts = fld.values, fld.grid.times, fld.grid.points

    def ratios(stride):
        out = []
        if times.size > stride:
            dt = times[stride:] - times[:-stride]
            out.append((np.abs(u[stride:] - u[:-stride]) / np.sqrt(dt)[:, None]).ravel())
        if pts.shape[0] > stride:
            dx = np.linalg.norm(pts[stride:] - pts[:-stride], axis=1)
            out.append((np.abs(u[:, stride:] - u[:, :-stride]) / dx[None, :]).ravel())
        return np.concatenate(out)

    fine, coarse = float(np.max(ratios(1))), float(np.max(ratios(2)))
    return {"worst_fine": fine, "worst_coarse": coarse, "blowup": fine > 10.0 * max(coarse, 1e-12)}


@pytest.mark.parametrize("nt, npts", [(5, 5), (6, 9), (3, 1), (1, 3)])
def test_one_ratio_kernel_keeps_the_values_of_two_blocks(nt, npts):
    """One ratio kernel over the (axis, gaps) pairs of both strides gives the
    two blocks' values exactly, on lattices with pairs along both axes (5x5,
    6x9), along the times only (3x1) and along the points only (1x3), with
    uneven gaps and a random field."""
    rng = np.random.default_rng(7)
    fg = FieldGrid.build(DOM, np.sort(rng.uniform(0, 1, nt)), np.sort(rng.uniform(-1, 1, npts))[:, None])
    vals = rng.standard_normal((nt, npts))
    est = field.FieldEstimate(fg, vals, np.zeros_like(vals), vals[None])
    got, ref = continuity_diagnostic(est), _two_block_continuity(est)
    assert got.keys() == ref.keys()
    for key in ("worst_fine", "worst_coarse"):
        assert np.float64(got[key]).tobytes() == np.float64(ref[key]).tobytes(), (key, got[key], ref[key])
    assert got["blowup"] is ref["blowup"]


@pytest.mark.parametrize("nt, npts", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_a_lattice_without_pairs_at_stride_two_is_too_small(nt, npts):
    """Stride 2 needs three times or three points; the rule's owner raises it
    before any ratio is formed."""
    est = manufactured_field(lambda t, x: t + float(x[0]), _fgrid(nt, npts))
    with pytest.raises(ValueError, match="lattice too small for continuity pairs"):
        continuity_diagnostic(est)


def test_manufactured_quadratic_interior_residual():
    # u = x^2 solves u_t + 0.5 u_xx + f = 0 with f = -1
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: -np.ones_like(y)),
                            ZERO, 0.0, MODEL)
    assert out["max_abs"] < 1e-12


def test_interior_residual_state_dependent_sigma():
    # u = x^2 with sigma(x) = 1 + 0.25 x: 0.5 sigma^2 u_xx = sigma^2, so f = -sigma^2
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: -(1.0 + 0.25 * x) ** 2),
                            ZERO, 0.0, ForwardModel(DOM, 0.0, _affine_sigma))
    assert out["max_abs"] <= 1e-12


def test_interior_residual_state_dependent_drift():
    # b(x) = 0.5 x adds b u_x = x^2, so f = -1 - x^2
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: -1.0 - x * x),
                            ZERO, 0.0, ForwardModel(DOM, lambda x: 0.5 * x, 1.0))
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
        for j in np.nonzero(boundary_mask(DOM, fg))[0]:
            y = np.array([[est.values[i, j]]])
            expect = (DOM.gradient(x[j: j + 1, None])[0, 0] * u_x[j]
                      + coeffs.g(float(t), x[j: j + 1, None], y)[0, 0] - yosida_gradient(psi, eps, y)[0, 0])
            assert out["residual"][i, j] == expect
    assert out["max_abs"] == np.nanmax(np.abs(out["residual"]))


def test_residual_detects_wrong_source():
    fg = _fgrid(20, 20)
    est = manufactured_field(lambda t, x: float(np.sum(x * x)), fg)
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: np.zeros_like(y)),
                            ZERO, 0.0, MODEL)
    assert out["max_abs"] == pytest.approx(1.0)


def test_residual_includes_penalization_term():
    # u = 0.8 constant above a barrier at 0.5: residual = f - (u - 0.5)/eps
    fg = _fgrid(5, 8)
    est = manufactured_field(lambda t, x: 0.8, fg)
    phi = make_convex("indicator_box(-inf,0.5)")
    eps = 0.1
    out = interior_residual(est, _coeffs(f=lambda t, x, y, z: np.full_like(y, 3.0)),
                            phi, eps, MODEL)
    assert out["max_abs"] == pytest.approx(0.0, abs=1e-10)


def test_residual_requires_line_lattice():
    fg = _fgrid(2, 2)
    est = manufactured_field(lambda t, x: 0.0, fg)
    with pytest.raises(ValueError):
        interior_residual(est, _coeffs(), ZERO, 0.0, MODEL)


# ---------------------------------------------------------------- the backward SPDE as the per-draw oracle

_SPDE_SEED, _SPDE_STEPS = 5, 200
_SPDE_TIMES, _SPDE_POINTS = np.array([0.0, 0.25, 0.5, 0.75]), np.linspace(-1.0, 1.0, 9)
# ROADMAP item 4: the field's mean signed error against the PDE at 200 steps with h = 0 (weak order 1/2 in dt)
_FIELD_BIAS = 0.0177
# the oracle's error at 401 nodes and 20 sub-steps, held by the convergence test
_ORACLE_TOL = 1e-3


def _field_draw():
    """The backward increments of draw 0 of a field of seed _SPDE_SEED on the uniform 200-step grid of
    [0, 1], drawn as sample_field draws them."""
    grid = TimeGrid.uniform(0.0, 1.0, _SPDE_STEPS)
    gen = _rekey(_stream(_SPDE_SEED, "B_SHARED", 0), _stream_key(_SPDE_SEED, "B_SHARED", 0))
    return gen.standard_normal((_SPDE_STEPS, 1))[:, 0] * np.sqrt(grid.dt)


def _oracle_on_lattice(c, n_nodes=401, sub_steps=20):
    """The oracle with f = 0, g = 0.3, h = c y and chi = x^2 on the field's draw, at the lattice nodes."""
    x, u = solve_spde(lambda x: x * x, 0.3, lambda u: c * u, _field_draw(), 1.0, n_nodes, sub_steps)
    return np.array([np.interp(_SPDE_POINTS, x, u[i]) for i in np.rint(_SPDE_TIMES * _SPDE_STEPS).astype(int)])


def test_spde_oracle_is_exact_on_a_quadratic_and_converges():
    """The oracle's own accuracy.  u = g x^2 / 2 + g (T - t) / 2 solves the
    heat part with outward flux g, and centred differences, the ghost point
    and implicit Euler are exact on it, so the oracle returns it up to
    rounding.  On the field's draw at c = 0.8, (201 nodes, 10 sub-steps) and
    (401, 20) agree within _ORACLE_TOL at the lattice nodes, a bound fixed
    before the run: implicit Euler's O(dt / sub_steps) halves and the
    stencil's O(dx^2) quarters from one to the other, and item 4's oracle
    moved by 6.5e-5 from 801 x 4000 to 1601 x 16000."""
    x, u = solve_spde(lambda x: 0.15 * x * x, 0.3, lambda u: 0.0 * u, np.zeros(_SPDE_STEPS), 1.0)
    t = np.linspace(0.0, 1.0, _SPDE_STEPS + 1)[:, None]
    assert np.max(np.abs(u - (0.15 * x * x + 0.15 * (1.0 - t)))) <= 1e-11
    gap = np.max(np.abs(_oracle_on_lattice(0.8, 201, 10) - _oracle_on_lattice(0.8)))
    assert gap <= _ORACLE_TOL, gap


@pytest.mark.parametrize("c", [0.0, 0.8])
def test_one_draw_of_the_field_solves_the_backward_spde(c):
    """per_draw[0] of a field with phi = psi = zero, f = 0, g = 0.3, h = c y
    and chi = x^2 (implicit-prox, poly 2, 200 steps, 2000 paths, one draw)
    against the oracle on the same backward draw, at lattice times 0, 0.25,
    0.5 and 0.75 and 9 points.  The error is the forward scheme's
    weak-order-1/2 bias plus Monte-Carlo noise.  Item 4 read the bias at
    h = 0 as +0.0177 on average over such a lattice and 0.048 at worst; a
    draw of c != 0 scales it by its size r (the lattice mean of |u| against
    that of h = 0, at least 1), and item 18's four draws at c = 0.8 read
    relative errors up to twice item 4's.  So, fixed before the run: the
    lattice mean error within 3 r 0.0177 and every node within 6 r 0.0177,
    each plus 4 of its standard errors and the oracle's tolerance.  The
    launch node's fit is the ensemble mean, so today's stderr reads rounding
    (item 3) and the bias terms carry the bound; item 4's worst error came
    with 4000 paths' noise in it."""
    grid = TimeGrid.uniform(0.0, 1.0, _SPDE_STEPS)
    f, g, h = make_coefficients({"g": {"kind": "constant", "value": 0.3}, "h": {"kind": "linear", "a_y": c}})
    coeffs = CoefficientSet(f, g, h, lambda x: np.sum(x * x, axis=-1), AssumptionConstants())
    config = SolverConfig(grid, scheme="implicit-prox", regression=("poly", 2))
    est = sample_field(MODEL, coeffs, ZERO, ZERO, config, FieldGrid.build(DOM, _SPDE_TIMES, _SPDE_POINTS[:, None]),
                       2000, _SPDE_SEED)
    u = _oracle_on_lattice(c)
    r = max(1.0, np.mean(np.abs(u)) / np.mean(np.abs(_oracle_on_lattice(0.0))))
    err, se = est.per_draw[0] - u, est.stderr
    mean_bound = 3.0 * r * _FIELD_BIAS + 4.0 * np.sqrt(np.sum(se ** 2)) / se.size + _ORACLE_TOL
    assert abs(np.mean(err)) <= mean_bound, (np.mean(err), mean_bound)
    node_bound = 6.0 * r * _FIELD_BIAS + 4.0 * se + _ORACLE_TOL
    assert np.all(np.abs(err) <= node_bound), (np.max(np.abs(err)), np.max(np.abs(err) / node_bound))
