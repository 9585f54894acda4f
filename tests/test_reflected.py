import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdsvi import (
    ForwardModel,
    PathBundle,
    TimeGrid,
    generate_paths,
    local_time_identity_residual,
    make_domain,
    simulate_reflected,
    smoothed_interval,
    unit_ball,
)
from bdsvi.reflected import _coefficients, _generator, _project_out


def _run(domain, n_paths=200, n_steps=200, seed=1, sigma=1.0, b=0.0, x0=None, T=1.0):
    grid = TimeGrid.uniform(0.0, T, n_steps)
    noise = generate_paths(grid, domain.d, n_paths, seed=seed)
    if x0 is None:
        x0 = np.zeros(domain.d)
    return simulate_reflected(ForwardModel(domain, b, sigma), x0, noise), grid


# ---------------------------------------------------------------- domains

@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_level_is_the_sum_of_squares_form(d):
    """The ball's level, bit for bit (r^2 - np.sum(x * x, -1)) / (2r), on
    random points stored row-major and node-major."""
    r = 0.7
    dom = unit_ball(d, radius=r)
    x = np.random.default_rng(d).normal(size=(500, d)) * np.geomspace(1e-3, 2.0, 500)[:, None]
    node_major = np.empty((5, 100, d)).swapaxes(0, 1)
    node_major[:] = x.reshape(100, 5, d)
    for pts in (x, node_major, x[0]):
        assert np.array_equal(dom.level(pts), (r * r - np.sum(pts * pts, axis=-1)) / (2.0 * r))


@pytest.mark.parametrize("dom", [unit_ball(1), unit_ball(2), unit_ball(3), smoothed_interval(-1.0, 1.0)],
                         ids=["1", "2", "3", "interval"])
def test_ball_level_far_out_is_minus_inf_without_warning(dom):
    """Also the interval, the ball of d = 1 with a level of its own: a runaway
    Euler step then projects, even where warnings are errors."""
    pts = np.array([np.full(dom.d, v) for v in (1e155, -1e200, 1e300, np.inf, -np.inf)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lv = dom.level(pts)
    assert np.all(lv == -np.inf)


def test_ball_unit_normal_on_boundary():
    dom = unit_ball(2)
    theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    assert np.allclose(dom.level(pts), 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(dom.gradient(pts), axis=-1), 1.0, rtol=0.0, atol=1e-12)


def test_interval_unit_slope_at_endpoints():
    dom = smoothed_interval(-1.0, 1.0)
    for xb in (-1.0, 1.0):
        g = dom.gradient(np.array([xb]))
        assert abs(abs(float(g[0])) - 1.0) < 1e-12
        assert abs(float(dom.level(np.array([xb])))) < 1e-12
    assert float(dom.level(np.array([0.0]))) > 0.0


def test_make_domain_dispatch():
    assert make_domain("ball", dim=3, radius=2.0).d == 3
    assert make_domain("interval", lo=0.0, hi=2.0).d == 1
    with pytest.raises(ValueError, match="unknown domain kind 'torus'; known: ball, interval"):
        make_domain("torus")


def test_make_domain_rejects_a_key_its_builder_lacks():
    """The builders' signatures hold the defaults; a key a builder does not
    take raises instead of being dropped."""
    lo, hi = make_domain("interval").bounding_box
    assert (lo.tolist(), hi.tolist()) == ([0.0], [1.0])
    with pytest.raises(TypeError, match="radius"):
        make_domain("interval", lo=0, hi=1, radius=2)
    with pytest.raises(TypeError, match="dim"):
        make_domain("interval", lo=0, hi=1, dim=1)


# ---------------------------------------------------------------- simulation

def test_containment_ball():
    dom = unit_ball(2)
    path, _ = _run(dom)
    assert float(np.min(dom.level(path.X))) >= -1e-12


def test_containment_interval():
    dom = smoothed_interval(-0.5, 0.5)
    path, _ = _run(dom, sigma=0.8)
    assert float(np.min(dom.level(path.X))) >= -1e-12


@pytest.mark.parametrize("dom", [unit_ball(2), unit_ball(3), smoothed_interval(-1.0, 1.0),
                                 smoothed_interval(0.0, 1e-3)],
                         ids=["ball(d=2)", "ball(d=3)", "interval(-1,1)", "interval(0,1e-3)"])
@pytest.mark.parametrize("sigma", [1.0, 30.0, 1e3])
@pytest.mark.parametrize("n_steps", [1, 7, 50])
def test_every_node_after_the_start_lies_in_the_closed_domain_exactly(dom, sigma, n_steps):
    """The projection owns containment: each node after the start has
    level >= 0 with no tolerance, however far the Euler steps overshoot,
    so sde-sim's containment line reports a min level with no status."""
    lo, hi = dom.bounding_box
    for seed in range(3):
        path, _ = _run(dom, n_paths=400, n_steps=n_steps, seed=seed, sigma=sigma, x0=0.5 * (lo + hi))
        assert np.min(dom.level(path.X[:, 1:])) >= 0.0
        assert np.any(path.A[:, -1] > 0.0)


def test_local_time_nondecreasing_and_starts_zero():
    dom = unit_ball(1)
    path, _ = _run(dom, sigma=2.0)
    assert np.allclose(path.A[:, 0], 0.0)
    assert np.all(np.diff(path.A, axis=1) >= 0.0)
    assert float(np.max(path.A)) > 0.0  # sigma=2 on the unit ball must hit


def test_interior_run_has_zero_local_time():
    dom = unit_ball(1, radius=50.0)  # never reached in one unit of time
    path, _ = _run(dom, sigma=0.5, n_paths=50)
    assert np.all(path.A == 0.0)


def test_local_time_steps_end_on_the_boundary():
    """The increment is recorded where the projection leaves the path: on the
    boundary, inside the closure, to rounding."""
    dom = unit_ball(2)
    path, _ = _run(dom, sigma=1.2)
    level = dom.level(path.X[:, 1:])[path.dA > 0.0]
    assert level.size > 0 and np.all((level >= 0.0) & (level <= 1e-12))


def test_identity_residual_shrinks_with_dt():
    dom = unit_ball(2)
    coarse, _ = _run(dom, n_paths=400, n_steps=250, seed=7)
    fine, _ = _run(dom, n_paths=400, n_steps=500, seed=7)
    rc = local_time_identity_residual(coarse, ForwardModel(dom, 0.0, 1.0))
    rf = local_time_identity_residual(fine, ForwardModel(dom, 0.0, 1.0))
    assert rc["rms"] / rf["rms"] > 1.2


def test_identity_residual_exact_without_reflection():
    # deep interior: A = 0 and the reconstruction telescopes exactly for an
    # affine level... with curvature the Euler remainder is O(dt); check small
    dom = unit_ball(1, radius=50.0)
    path, _ = _run(dom, sigma=0.5, n_paths=20, n_steps=400)
    res = local_time_identity_residual(path, ForwardModel(dom, 0.0, 0.5))
    assert res["max"] < 1e-3


def test_simulate_rejects_outside_start():
    dom = unit_ball(2)
    grid = TimeGrid.uniform(0, 1, 10)
    noise = generate_paths(grid, 2, 2, seed=0)
    with pytest.raises(ValueError):
        simulate_reflected(ForwardModel(dom, 0.0, 1.0), np.array([2.0, 0.0]), noise)


def test_per_path_starts_match_separate_runs():
    """Each path is projected on its own: stacking paths from several start
    points reproduces each run on its own, bit for bit."""
    dom = unit_ball(2)
    grid = TimeGrid.uniform(0, 1, 200)
    starts = np.array([[0.0, 0.0], [0.6, 0.0], [0.0, -0.9]])
    alone = [simulate_reflected(ForwardModel(dom, 0.1, 1.0), x, generate_paths(grid, 2, 100, seed=j))
             for j, x in enumerate(starts)]
    noise = generate_paths(grid, 2, 300, seed=0)
    noise = PathBundle(grid, np.concatenate([p.dW for p in alone]), noise.dB, noise.A)
    stacked = simulate_reflected(ForwardModel(dom, 0.1, 1.0), np.repeat(starts, 100, axis=0), noise)
    assert np.array_equal(stacked.X, np.concatenate([p.X for p in alone]))
    assert np.array_equal(stacked.A, np.concatenate([p.A for p in alone]))
    assert np.any(stacked.A[:, -1] > 0.0)


def test_split_run_carrying_x_and_a_matches_one_run():
    """A goes on from noise.A[:, 0]: a run split at one node, with the second
    call launched from the first one's last X and A, equals one run bit for
    bit, local time included."""
    dom = unit_ball(2)
    grid = TimeGrid.uniform(0, 1, 60)
    noise = generate_paths(grid, 2, 80, seed=11)
    x0 = np.array([0.7, -0.3])
    whole = simulate_reflected(ForwardModel(dom, 0.2, 1.0), x0, noise)
    m = 23
    first = simulate_reflected(ForwardModel(dom, 0.2, 1.0), x0, PathBundle(
        TimeGrid(grid.nodes[:m + 1]), noise.dW[:, :m], noise.dB[:, :m], noise.A[:, :m + 1]))
    a = np.zeros((80, grid.n_steps - m + 1))
    a[:, 0] = first.A[:, -1]
    second = simulate_reflected(ForwardModel(dom, 0.2, 1.0), first.X[:, -1], PathBundle(
        TimeGrid(grid.nodes[m:]), noise.dW[:, m:], noise.dB[:, m:], a))
    assert np.any(first.A[:, -1] > 0.0) and np.any(second.A[:, -1] > first.A[:, -1])
    assert np.array_equal(np.concatenate([first.X, second.X[:, 1:]], axis=1), whole.X)
    assert np.array_equal(np.concatenate([first.A, second.A[:, 1:]], axis=1), whole.A)


def test_reflected_bundle_shares_its_noise():
    """simulate_reflected returns the bundle that drove it, with X and the
    local time A filled in: W, B and the grid are the input bundle's own arrays."""
    dom = unit_ball(2)
    grid = TimeGrid.uniform(0, 1, 30)
    noise = generate_paths(grid, 2, 40, seed=3, shared_backward=True)
    path = simulate_reflected(ForwardModel(dom, 0.0, 1.0), np.zeros(2), noise)
    assert noise.X is None and path.X.shape == (40, 31, 2)
    assert path.dW is noise.dW and path.dB is noise.dB and path.grid is noise.grid
    assert path.A is not noise.A and np.any(path.A[:, -1] > 0.0) and np.all(noise.A == 0.0)
    assert (path.n_paths, path.d) == (40, 2)
    small = PathBundle(grid, noise.dW[:7, :, :1], noise.dB[:7, :, :1], noise.A[:7])
    assert (small.n_paths, small.d) == (7, 1)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1e154, 1e155, 1e300])
def test_far_out_ball_point_projects_radially(scale, d):
    """Far outside the ball |x|^2 overflows.  The level then reads -inf, and
    the projection scales x before it squares, so with no warning the point
    lands at r x / |x|, not at the centre."""
    dom = unit_ball(d, radius=0.5)
    x = np.full((1, d), scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, delta = _project_out(dom, x)
        assert dom.level(out)[0] >= 0.0
    assert np.max(np.abs(out[0] - 0.5 / np.sqrt(d))) <= 1e-15
    assert delta[0] == pytest.approx(scale * np.sqrt(d), rel=1e-15)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale", [1e10, 1e150])
def test_far_out_push_is_sized_by_the_projected_point(scale, d):
    """Where r x*/|x*| rounds outside, the inward push moves it by an ulp of
    the projected point, not of x*: an ulp of x* is a jump far past the
    sphere (1.9e-6 inside at 1e10) or out of the domain (a raise at 1e150)."""
    dom = unit_ball(d)
    out, _ = _project_out(dom, np.full((1, d), scale))
    assert dom.level(out)[0] >= 0.0
    assert abs(np.linalg.norm(out[0]) - 1.0) <= 2.3e-16


@pytest.mark.parametrize("dom", [unit_ball(2), unit_ball(3), smoothed_interval()],
                         ids=["ball(d=2,r=1.0)", "ball(d=3,r=1.0)", "interval(0.0,1.0)"])
def test_non_finite_step_raises(dom):
    """A drift that overflows the Euler step is a numerical failure, not a
    path of NaN or infinite local time."""
    grid = TimeGrid.uniform(0, 1, 10)
    with pytest.raises(FloatingPointError, match="non-finite reflected path"), np.errstate(all="ignore"):
        simulate_reflected(ForwardModel(dom, lambda x: np.where(x[:, :1] > 0.5, np.inf, 10.0), 1.0),
                           np.zeros(dom.d), generate_paths(grid, dom.d, 20, seed=0))


def test_simulate_rejects_outside_per_path_start():
    dom = unit_ball(2)
    grid = TimeGrid.uniform(0, 1, 10)
    noise = generate_paths(grid, 2, 2, seed=0)
    with pytest.raises(ValueError):
        simulate_reflected(ForwardModel(dom, 0.0, 1.0), np.array([[0.0, 0.0], [2.0, 0.0]]), noise)


@pytest.mark.parametrize("dom, b, sigma, bad", [
    (unit_ball(2), 0.0, [1.0, 2.0], "sigma"),  # read as the rank-1 matrix [[1, 2], [1, 2]]
    (unit_ball(2), 0.0, np.eye(3), "sigma"),
    (unit_ball(2), [0.1, 0.2, 0.3], 1.0, "drift"),  # failed only in the step loop, on numpy's broadcast
    (unit_ball(2), [0.1], 1.0, "drift"),
    (unit_ball(2), np.zeros((2, 2)), 1.0, "drift"),
    (smoothed_interval(), 0.0, np.eye(2), "sigma"),
    (smoothed_interval(), [0.1, 0.2], 1.0, "drift"),
], ids=["ball-sigma-vector", "ball-sigma-3x3", "ball-b-3", "ball-b-1", "ball-b-matrix", "interval-sigma-2x2",
        "interval-b-2"])
def test_forward_model_rejects_a_constant_of_another_shape(dom, b, sigma, bad):
    """A constant b is a scalar or (d,), a constant sigma a scalar or (d, d):
    any other shape fails where the model is built, naming the coefficient
    by its scenario key (drift for b)."""
    with pytest.raises(ValueError, match=f"constant {bad} must be a scalar or of shape"):
        ForwardModel(dom, b, sigma)


@pytest.mark.parametrize("b, sigma, bad", [
    (0.0, np.nan, "sigma"), (np.inf, 1.0, "drift"), ([0.1, np.nan], 1.0, "drift"),
    (0.0, np.diag([1.0, np.inf]), "sigma")],
    ids=["sigma-nan", "b-inf", "b-vector-nan", "sigma-matrix-inf"])
def test_forward_model_rejects_a_non_finite_constant(b, sigma, bad):
    """A nan sigma or an inf b made every step non-finite, and the simulation
    failed blaming the time step; it fails where the model is built, naming
    b by its scenario key, drift."""
    with pytest.raises(ValueError, match=f"constant {bad} must be finite"):
        ForwardModel(unit_ball(2), b, sigma)


def test_forward_model_constant_shapes_run_as_their_scalars():
    """A (d,) b and a (d, d) sigma are accepted and run through the matrix
    step, bit for bit the scalar run when they equal b 1 and sigma I; a
    callable is not checked where the model is built."""
    dom = unit_ball(2)
    noise = generate_paths(TimeGrid.uniform(0, 1, 50), 2, 30, seed=2)
    scalar = simulate_reflected(ForwardModel(dom, 0.2, 0.7), np.zeros(2), noise)
    full = simulate_reflected(ForwardModel(dom, np.full(2, 0.2), 0.7 * np.eye(2)), np.zeros(2), noise)
    assert np.any(scalar.A[:, -1] > 0.0)
    assert np.array_equal(full.X, scalar.X) and np.array_equal(full.A, scalar.A)
    assert ForwardModel(dom, lambda x: np.zeros(3), lambda x: np.zeros(1)).domain is dom


def test_a_projection_that_stays_outside_raises():
    """A domain whose project returns its point leaves an outside point
    outside: the push moves it one ulp toward the centre per round, and
    after _PUSH_ROUNDS it is a numerical failure."""
    with pytest.raises(RuntimeError, match="projection did not reach the closed domain"):
        _project_out(replace(unit_ball(2), project=lambda x: x), np.array([[0.0, 0.0], [2.0, 0.0]]))


def _outside_points(dom, rng):
    """Shallow, far-out (50x) and just-outside (1 + 1e-15) points, radially
    around the domain's centre, scaled by its half-width."""
    lo, hi = dom.bounding_box
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    u = rng.normal(size=(300, dom.d))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    scale = np.concatenate([1.0 + rng.uniform(1e-6, 0.2, 100), np.full(100, 50.0), np.full(100, 1.0 + 1e-15)])
    return centre + half * u * scale[:, None]


def _assert_projected_exactly(dom, x_star):
    """Every point lands in the closed domain exactly, inside points stay put
    with delta = 0, outside ones move by delta > 0, and each point projects
    bit for bit as if alone.  Returns the outside mask, points and deltas."""
    out, delta = _project_out(dom, x_star)
    outside = dom.level(x_star) < 0.0
    assert np.min(dom.level(out)) >= 0.0
    assert np.all(delta[outside] > 0.0) and np.all(delta[~outside] == 0.0)
    assert np.array_equal(out[~outside], x_star[~outside])
    for j in range(len(x_star)):
        alone = _project_out(dom, x_star[j:j + 1])
        assert np.array_equal(out[j:j + 1], alone[0]) and np.array_equal(delta[j:j + 1], alone[1])
    return outside, out, delta


@pytest.mark.parametrize("kind, dom", [("ball", unit_ball(1)), ("ball", unit_ball(2)), ("ball", unit_ball(3)),
                                       ("interval", smoothed_interval())],
                         ids=["ball(d=1,r=1.0)", "ball(d=2,r=1.0)", "ball(d=3,r=1.0)", "interval(0.0,1.0)"])
def test_closed_form_push_matches_bisection(kind, dom):
    """The closed-form projection, rounded inward, is the nearest point of
    the domain, checked from geometry alone: the radial point of the ball,
    the edge the point left by for the interval; delta is the distance to it."""
    x_star = _outside_points(dom, np.random.default_rng(dom.d))
    outside, out, delta = _assert_projected_exactly(dom, x_star)
    lo, hi = dom.bounding_box[0][0], dom.bounding_box[1][0]
    if kind == "ball":
        ref = hi * x_star / np.linalg.norm(x_star, axis=-1, keepdims=True)
    else:
        ref = np.where(x_star > 0.5 * (lo + hi), hi, lo)
    assert np.max(np.abs(out[outside] - ref[outside])) <= 1e-13
    assert np.max(np.abs(delta[outside] - np.linalg.norm(x_star - ref, axis=-1)[outside])) <= 1e-12


def test_point_projecting_onto_itself_moves_toward_the_centre():
    """An x* an ulp or two outside the sphere can have r x*/|x*| round to x*
    itself.  It still lands in the closed domain, moved toward the centre,
    with delta = 0 and no NaN."""
    dom = unit_ball(2)
    u = np.random.default_rng(5).normal(size=(2000, 2))
    x = u / np.linalg.norm(u, axis=-1, keepdims=True) * (1.0 + np.arange(2000)[:, None] % 4 * 2.0 ** -53)
    stuck = x[(dom.level(x) < 0.0) & np.all(dom.project(x) == x, axis=-1)]
    out, delta = _project_out(dom, stuck)
    assert len(stuck) > 0 and np.all(np.isfinite(out)) and np.min(dom.level(out)) >= 0.0
    assert np.all(delta == 0.0)


@pytest.mark.parametrize("n_steps", [25, 100, 400, 1600])
def test_local_time_is_the_discrete_skorokhod_map(n_steps):
    """Brownian motion reflected at 0 on a wide interval: the projection is
    the discrete Skorokhod map, so A_k = max(0, max_j -W_j) pathwise."""
    dom = smoothed_interval(0.0, 10.0)
    path, _ = _run(dom, n_paths=200, n_steps=n_steps, seed=4)
    W = np.cumsum(path.dW[:, :, 0], axis=1)
    skorokhod = np.maximum(np.maximum.accumulate(-W, axis=1), 0.0)
    assert np.max(path.X) < 10.0
    assert np.max(np.abs(path.A[:, 1:] - skorokhod)) <= 1e-12


def test_reflection_determinism():
    dom = unit_ball(2)
    p1, _ = _run(dom, seed=3)
    p2, _ = _run(dom, seed=3)
    assert np.array_equal(p1.X, p2.X)
    assert np.array_equal(p1.A, p2.A)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), sigma=st.floats(0.2, 2.0))
def test_containment_property(seed, sigma):
    dom = unit_ball(1)
    grid = TimeGrid.uniform(0, 0.5, 50)
    noise = generate_paths(grid, 1, 8, seed=seed)
    path = simulate_reflected(ForwardModel(dom, 0.0, sigma), np.zeros(1), noise)
    assert float(np.min(dom.level(path.X))) >= -1e-12


# ---------------------------------------------------------------- generator

def test_generator_on_quadratic():
    # v = |x|^2: grad = 2x, hess = 2I, Lv = tr(sigma sigma^T) + 2<b, x>
    x = np.array([0.3, -0.4])

    def lv(sigma, b):
        bv, sig = _coefficients(ForwardModel(unit_ball(2), b, sigma), x)
        return float(_generator(sig, bv, 2.0 * x, 2.0 * np.eye(2)))

    assert lv(1.0, np.array([1.0, 2.0])) == pytest.approx(2.0 + 2.0 * (0.3 - 0.8))
    # callable full sigma and callable b
    sig = lambda p: np.array([[1.0, p[0]], [0.5, 2.0]])
    assert lv(sig, lambda p: p[::-1]) == pytest.approx(np.sum(sig(x) ** 2) + 2.0 * np.dot(x[::-1], x))
