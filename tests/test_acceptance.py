"""Acceptance suite: one test per criterion, each printing one pass/fail line.

Numerical targets come from three kinds of oracles: closed-form values checked
by hand, independent brute-force/scalar re-implementations computed inside the
test, and exactness properties of the schemes themselves.
"""
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from bdsvi import (
    AssumptionConstants,
    CoefficientSet,
    FieldGrid,
    FlowSpec,
    ForwardModel,
    SolverConfig,
    TimeGrid,
    cauchy_study,
    flow,
    flow_inverse,
    generate_paths,
    local_time_identity_residual,
    make_convex,
    penalization_diagnostics,
    prox_property_suite,
    sample_field,
    simulate_reflected,
    smoothed_interval,
    solve_penalized,
    unit_ball,
    verify_vi_inclusion,
)
from bdsvi.cli import run
from bdsvi.drivers import _stream
from field_stencils import boundary_residual, interior_residual, manufactured_field

ZERO = make_convex("zero")
CATALOG_NAMES = ["zero", "quadratic(1.0)", "abs", "indicator_box(-1,1)", "hinge_sq"]


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _coeffs(f=None, g=None, h=None, terminal=0.0):
    return CoefficientSet(
        f=f or (lambda t, x, y, z: np.zeros_like(y)),
        g=g or (lambda t, x, y: np.zeros_like(y)),
        h=h or (lambda t, x, y, z: np.zeros(y.shape + (z.shape[-1],))),
        terminal=terminal,
        constants=AssumptionConstants(),
    )


def _flat_a(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def test_01_prox_law_suite():
    """Gradient laws, cross-eps bound and envelope sandwich on 1e5 samples
    per catalog function; closed-form oracles at 1e-9, lattice oracle 1e-5."""
    t0 = time.perf_counter()
    worst_closed, worst_grid = -np.inf, -np.inf
    for i, name in enumerate(CATALOG_NAMES):
        theta = make_convex(name)
        worst_closed = max(worst_closed, max(prox_property_suite(
            theta, n_samples=100_000, seed=100 + i).values()))
        worst_grid = max(worst_grid, max(prox_property_suite(
            replace(theta, prox_oracle=None), n_samples=100_000, seed=200 + i).values()))
    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 1e-9 and worst_grid <= 1e-5 and elapsed < 30.0
    _report(1, "prox-law-suite", ok,
            f"closed-form worst {worst_closed:.2e}, grid worst {worst_grid:.2e}, {elapsed:.1f}s")


def test_02_zero_penalty_reduction():
    """phi = psi = 0: multipliers vanish identically and the explicit and
    implicit penalization steps coincide to 1e-12."""
    grid = TimeGrid.uniform(0, 1, 100)
    noise = generate_paths(grid, 1, 1000, seed=2024, a_spec=lambda t: np.asarray(t, float))
    coeffs = _coeffs(f=lambda t, x, y, z: -0.5 * y + 0.3,
                     g=lambda t, x, y: -0.2 * y,
                     h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.25),
                     terminal=1.5)
    se = solve_penalized(coeffs, ZERO, ZERO, SolverConfig(grid, 1e-3, "explicit-yosida"), noise)
    si = solve_penalized(coeffs, ZERO, ZERO, SolverConfig(grid, 1e-3, "implicit-prox"), noise)
    gap = float(np.max(np.abs(se.Y - si.Y)))
    mult = max(float(np.max(np.abs(se.U))), float(np.max(np.abs(se.V))),
               float(np.max(np.abs(si.U))), float(np.max(np.abs(si.V))))
    ok = gap <= 1e-12 and mult == 0.0
    _report(2, "zero-penalty-reduction", ok, f"scheme gap {gap:.2e}, multiplier sup {mult:.2e}")


def _vi_coeffs():
    return _coeffs(f=lambda t, x, y, z: np.ones_like(y))


def _ode_oracle(eps, dt):
    """Scalar explicit integration of y' = 1 - max(y - 0.5, 0)/eps from 0.
    Below the barrier the flow is y(s) = s exactly, so start the loop at 0.5."""
    y = 0.5
    n = int(round(0.5 / dt))
    for _ in range(n):
        y += dt * (1.0 - max(y - 0.5, 0.0) / eps)
    return y


def test_03_deterministic_vi_oracle():
    """Unit drift against the half-line barrier at 0.5: the fine-grid
    penalized flow plateaus at 0.5 + O(eps) and the solver must land within
    5e-3 of the limit value 0.5."""
    t0 = time.perf_counter()
    eps = 1e-4
    oracle = _ode_oracle(eps, 1e-6)
    grid = TimeGrid.uniform(0, 1, 1000)
    noise = generate_paths(grid, 1, 4, seed=7, a_spec=_flat_a)
    phi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_vi_coeffs(), phi, ZERO,
                          SolverConfig(grid, eps=eps, scheme="implicit-prox"), noise)
    y0 = float(sol.Y[0, 0, 0])
    elapsed = time.perf_counter() - t0
    ok = abs(oracle - 0.5) <= 2 * eps and abs(y0 - 0.5) <= 5e-3 and elapsed < 10.0
    _report(3, "deterministic-vi-oracle", ok,
            f"Y0 {y0:.6f}, fine-grid oracle {oracle:.6f}, {elapsed:.1f}s")


def test_04_cauchy_rate():
    """Coupled runs along eps in {1e-1..1e-4}: the weighted sup gap between
    consecutive runs scales linearly in (eps + delta)."""
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(0, 1, 20000)  # explicit scheme needs dt <= min eps
    noise = generate_paths(grid, 1, 2, seed=7, a_spec=_flat_a)
    phi = make_convex("indicator_box(-inf,0.5)")
    rep = cauchy_study(_vi_coeffs(), phi, ZERO, SolverConfig(grid, eps=1e-1, scheme="explicit-yosida"),
                       [1e-1, 1e-2, 1e-3, 1e-4], noise)
    elapsed = time.perf_counter() - t0
    ok = 0.75 <= rep.slope <= 1.25 and elapsed < 60.0
    _report(4, "cauchy-rate", ok, f"slope {rep.slope:.3f}, {elapsed:.1f}s")


def test_05_penalization_distance():
    """sup_t E w_t |Y - J_eps(Y)|^2 / eps stays bounded along the ladder
    (ratio <= 10); backward noise keeps the value pressed on the barrier."""
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(0, 1, 10000)
    noise = generate_paths(grid, 1, 64, seed=3, a_spec=_flat_a)
    coeffs = _coeffs(f=lambda t, x, y, z: np.ones_like(y),
                     h=lambda t, x, y, z: np.full(y.shape + (z.shape[-1],), 0.3))
    phi = make_convex("indicator_box(-inf,0.5)")
    ratios = []
    for eps in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3):
        sol = solve_penalized(coeffs, phi, ZERO,
                              SolverConfig(grid, eps=eps, scheme="explicit-yosida"), noise)
        d = penalization_diagnostics(sol)
        ratios.append(d["sup_resolvent_dist"] / eps)
    spread = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    ok = spread <= 10.0
    _report(5, "penalization-distance", ok, f"max/min ratio {spread:.2f}, {elapsed:.1f}s")


def test_06_reflected_diffusion():
    """Unit-ball reflection: containment, every step with dA > 0 ending on
    the boundary (0 <= level <= 1e-12), and first-order shrinkage of the
    pathwise reconstruction residual."""
    t0 = time.perf_counter()
    dom = unit_ball(2)
    model = ForwardModel(dom, 0.0, 1.0)
    grid = TimeGrid.uniform(0, 1, 1000)
    noise = generate_paths(grid, 2, 10_000, seed=5, shared_backward=True)
    path = simulate_reflected(model, np.zeros(2), noise)
    containment = float(np.min(dom.level(path.X)))
    pushed = dom.level(path.X[:, 1:])[path.dA > 0.0]  # the step-end levels of the local-time steps

    grid2 = TimeGrid.uniform(0, 1, 2000)
    r1 = local_time_identity_residual(
        simulate_reflected(model, np.zeros(2), generate_paths(grid, 2, 2000, seed=6, shared_backward=True)),
        model)
    r2 = local_time_identity_residual(
        simulate_reflected(model, np.zeros(2), generate_paths(grid2, 2, 2000, seed=6, shared_backward=True)),
        model)
    shrink = r1["rms"] / r2["rms"]
    elapsed = time.perf_counter() - t0
    lo, hi = float(np.min(pushed, initial=np.inf)), float(np.max(pushed, initial=-np.inf))
    on_boundary = pushed.size > 0 and 0.0 <= lo and hi <= 1e-12
    ok = containment >= -1e-12 and on_boundary and shrink >= 1.3 and elapsed < 60.0
    _report(6, "reflected-diffusion", ok,
            f"min level {containment:.1e}, {pushed.size} local-time steps end at level [{lo:.1e}, {hi:.1e}], "
            f"residual shrink {shrink:.2f}x, {elapsed:.1f}s")


def test_07_doss_sussmann():
    """Constant coefficient reproduces the Brownian shift to 1e-10; the linear
    coefficient has strong order >= 0.9 against the exponential; inversion
    round-trips 1e3 queries to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    times = np.linspace(0.3, 1.0, 201)
    B = np.concatenate([[0.0], np.cumsum(rng.normal(size=200) * np.sqrt(np.diff(times)))])
    const = FlowSpec(h=lambda t, x, u: 0.7 + 0.0 * np.asarray(u),
                     d_u=lambda t, x, u: 0.0 * np.asarray(u))
    y = rng.uniform(-2, 2, 1000)
    s = flow(const, np.zeros(1), y, times, B)
    const_err = float(np.max(np.abs(s.eta - (y + 0.7 * (B[-1] - B[0])))))

    linear = FlowSpec(h=lambda t, x, u: np.asarray(u, dtype=float),
                      d_u=lambda t, x, u: np.ones_like(np.asarray(u, dtype=float)))
    n_fine = 512
    errs = {m: [] for m in (16, 32, 64, 128)}
    for _ in range(60):
        dB = rng.normal(size=n_fine) * np.sqrt(0.7 / n_fine)
        Bf = np.concatenate([[0.0], np.cumsum(dB)])
        tf = np.linspace(0.3, 1.0, n_fine + 1)
        exact = 0.8 * np.exp(Bf[-1])
        for m in errs:
            k = n_fine // m
            sm = flow(linear, np.zeros(1), np.array([0.8]), tf[::k], Bf[::k])
            errs[m].append(abs(float(sm.eta[0]) - exact))
    ms = np.array(sorted(errs))
    order = float(np.polyfit(np.log(0.7 / ms),
                             np.log([np.mean(errs[m]) for m in ms]), 1)[0])

    q = rng.uniform(-2, 2, 1000)
    sq = flow(linear, np.zeros(1), q, times, B)
    round_trip = float(np.max(np.abs(flow_inverse(linear, np.zeros(1), sq.eta, times, B) - q)))
    elapsed = time.perf_counter() - t0
    ok = const_err <= 1e-10 and order >= 0.9 and round_trip <= 1e-9 and elapsed < 30.0
    _report(7, "doss-sussmann-flow", ok,
            f"shift err {const_err:.1e}, strong order {order:.2f}, "
            f"round trip {round_trip:.1e}, {elapsed:.1f}s")


def test_08_field_sampler():
    """Exact constant field, linear-in-time field within 2*dt, and the
    manufactured quadratic passing both residual stencils at 5e-2."""
    dom = smoothed_interval(-1.0, 1.0)
    cfg = SolverConfig(TimeGrid.uniform(0, 1, 50), eps=1e-3,
                       scheme="implicit-prox", regression=("poly", 2))
    fg = FieldGrid.build(dom, np.linspace(0, 1, 5), np.linspace(-1, 1, 5)[:, None])
    model = ForwardModel(dom, 0.0, 1.0)

    const = sample_field(model, _coeffs(terminal=0.7), ZERO, ZERO, cfg, fg, 30, seed=1)
    const_err = float(np.max(np.abs(const.values - 0.7)))

    drift = sample_field(model, _coeffs(f=lambda t, x, y, z: np.ones_like(y)),
                         ZERO, ZERO, cfg, fg, 50, seed=2)
    lin_err = float(np.max(np.abs(drift.values - (1.0 - fg.times)[:, None])))

    fg20 = FieldGrid.build(dom, np.linspace(0, 1, 20), np.linspace(-1, 1, 20)[:, None])
    manu = manufactured_field(lambda t, x: float(np.sum(x * x)), fg20)
    ir = interior_residual(manu, _coeffs(f=lambda t, x, y, z: -np.ones_like(y)), ZERO, 0.0, model)
    br = boundary_residual(manu, _coeffs(g=lambda t, x, y: 2.0 * np.ones_like(y)),
                           ZERO, 0.0, dom)
    ok = (const_err <= 1e-12 and lin_err <= 2 * cfg.grid.max_dt
          and ir["max_abs"] <= 5e-2 and br["max_abs"] <= 5e-2)
    _report(8, "field-sampler", ok,
            f"constant err {const_err:.1e}, drift err {lin_err:.1e} (<= {2*cfg.grid.max_dt:.1e}), "
            f"residuals {ir['max_abs']:.1e}/{br['max_abs']:.1e}")


def test_09_vi_inclusion():
    """Multiplier of the converged barrier run satisfies the subgradient
    inequality against the test slopes within 1e-2."""
    grid = TimeGrid.uniform(0, 1, 1000)
    noise = generate_paths(grid, 1, 4, seed=7, a_spec=_flat_a)
    phi = make_convex("indicator_box(-inf,0.5)")
    sol = solve_penalized(_vi_coeffs(), phi, ZERO,
                          SolverConfig(grid, eps=1e-4, scheme="implicit-prox"), noise)
    out = verify_vi_inclusion(sol, [-1.0, 0.0, 0.25, 0.5])
    ok = out["worst_phi"] <= 1e-2 and out["phi_infinite_nodes"] == 0
    _report(9, "vi-inclusion", ok,
            f"worst violation {out['worst_phi']:.2e}, infinite nodes {out['phi_infinite_nodes']}")


def test_10_determinism(tmp_path):
    """Reruns of a scenario with the same seed produce byte-identical CSVs,
    independent of the BLAS/OpenMP thread count."""
    import os
    scen = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "zero.yaml")
    blobs = []
    for i, threads in enumerate(("1", "4")):
        out = tmp_path / f"run{i}"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from bdsvi.cli import run; sys.exit(run(sys.argv[1:]))",
             "solve", "--scenario", scen, "--out", str(out), "--paths", "200", "--quiet"],
            env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        blobs.append((out / "solve.csv").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report(10, "determinism", ok,
            f"byte-identical across thread counts: {blobs[0] == blobs[1]}")


def _time_a(t):
    return np.asarray(t, dtype=float)


def test_11_psi_local_time_oracle():
    """psi acts through dA alone.  With A = t (dA = dt) and unit drift, the
    psi barrier at 0.5 caps Y0 at 0.5 with multiplier V = 1 where it binds
    and U = 0; with barriers at 0.5 and 0.3 on phi and psi, in either order,
    Y0 = 0.3 and only the binding channel carries the multiplier 1 (implicit
    prox, 1000 steps).  explicit-yosida takes its psi step as the resolvent
    of the envelope psi_eps over dA = dt, so it settles on the plateau of the
    continuous penalized equation, where the drift 1 meets the Yosida
    gradient (Y - 0.5) / eps: Y0 = 0.5 + eps = 0.5001 at 20000 steps, with no
    dt bias."""
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(0, 1, 1000)
    noise = generate_paths(grid, 1, 4, seed=7, a_spec=_time_a)
    lo, hi = make_convex("indicator_box(-inf,0.3)"), make_convex("indicator_box(-inf,0.5)")
    worst = 0.0
    for phi, psi, cap, psi_binds in ((ZERO, hi, 0.5, True), (hi, lo, 0.3, True), (lo, hi, 0.3, False)):
        sol = solve_penalized(_vi_coeffs(), phi, psi,
                              SolverConfig(grid, eps=1e-4, scheme="implicit-prox"), noise)
        binding, idle = (sol.V, sol.U) if psi_binds else (sol.U, sol.V)
        worst = max(worst, abs(float(sol.Y[0, 0, 0]) - cap), abs(float(np.max(binding)) - 1.0))
        worst = max(worst, float(np.max(np.abs(idle))))
    eps, fine = 1e-4, TimeGrid.uniform(0, 1, 20000)
    sol = solve_penalized(_vi_coeffs(), ZERO, hi, SolverConfig(fine, eps=eps, scheme="explicit-yosida"),
                          generate_paths(fine, 1, 2, seed=7, a_spec=_time_a))
    explicit = abs(float(sol.Y[0, 0, 0]) - (0.5 + eps))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and explicit <= 1e-12 and elapsed < 30.0
    _report(11, "psi-local-time-oracle", ok,
            f"implicit worst {worst:.1e}, explicit err {explicit:.1e}, {elapsed:.1f}s")


def test_12_field_backward_noise_oracle():
    """With f = g = 0, h(y) = c y and a constant terminal xi, the
    right-endpoint step gives u(t_j, x; B) = xi * prod_{i >= j} (1 + c dB_i)
    exactly, at every lattice node, for each draw of B.  Here c = 0.8,
    xi = 0.7, poly 2, 3 draws, at 50 and 400 steps.  The gap of that product
    to the continuum answer xi * exp(c (B_T - B_t) - c^2 (T - t) / 2) is
    reported, not gated: 0.057 at 50 steps and 0.034 at 400 (seed 1)."""
    c, xi, seed, draws = 0.8, 0.7, 1, 3
    coeffs = _coeffs(h=lambda t, x, y, z: c * y[..., None], terminal=xi)
    dom = smoothed_interval(-1.0, 1.0)
    model = ForwardModel(dom, 0.0, 1.0)
    fg = FieldGrid.build(dom, np.linspace(0, 1, 5), np.linspace(-1, 1, 5)[:, None])
    errs, gaps = [], []
    for steps in (50, 400):
        cfg = SolverConfig(TimeGrid.uniform(0, 1, steps), eps=1e-3,
                           scheme="implicit-prox", regression=("poly", 2))
        est = sample_field(model, coeffs, ZERO, ZERO, cfg, fg, 20, seed=seed, n_b_draws=draws)
        grid = cfg.grid
        j = np.searchsorted(grid.nodes, fg.times - 1e-12)
        err = gap = 0.0
        for draw in range(draws):
            dB = _stream(seed, "B_SHARED", draw).standard_normal(grid.n_steps) * np.sqrt(grid.dt)
            exact = np.array([xi * np.prod(1.0 + c * dB[k:]) for k in j])
            continuum = xi * np.exp(np.array([c * dB[k:].sum() for k in j]) - c * c * (1.0 - grid.nodes[j]) / 2)
            err = max(err, float(np.max(np.abs(est.per_draw[draw] - exact[:, None]))))
            gap = max(gap, float(np.max(np.abs(exact - continuum))))
        errs.append(err)
        gaps.append(gap)
    ok = max(errs) <= 1e-12
    _report(12, "field-backward-noise-oracle", ok,
            f"product err {errs[0]:.1e}/{errs[1]:.1e}, continuum gap {gaps[0]:.3f}/{gaps[1]:.3f} "
            f"(50/400 steps)")


def test_13_local_time_oracle(tmp_path):
    """Brownian motion reflected at 0 on the wide interval [0, 10], T = 1:
    E[L_T] = sqrt(2/pi), and the discrete Skorokhod map undershoots it by
    the continuity correction 0.5826 sqrt(dt) (Broadie, Glasserman & Kou
    1997).  E[A_T] over 20000 paths lies within 3 standard errors of
    sqrt(2/pi) - 0.5826 sqrt(dt) at 100 and 400 steps.  bdsvi solve with
    g = 1, f = h = 0 and terminal 0 returns Y_0 = E[A_T] on the same paths."""
    t0 = time.perf_counter()
    dom, seed, n_paths = smoothed_interval(0.0, 10.0), 13, 20_000
    zs, means = [], {}
    for steps in (100, 400):
        grid = TimeGrid.uniform(0, 1, steps)
        noise = generate_paths(grid, 1, n_paths, seed=seed, shared_backward=True)
        a_T = simulate_reflected(ForwardModel(dom, 0.0, 1.0), np.zeros(1), noise).A[:, -1]
        means[steps] = float(np.mean(a_T))
        target = np.sqrt(2.0 / np.pi) - 0.5826 * np.sqrt(grid.max_dt)
        zs.append(abs(means[steps] - target) / (np.std(a_T, ddof=1) / np.sqrt(n_paths)))

    scenario = {
        "name": "local-time-oracle", "phi": "zero", "psi": "zero",
        "coefficients": {"f": {"kind": "zero"}, "g": {"kind": "constant", "value": 1.0},
                         "h": {"kind": "zero"}, "terminal": {"kind": "constant", "value": 0.0}},
        "constants": {"beta1": 0.0, "beta2": 0.0, "K": 0.0, "alpha": 0.5, "lam": 3.0, "mu": 1.5},
        "domain": {"kind": "interval", "lo": 0.0, "hi": 10.0}, "start": [0.0], "sigma": 1.0, "drift": 0.0,
        "grid": {"t0": 0.0, "T": 1.0, "steps": 100},
        "solver": {"eps": 1.0e-3, "scheme": "implicit-prox", "regression": {"kind": "poly", "degree": 2}},
        "paths": n_paths, "seed": seed,
    }
    path = tmp_path / "oracle.yaml"
    path.write_text(yaml.safe_dump(scenario))
    code = run(["solve", "--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    y0 = float(np.loadtxt(tmp_path / "out" / "solve.csv", delimiter=",", skiprows=1)[0, 1])
    elapsed = time.perf_counter() - t0
    ok = max(zs) <= 3.0 and code == 0 and abs(y0 - means[100]) <= 1e-10 and elapsed < 60.0
    _report(13, "local-time-oracle", ok,
            f"E[A_T] {means[100]:.4f}/{means[400]:.4f} at {zs[0]:.2f}/{zs[1]:.2f} SE (100/400 steps), "
            f"solve Y_0 gap {abs(y0 - means[100]):.1e}, {elapsed:.1f}s")
