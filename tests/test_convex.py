import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from bdsvi import (
    AssumptionConstants,
    check_compatibility,
    grid_prox_oracle,
    make_convex,
    moreau_envelope,
    prox,
    prox_property_suite,
    validate_weights,
    yosida_gradient,
)
from bdsvi.convex import CATALOG
from bdsvi.scenarios import make_coefficients
from prox_reference import unblocked_grid_prox_oracle

CATALOG_NAMES = ["zero", "quadratic(1.0)", "abs", "indicator_box(-1,1)", "hinge_sq"]


def _arr(*vals):
    return np.array(vals, dtype=float)


# ---------------------------------------------------------------- prox values

def test_prox_quadratic_closed_form():
    q = make_convex("quadratic(1.0)")
    assert prox(q, 1.0, _arr(2.0)) == pytest.approx(1.0)


def test_prox_zero_is_identity():
    z = make_convex("zero")
    assert prox(z, 0.7, _arr(3.7)) == pytest.approx(3.7)


def test_prox_abs_soft_threshold():
    ab = make_convex("abs")
    assert prox(ab, 0.5, _arr(2.0)) == pytest.approx(1.5)
    assert prox(ab, 0.5, _arr(-2.0)) == pytest.approx(-1.5)
    assert prox(ab, 0.5, _arr(0.3)) == pytest.approx(0.0)


def test_prox_rejects_bad_inputs():
    q = make_convex("quadratic(1.0)")
    with pytest.raises(ValueError):
        prox(q, -1.0, _arr(1.0))
    with pytest.raises(ValueError):
        prox(q, 1.0, _arr(np.nan))



@pytest.mark.parametrize("lattice", [False, True])
def test_prox_zero_eps_entries_are_identity(lattice):
    """eps = 0 entries of an eps array return x unchanged, also where the
    oracle would meet 0 * theta = 0 * inf off the domain."""
    box = make_convex("indicator_box(-1,1)")
    if lattice:
        box = replace(box, prox_oracle=None)
    with np.errstate(all="raise"):
        out = prox(box, _arr(0.0, 0.5), np.array([[2.0], [2.0]]))
    assert out[0, 0] == 2.0
    assert out[1, 0] == pytest.approx(1.0, abs=1e-7)

# ---------------------------------------------------------------- envelope

def test_envelope_quadratic():
    q = make_convex("quadratic(1.0)")
    assert moreau_envelope(q, 1.0, _arr(2.0)) == pytest.approx(1.0)


def test_envelope_zero():
    z = make_convex("zero")
    assert moreau_envelope(z, 1.0, _arr(5.0)) == pytest.approx(0.0)


def test_envelope_abs_grid_value():
    # oracle: minimize 0.5(2-y)^2 + 0.5|y| on a fine lattice
    ab = make_convex("abs")
    y = np.linspace(-4, 4, 80001)
    oracle = np.min(0.5 * (2.0 - y) ** 2 + 0.5 * np.abs(y))
    assert moreau_envelope(ab, 0.5, _arr(2.0)) == pytest.approx(oracle, abs=1e-7)
    assert moreau_envelope(ab, 0.5, _arr(2.0)) == pytest.approx(0.875)


def test_envelope_zero_eps_is_theta_off_domain():
    # theta_0 = theta: +inf outside Dom(theta), not 0 * inf = nan
    box = make_convex("indicator_box(-1,1)")
    with np.errstate(all="raise"):
        off = moreau_envelope(box, 0.0, _arr(2.0))
        mixed = moreau_envelope(box, _arr(0.0, 0.5), np.array([[2.0], [2.0]]))
    assert off == np.inf
    assert mixed[0] == np.inf
    assert mixed[1] == pytest.approx(0.5)


# ---------------------------------------------------------------- gradient

def test_yosida_gradient_quadratic():
    q = make_convex("quadratic(1.0)")
    assert yosida_gradient(q, 1.0, _arr(2.0)) == pytest.approx(1.0)


def test_yosida_gradient_half_line_indicator():
    ind = make_convex("indicator_box(-inf,0)")
    assert yosida_gradient(ind, 0.25, _arr(3.0)) == pytest.approx(12.0)


def test_yosida_gradient_abs_via_grid():
    ab = replace(make_convex("abs"), prox_oracle=None)
    g = yosida_gradient(ab, 0.5, _arr(2.0))
    assert g == pytest.approx(1.0, abs=1e-5)


def test_yosida_gradient_requires_positive_eps():
    q = make_convex("quadratic(1.0)")
    with pytest.raises(ValueError):
        yosida_gradient(q, 0.0, _arr(1.0))


# ---------------------------------------------------------------- grid oracle

def test_grid_oracle_matches_quadratic():
    q = make_convex("quadratic(1.0)")
    assert grid_prox_oracle(q, 1.0, _arr(2.0)) == pytest.approx(1.0, abs=1e-4)


def test_grid_oracle_hinge_flat_side():
    h = make_convex("hinge_sq")
    assert grid_prox_oracle(h, 1.0, _arr(-1.0)) == pytest.approx(-1.0, abs=1e-6)


def test_grid_oracle_abs_negative_branch():
    ab = make_convex("abs")
    assert grid_prox_oracle(ab, 0.5, _arr(-2.0)) == pytest.approx(-1.5, abs=1e-4)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_grid_oracle_agrees_with_closed_form(name):
    theta = make_convex(name)
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, (50, 1))
    eps = rng.uniform(0.05, 1.0, 50)
    assert np.allclose(grid_prox_oracle(theta, eps, x), theta.prox_oracle(eps, x), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_grid_oracle_k1_small_eps_within_stated_bound(name):
    # down to eps = 1e-3, where the law suite scales prox error by 1/eps;
    # bound from the docstring: 1e-8/100 + sqrt(8 ulp(|F*|)), curvature >= 1
    theta = make_convex(name)
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 3, (5000, 1))
    eps = 10.0 ** rng.uniform(-3.0, 0.0, 5000)
    exact = theta.prox_oracle(eps, x)
    f_min = 0.5 * (x[:, 0] - exact[:, 0]) ** 2 + eps * theta.evaluate(exact)
    bound = 1e-8 / 100 + np.sqrt(8.0 * np.spacing(np.abs(f_min)))
    err = np.abs(grid_prox_oracle(theta, eps, x) - exact)[:, 0]
    assert np.all(err <= bound), float(np.max(err - bound))


def test_grid_oracle_two_dim():
    q = make_convex("quadratic(2.0)")
    x = np.array([[1.0, -2.0]])
    assert np.allclose(grid_prox_oracle(q, 0.5, x), x / 2.0, rtol=0.0, atol=1e-6)


def _edge_heavy_points(rng, n, k):
    """Points over [-3, 3]^k, a third of them near the domain hint's edges at +-2 of
    indicator_box(-1,1), where the search windows are clipped at the hint."""
    x = rng.uniform(-3.0, 3.0, (n, k))
    near = rng.uniform(1.9, 2.4, (n // 3, k)) * rng.choice([-1.0, 1.0], (n // 3, k))
    x[: n // 3] = near
    return rng.permutation(x)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_grid_oracle_k1_matches_the_unblocked_passes(name):
    # 5000 points: two golden-section blocks, each of several lattice sub-blocks
    theta = replace(make_convex(name), prox_oracle=None)
    rng = np.random.default_rng(11)
    x = _edge_heavy_points(rng, 5000, 1)
    eps = 10.0 ** rng.uniform(-4.0, 1.0, 5000)
    got = grid_prox_oracle(theta, eps, x)
    assert got.tobytes() == unblocked_grid_prox_oracle(theta, eps, x).tobytes()
    got = grid_prox_oracle(theta, eps.reshape(50, 100), x.reshape(50, 100, 1))  # batch axes in front
    assert got.shape == (50, 100, 1) and got.tobytes() == unblocked_grid_prox_oracle(theta, eps, x).tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_grid_oracle_k2_matches_the_unblocked_stages(name):
    """Several stage blocks with mixed eps.  Windows clipped at the hint are
    narrower than the rest, so a per-block or per-point stop rule would end
    their stages early; the batch-wide rule keeps them to the same bits."""
    theta = replace(make_convex(name), prox_oracle=None)
    rng = np.random.default_rng(12)
    x = _edge_heavy_points(rng, 150, 2)
    eps = 10.0 ** rng.uniform(-3.0, 0.5, 150)
    ref = unblocked_grid_prox_oracle(theta, eps, x)
    assert grid_prox_oracle(theta, eps, x).tobytes() == ref.tobytes()
    got = grid_prox_oracle(theta, eps.reshape(3, 50), x.reshape(3, 50, 2))
    assert got.shape == (3, 50, 2) and got.tobytes() == ref.tobytes()
    one = grid_prox_oracle(theta, eps[0], x[0])  # a single point, no batch axis
    assert one.shape == (2,) and one.tobytes() == unblocked_grid_prox_oracle(theta, eps[0], x[0]).tobytes()


def test_grid_oracle_rejects_high_dim():
    q = make_convex("quadratic(1.0)")
    with pytest.raises(ValueError):
        grid_prox_oracle(q, 1.0, np.zeros((2, 3)))


# ---------------------------------------------------------------- catalog invariants

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_zero_normalization(name):
    theta = make_convex(name)
    assert float(theta.evaluate(np.zeros(1))) == 0.0
    rng = np.random.default_rng(1)
    vals = theta.evaluate(rng.uniform(-5, 5, (200, 1)))
    assert np.all(vals >= 0.0)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(CATALOG_NAMES),
    a=st.floats(-0.9, 0.9),
    b=st.floats(-0.9, 0.9),
    t=st.floats(0.0, 1.0),
)
def test_catalog_convexity(name, a, b, t):
    theta = make_convex(name)
    va = float(theta.evaluate(_arr(a)))
    vb = float(theta.evaluate(_arr(b)))
    vm = float(theta.evaluate(_arr(t * a + (1 - t) * b)))
    assert vm <= t * va + (1 - t) * vb + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(CATALOG_NAMES),
    x=st.floats(-5, 5),
    y=st.floats(-5, 5),
    eps=st.floats(1e-3, 2.0),
)
def test_resolvent_nonexpansive(name, x, y, eps):
    theta = make_convex(name)
    jx = prox(theta, eps, _arr(x))
    jy = prox(theta, eps, _arr(y))
    assert abs(float(jx[0] - jy[0])) <= abs(x - y) + 1e-12


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_property_suite_closed_form(name):
    worst = prox_property_suite(make_convex(name), n_samples=3000, seed=2)
    assert max(worst.values()) <= 1e-9, worst


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_property_suite_grid_oracle(name):
    theta = replace(make_convex(name), prox_oracle=None)
    worst = prox_property_suite(theta, n_samples=500, seed=3)
    assert max(worst.values()) <= 1e-5, worst


def test_property_suite_catches_a_box_prox_that_stops_short():
    """A resolvent of the indicator of [-1, 1] that clips to [-0.5, 0.5]
    leaves the multiplier (x - 0.5) / eps at j = 0.5, which is no subgradient
    there: the law fails at the test point r = 1 inside the box."""
    box = make_convex("indicator_box(-1,1)")
    wrong = replace(box, prox_oracle=lambda eps, x: np.clip(x, -0.5, 0.5))
    assert prox_property_suite(wrong, n_samples=2000, seed=0)["subgradient"] > 100.0
    assert prox_property_suite(box, n_samples=2000, seed=0)["subgradient"] <= 1e-9


# ---------------------------------------------------------------- weights

def test_weight_bounds_k1():
    rep = validate_weights(AssumptionConstants(0, 0, 1.0, 0.5, 12.0, 2.0))
    assert rep.lam_bound == pytest.approx(11.0)
    assert rep.mu_bound == pytest.approx(1.0)
    assert rep.ok


def test_weight_bounds_k0():
    rep = validate_weights(AssumptionConstants(0, 0, 0.0, 0.5, 2.5, 1.5))
    assert rep.lam_bound == pytest.approx(2.0)
    assert rep.mu_bound == pytest.approx(1.0)
    assert rep.ok


def test_weight_bounds_fail_case():
    rep = validate_weights(AssumptionConstants(1.0, 1.0, 1.0, 0.5, 10.0, 4.0))
    assert rep.lam_bound == pytest.approx(15.0)
    assert not rep.ok
    assert rep.lam_margin == pytest.approx(-5.0)


def test_weight_alpha_validation():
    with pytest.raises(ValueError):
        validate_weights(AssumptionConstants(alpha=1.5))


# ---------------------------------------------------------------- compatibility

def _samples(n=32, seed=5):
    """t and the sample arrays y (n, 1), z (n, 1, 1) of check_compatibility."""
    rng = np.random.default_rng(seed)
    return 0.3, rng.uniform(-3, 3, (n, 1)), rng.uniform(-3, 3, (n, 1, 1))


ONES_F = lambda t, x, y, z: np.ones_like(y)
ONES_G = lambda t, x, y: np.ones_like(y)


def test_compat_identical_functions():
    q = make_convex("quadratic(1.0)")
    rep = check_compatibility(q, q, ONES_F, ONES_G, [0.1, 0.01], *_samples())
    assert rep.worst_i <= 1e-12


def test_compat_zero_pair():
    """All three products are -0.0 here; the report holds +0.0, so the CLI
    never writes -0."""
    z = make_convex("zero")
    rep = check_compatibility(z, z, ONES_F, ONES_G, [0.1, 0.01], *_samples())
    assert rep.ok
    assert max(rep.worst_i, rep.worst_ii, rep.worst_iii) == 0.0
    assert all(np.copysign(1.0, w) == 1.0 for w in (rep.worst_i, rep.worst_ii, rep.worst_iii))


def test_compat_abs_vs_quadratic_reports():
    rep = check_compatibility(make_convex("abs"), make_convex("quadratic(1.0)"), ONES_F, ONES_G,
                              [0.1, 0.01], *_samples())
    # signs of the two gradients always agree here, so (i) holds; the
    # one-sided bounds may or may not, the report just has to quantify them
    assert rep.worst_i <= 1e-12
    assert np.isfinite(max(rep.worst_i, rep.worst_ii, rep.worst_iii))


def _compat_per_sample(phi, psi, f, g, eps_ladder, t, y, z):
    """The three coupling violations one rung and one sample at a time."""
    worst = [0.0, 0.0, 0.0]
    for eps in eps_ladder:
        for yi, zi in zip(y, z):
            gp, gq = yosida_gradient(phi, eps, yi), yosida_gradient(psi, eps, yi)
            gv, fv = g(t, None, yi[None])[0], f(t, None, yi[None], zi[None])[0]
            worst[0] = max(worst[0], -float(np.dot(gp, gq)))
            worst[1] = max(worst[1], float(np.dot(gp, gv)) - max(float(np.dot(gq, gv)), 0.0))
            worst[2] = max(worst[2], float(np.dot(gq, fv)) - max(float(np.dot(gp, fv)), 0.0))
    return worst


@pytest.mark.parametrize("phi, psi", [("abs", "quadratic(1.0)"), ("hinge_sq", "indicator_box(-1,1)"),
                                      ("indicator_box(-inf,0.5)", "abs")])
def test_batched_compat_matches_per_sample_loop(phi, psi):
    """One pass over every rung and sample gives the per-sample loop's
    worst violations bit for bit, on pairs with affine f and g that violate
    the coupling bounds."""
    f, g, _ = make_coefficients({"f": {"kind": "linear", "a_y": 0.7, "a_z": -0.4, "c": 0.3},
                                 "g": {"kind": "linear", "a_y": -1.2, "c": 0.5}})
    phi, psi = make_convex(phi), make_convex(psi)
    ladder = [1e-1, 1e-2, 1e-3]
    rep = check_compatibility(phi, psi, f, g, ladder, *_samples(n=64, seed=11))
    ref = _compat_per_sample(phi, psi, f, g, ladder, *_samples(n=64, seed=11))
    assert [rep.worst_i, rep.worst_ii, rep.worst_iii] == ref
    assert rep.ok == (max(ref) <= 1e-9)
    assert max(ref) > 0.0  # the check has something to compare


def test_make_convex_rejects_unknown():
    with pytest.raises(KeyError):
        make_convex("nope(1.0)")


def test_indicator_box_must_contain_zero():
    with pytest.raises(ValueError):
        make_convex("indicator_box(1,2)")


def test_catalog_is_complete():
    assert set(CATALOG) == {"zero", "quadratic", "abs", "indicator_box", "hinge_sq"}


# ---------------------------------------------------------------- short last-axis sums

def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def _layouts(k, seed=0):
    """(50, 30, k) values with signed zeros, infinities and nans in C, F and
    node-major layouts, plus an all -0.0 block."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(50, 30, k))
    for frac, v in ((0.2, -0.0), (0.05, 0.0), (0.02, np.inf), (0.02, -np.inf), (0.02, np.nan)):
        a[rng.random(a.shape) < frac] = v
    return {"C": a, "F": np.asfortranarray(a),
            "node-major": np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2),
            "negative-zeros": np.full((5, 3, k), -0.0)}


@pytest.mark.parametrize("k", range(0, 9))
def test_sum_last_is_np_sum_bit_for_bit(k):
    """np.sum over a last axis of 0 < k < 8 adds left to right from +0.0 in
    every layout; from k = 8 on it sums pairwise, and _sum_last falls back to
    it, as it does for an empty axis."""
    from bdsvi.convex import _sum_last
    for name, v in _layouts(k).items():
        with np.errstate(invalid="ignore"):  # inf + -inf
            ref, got = np.sum(v, axis=-1), _sum_last(v)
        assert _bits(got) == _bits(ref), (name, k)
        assert got.strides == ref.strides, (name, k)  # later reductions add in this layout's order
        assert not np.shares_memory(got, v)
    if k < 8:  # a sum of -0.0 terms starts from +0.0
        assert not np.signbit(_sum_last(np.full((3, k), -0.0))).any()


def _old_evaluate(name, x):
    """The catalog's evaluate maps in their np.sum / np.all form."""
    if name == "zero":
        return np.zeros(x.shape[:-1])
    if name == "quadratic(1.0)":
        return 0.5 * 1.0 * np.sum(x * x, axis=-1)
    if name == "abs":
        return np.sum(np.abs(x), axis=-1)
    if name == "indicator_box(-1,1)":
        return np.where(np.all((x >= -1.0) & (x <= 1.0), axis=-1), 0.0, np.inf)
    return np.sum(np.maximum(x, 0.0) ** 2, axis=-1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_evaluate_matches_the_reduction_form(name, k):
    theta = make_convex(name)
    for layout, v in _layouts(k, seed=k).items():
        v = np.where(np.isnan(v), 0.5, v)  # evaluate's inputs are numbers, +-inf at most
        with np.errstate(invalid="ignore"):
            assert _bits(theta.evaluate(v)) == _bits(_old_evaluate(name, v)), layout


def _four_call_suite(theta, n_samples, seed, k):
    """prox_property_suite as two prox and two yosida_gradient calls, the form
    the stacked resolvent pass replaces."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, (n_samples, k))
    y = rng.uniform(-3.0, 3.0, (n_samples, k))
    eps = 10.0 ** rng.uniform(-3.0, 0.0, n_samples)
    delta = 10.0 ** rng.uniform(-3.0, 0.0, n_samples)
    jx = prox(theta, eps, x)
    jy = prox(theta, eps, y)
    gx = (x - jx) / eps[:, None]
    gy = (y - jy) / eps[:, None]
    gyd = yosida_gradient(theta, delta, y)
    dxy = np.sqrt(np.sum((x - y) ** 2, axis=-1))
    worst = {}
    worst["nonexpansive"] = float(np.max(np.sqrt(np.sum((jx - jy) ** 2, -1)) - dxy))
    worst["lipschitz"] = float(np.max(np.sqrt(np.sum((gx - gy) ** 2, -1)) - dxy / eps))
    worst["monotone"] = float(np.max(-np.sum((gx - gy) * (x - y), -1)))
    worst["cross_eps"] = float(np.max(
        -(np.sum((gx - gyd) * (x - y), -1) + (eps + delta) * np.sum(gx * gyd, -1))))
    t_jx = theta.evaluate(jx)
    env = 0.5 * np.sum((x - jx) ** 2, -1) + eps * t_jx
    worst["sandwich_lower"] = float(np.max(0.5 * np.sum((x - jx) ** 2, -1) - env))
    tx = theta.evaluate(x)
    finite = np.isfinite(tx)
    worst["sandwich_upper"] = float(np.max(env[finite] / eps[finite] - tx[finite])) if np.any(finite) else 0.0
    sub = -np.inf
    for v in np.linspace(-1.5, 1.5, 7):
        r = np.full(k, v)
        sub = max(sub, float(np.max(np.sum(gx * (r - jx), axis=-1) + t_jx - float(theta.evaluate(r)))))
    worst["subgradient"] = sub
    worst["grad_at_zero"] = float(np.max(np.abs(yosida_gradient(theta, eps, np.zeros((n_samples, k))))))
    return worst


@pytest.mark.parametrize("k, n_samples", [(1, 500), (2, 60)])
@pytest.mark.parametrize("lattice", [False, True], ids=["closed-form", "lattice"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_stacked_suite_matches_the_four_call_form(name, lattice, k, n_samples):
    """One prox pass over [x; y; y; 0] gives the same bits as four calls: the
    k = 1 golden-section search is pointwise with a batch-free iteration
    count, and the k = 2 lattice stops on the widest window, the same in
    every batch that holds an unclamped point."""
    theta = make_convex(name)
    if lattice:
        theta = replace(theta, prox_oracle=None)
    got = prox_property_suite(theta, n_samples=n_samples, seed=17, k=k)
    ref = _four_call_suite(theta, n_samples, 17, k)
    assert list(got) == list(ref)
    for law in ref:
        assert _bits(got[law]) == _bits(ref[law]), law
