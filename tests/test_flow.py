import numpy as np
import pytest

from bdsvi import (
    FlowSpec,
    flow,
    flow_inverse,
    make_convex,
    smoothed_interval,
    transform_penalized,
    unit_ball,
)


def _path(n_steps=200, seed=0, t0=0.3, T=1.0):
    rng = np.random.default_rng(seed)
    times = np.linspace(t0, T, n_steps + 1)
    dB = rng.normal(size=n_steps) * np.sqrt(np.diff(times))
    return times, np.concatenate([[0.0], np.cumsum(dB)])


CONST = FlowSpec(h=lambda t, x, u: 0.7 + 0.0 * np.asarray(u),
                 d_u=lambda t, x, u: 0.0 * np.asarray(u))
ZERO = make_convex("zero")  # Yosida gradient exactly 0: the unpenalized transforms
LINEAR = FlowSpec(h=lambda t, x, u: np.asarray(u, dtype=float),
                  d_u=lambda t, x, u: np.ones_like(np.asarray(u, dtype=float)))


def test_constant_coefficient_shift():
    times, B = _path(seed=1)
    y = np.linspace(-2, 2, 50)
    s = flow(CONST, np.zeros(1), y, times, B)
    assert np.max(np.abs(s.eta - (y + 0.7 * (B[-1] - B[0])))) < 1e-12
    assert np.allclose(s.d_y_eta, 1.0)


def test_linear_coefficient_exponential():
    times, B = _path(n_steps=4096, seed=2)
    y = np.array([0.8, -1.1])
    s = flow(LINEAR, np.zeros(1), y, times, B)
    exact = y * np.exp(B[-1] - B[0])
    assert np.max(np.abs(s.eta - exact)) < 5e-3
    assert np.all(s.d_y_eta > 0.0)


def test_strong_order_at_least_one():
    # average pathwise error vs step count on h(u) = u
    rng = np.random.default_rng(3)
    n_fine = 512
    errs = {m: [] for m in (16, 32, 64, 128)}
    for _ in range(40):
        dB = rng.normal(size=n_fine) * np.sqrt(0.7 / n_fine)
        Bf = np.concatenate([[0.0], np.cumsum(dB)])
        tf = np.linspace(0.3, 1.0, n_fine + 1)
        exact = 0.8 * np.exp(Bf[-1])
        for m in errs:
            k = n_fine // m
            s = flow(LINEAR, np.zeros(1), np.array([0.8]), tf[::k], Bf[::k])
            errs[m].append(abs(float(s.eta[0]) - exact))
    ms = np.array(sorted(errs))
    mean_err = np.array([np.mean(errs[m]) for m in ms])
    slope = np.polyfit(np.log(0.7 / ms), np.log(mean_err), 1)[0]
    assert slope >= 0.9


def test_derivative_matches_finite_difference():
    times, B = _path(seed=4)
    y = np.array([0.5])
    h = 1e-6
    s = flow(LINEAR, np.zeros(1), y, times, B)
    sp = flow(LINEAR, np.zeros(1), y + h, times, B)
    sm = flow(LINEAR, np.zeros(1), y - h, times, B)
    fd = float(sp.eta[0] - sm.eta[0]) / (2 * h)
    assert float(s.d_y_eta[0]) == pytest.approx(fd, rel=1e-6)


def test_round_trip_inverse():
    times, B = _path(seed=5)
    y = np.random.default_rng(6).uniform(-2, 2, 1000)
    s = flow(LINEAR, np.zeros(1), y, times, B)
    back = flow_inverse(LINEAR, np.zeros(1), s.eta, times, B)
    assert np.max(np.abs(back - y)) < 1e-9


def test_round_trip_inverse_nonlinear():
    """A backward path along which dEta/dy ranges from 0.3 to 3: plain Newton
    from the target diverges at y = 0.1; the bracketed step converges."""
    spec = FlowSpec(h=lambda t, x, u: 0.5 * np.sin(u) + 0.2, d_u=lambda t, x, u: 0.5 * np.cos(u))
    times = np.linspace(0.3, 1, 201)
    dB = np.random.default_rng(382).normal(size=200) * np.sqrt(np.diff(times))
    B = np.concatenate([[0.0], np.cumsum(dB)])
    y = np.linspace(-2, 2, 41)
    back = flow_inverse(spec, np.zeros(1), flow(spec, np.zeros(1), y, times, B).eta, times, B)
    assert np.max(np.abs(back - y)) <= 1e-9


def test_flow_monotone_in_y():
    times, B = _path(seed=7)
    spec = FlowSpec(h=lambda t, x, u: np.sin(np.asarray(u)), d_u=lambda t, x, u: np.cos(np.asarray(u)))
    y = np.linspace(-3, 3, 200)
    s = flow(spec, np.zeros(1), y, times, B)
    assert np.all(np.diff(s.eta) > 0.0)


def test_flow_input_validation():
    with pytest.raises(ValueError):
        flow(CONST, np.zeros(1), 0.0, np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        flow(CONST, np.zeros(1), 0.0, np.array([0.0]), np.array([0.0]))


# ---------------------------------------------------------------- transforms

def test_transform_identity_when_h_zero():
    spec = FlowSpec(h=lambda t, x, u: 0.0 * np.asarray(u),
                    d_u=lambda t, x, u: 0.0 * np.asarray(u))
    times, B = _path(seed=8)
    dom = unit_ball(1)
    f = lambda t, x, y, z: 0.3 * y + 0.1 * float(np.sum(z))
    g = lambda t, x, y: 0.2 * y
    point = (0.3, np.array([0.2]), 0.7, np.array([0.4]))
    ft, gt = transform_penalized(spec, f, g, ZERO, ZERO, 1.0, dom, 1.0, 0.0, point, times, B)
    assert ft == pytest.approx(f(0.3, point[1], 0.7, point[3]), abs=1e-6)
    assert gt == pytest.approx(g(0.3, point[1], 0.7), abs=1e-6)


def test_transform_constant_h_shifts_argument():
    # eta = y + c*(B_T - B_t), Dy = 1, no x-dependence, h d_u h = 0
    times, B = _path(seed=9)
    c = 0.7
    dom = unit_ball(1)
    f = lambda t, x, y, z: y
    g = lambda t, x, y: 2.0 * y
    point = (0.3, np.array([0.0]), -0.4, np.array([0.0]))
    ft, gt = transform_penalized(CONST, f, g, ZERO, ZERO, 1.0, dom, 1.0, 0.0, point, times, B)
    eta = -0.4 + c * (B[-1] - B[0])
    assert ft == pytest.approx(eta, abs=1e-6)
    assert gt == pytest.approx(2.0 * eta, abs=1e-6)


def test_transform_penalized_subtracts_scaled_gradients():
    times, B = _path(seed=10)
    dom = smoothed_interval(-1, 1)
    phi = make_convex("quadratic(1.0)")
    psi = make_convex("abs")
    f = lambda t, x, y, z: 0.0
    g = lambda t, x, y: 0.0
    point = (0.3, np.array([0.0]), 0.5, np.array([0.0]))
    delta = 0.2
    ft, gt = transform_penalized(CONST, f, g, ZERO, ZERO, 1.0, dom, 1.0, 0.0, point, times, B)
    ftd, gtd = transform_penalized(CONST, f, g, phi, psi, delta, dom, 1.0, 0.0, point, times, B)
    eta = 0.5 + 0.7 * (B[-1] - B[0])
    grad_phi = eta / (1 + delta)           # quadratic Yosida gradient
    grad_psi = np.sign(eta) * min(abs(eta) / delta, 1.0)
    assert ft - ftd == pytest.approx(grad_phi, abs=1e-9)
    assert gt - gtd == pytest.approx(grad_psi, abs=1e-9)
    with pytest.raises(ValueError):
        transform_penalized(CONST, f, g, phi, psi, 0.0, dom, 1.0, 0.0, point, times, B)


@pytest.mark.filterwarnings("error")
def test_transform_of_maps_that_read_x_is_their_scalar_form_bit_for_bit():
    """At d = 1, h, f and g that read x give eta and the transforms of shape
    (1,); the transforms are those of the same maps written on float(x[0])."""
    times, B = _path(seed=12)
    point, dom = (0.3, np.array([0.2]), 0.6, np.array([0.3])), smoothed_interval(-1, 1)
    phi, psi = make_convex("quadratic(1.0)"), make_convex("abs")
    out = []
    for read in (lambda x: x, lambda x: float(x[0])):
        spec = FlowSpec(h=lambda t, x, u: 0.4 * read(x) * u + 0.1, d_u=lambda t, x, u: 0.4 * read(x) + 0.0 * u)
        f = lambda t, x, y, z: 0.3 * read(x) * y + 0.1 * float(np.sum(z))
        g = lambda t, x, y: 0.2 * read(x) - y
        out.append(transform_penalized(spec, f, g, phi, psi, 0.5, dom, 1.0, 0.0, point, times, B))
    assert all(type(v) is float for v in out[0])
    assert np.array(out[0]).tobytes() == np.array(out[1]).tobytes()


def test_transform_x_derivatives_closed_form():
    """h = c x0 x1 does not depend on u, so eta = y + c x0 x1 (B_T - B_t) and
    D_y eta = 1.  With a non-diagonal sigma, b != 0 and f depending on z, the
    transforms have closed forms in D_x eta = c dB (x1, x0) and the cross term
    of D_x^2 eta = c dB [[0, 1], [1, 0]]: L_x eta = 0.5 c dB + <b, D_x eta>,
    and on the unit ball <grad level, D_x eta> = -2 c dB x0 x1."""
    c = 0.8
    spec = FlowSpec(h=lambda t, x, u: c * x[0] * x[1] + 0.0 * np.asarray(u),
                    d_u=lambda t, x, u: 0.0 * np.asarray(u))
    times, B = _path(seed=11)
    dB = B[-1] - B[0]
    sigma = np.array([[1.0, 0.5], [0.0, 1.0]])
    b = np.array([0.3, -0.2])
    a = np.array([0.4, -0.2])
    f = lambda t, x, y, z: 0.3 * y + float(np.dot(a, z)) + 0.1 * x[0]
    g = lambda t, x, y: 0.2 * y - 0.5
    x, y, z = np.array([0.3, -0.6]), 0.7, np.array([0.2, -0.1])
    ft, gt = transform_penalized(spec, f, g, ZERO, ZERO, 1.0, unit_ball(2), sigma, b, (0.3, x, y, z), times, B)
    eta = y + c * x[0] * x[1] * dB
    d_x = c * dB * np.array([x[1], x[0]])
    assert ft == pytest.approx(f(0.3, x, eta, sigma.T @ d_x + z) + 0.5 * c * dB + float(b @ d_x), abs=1e-6)
    assert gt == pytest.approx(g(0.3, x, eta) + 2.0 * c * dB * x[0] * x[1], abs=1e-6)


def _per_index_flow(spec, x, y, times, B):
    """flow's Heun loop as it indexed the node arrays and called spec.d_u at every step."""
    times = np.asarray(times, dtype=float)
    B = np.asarray(B, dtype=float)
    eta = np.asarray(y, dtype=float) + 0.0
    dy = np.ones_like(eta)
    for j in range(times.size - 2, -1, -1):
        db = B[j + 1] - B[j]
        t1 = times[j + 1]
        t0 = times[j]
        h1 = spec.h(t1, x, eta)
        d1 = spec.d_u(t1, x, eta)
        pred = eta + h1 * db
        h2 = spec.h(t0, x, pred)
        d2 = spec.d_u(t0, x, pred)
        eta = eta + 0.5 * (h1 + h2) * db
        dy = dy * (1.0 + 0.5 * (d1 + d2 * (1.0 + d1 * db)) * db)
    return eta, dy


SIN = FlowSpec(h=lambda t, x, u: 0.5 * np.sin(u) + 0.2, d_u=lambda t, x, u: 0.5 * np.cos(u))
# x of shape (1,) makes h(t, x, u) an array of shape (1,) for a scalar u: the scalar
# query then goes on with arrays from the first step, and its eta has shape (1,)
X_TIMES_U = FlowSpec(h=lambda t, x, u: 0.4 * x * u + 0.1, d_u=lambda t, x, u: 0.4 * x + 0.0 * u)
# only d_u has shape (1,): a scalar eta stays a float, and comes back as np.float64
DU_ARRAY = FlowSpec(h=lambda t, x, u: 0.3 * u + 0.2, d_u=lambda t, x, u: 0.3 + 0.0 * x)
# h turns from 0-d to shape (1,) below t = 0.5, partway through the loop
LATE = FlowSpec(h=lambda t, x, u: 0.4 * u + (0.1 * x if t < 0.5 else 0.1), d_u=lambda t, x, u: 0.4 + 0.0 * u)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [CONST, LINEAR, SIN, X_TIMES_U, DU_ARRAY, LATE],
                         ids=["constant", "linear", "sin", "x-times-u", "du-array", "late"])
@pytest.mark.parametrize("y", [0.3, np.linspace(-2.0, 2.0, 41)], ids=["scalar", "batched"])
def test_flow_matches_the_per_index_loop(spec, y):
    times, B = _path(n_steps=150, seed=4)
    s = flow(spec, np.full(1, 0.8), y, times, B)
    eta, dy = _per_index_flow(spec, np.full(1, 0.8), y, times, B)
    for got, ref in ((s.eta, eta), (s.d_y_eta, dy)):
        assert type(got) is type(ref)
        assert np.shape(got) == np.shape(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()
