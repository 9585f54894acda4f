import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdsvi import (
    TimeGrid,
    backward_ito,
    forward_ito,
    generate_paths,
    load_a_table,
    stratonovich_backward,
)
from bdsvi.drivers import _substream


def test_grid_uniform():
    g = TimeGrid.uniform(0.0, 1.0, 4)
    assert g.t0 == 0.0 and g.T == 1.0 and g.n_steps == 4
    assert np.allclose(g.dt, 0.25)
    assert g.max_dt == pytest.approx(0.25)



def test_grid_dt_computed_once_and_read_only():
    g = TimeGrid(np.array([0.0, 0.1, 0.4, 1.0]))
    assert g.dt is g.dt
    assert np.allclose(g.dt, [0.1, 0.3, 0.6])
    assert not g.dt.flags.writeable
    with pytest.raises(ValueError):
        g.dt[0] = 1.0

def test_grid_rejects_nonmonotone():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid.uniform(1.0, 0.0, 10)


def test_same_seed_identical_bundles():
    g = TimeGrid.uniform(0, 1, 50)
    b1 = generate_paths(g, 2, 16, seed=99)
    b2 = generate_paths(g, 2, 16, seed=99)
    assert np.array_equal(b1.dW, b2.dW)
    assert np.array_equal(b1.dB, b2.dB)


def test_different_seed_differs():
    g = TimeGrid.uniform(0, 1, 50)
    b1 = generate_paths(g, 1, 4, seed=1)
    b2 = generate_paths(g, 1, 4, seed=2)
    assert not np.allclose(b1.dW, b2.dW)


def test_path_substreams_independent_of_batch_size():
    # path i is keyed by (seed, i): enlarging the ensemble must not change
    # previously drawn paths, which is what makes scheduling irrelevant
    g = TimeGrid.uniform(0, 1, 20)
    small = generate_paths(g, 1, 3, seed=7)
    big = generate_paths(g, 1, 10, seed=7)
    assert np.array_equal(small.dW, big.dW[:3])
    assert np.array_equal(small.dB, big.dB[:3])


def test_path_substreams_match_manual_keying():
    g = TimeGrid.uniform(0, 1, 10)
    b = generate_paths(g, 1, 4, seed=13)
    for i in (3, 1, 2, 0):  # scrambled order on purpose
        z = _substream(13, i).standard_normal((10, 2))
        assert np.array_equal(b.dW[i], z[:, :1] * np.sqrt(g.dt)[:, None])


def test_shared_backward_noise():
    g = TimeGrid.uniform(0, 1, 30)
    b = generate_paths(g, 2, 8, seed=5, shared_backward=True)
    assert np.array_equal(b.dB[0], b.dB[7])
    assert not np.allclose(b.dW[0], b.dW[7])


def test_increment_variance_scales_with_dt():
    g = TimeGrid.uniform(0, 2, 40)
    b = generate_paths(g, 1, 4000, seed=0)
    v = np.var(b.dW)
    assert v == pytest.approx(g.dt[0], rel=0.05)


def test_a_spec_attachment_and_normalization():
    g = TimeGrid.uniform(0.5, 1.5, 10)
    b = generate_paths(g, 1, 3, seed=0, a_spec=lambda t: 2.0 * np.asarray(t))
    assert b.a_attached
    assert np.allclose(b.A[:, 0], 0.0)
    assert np.allclose(b.A[:, -1], 2.0)
    assert np.all(b.dA >= 0)


def test_with_a_validation():
    g = TimeGrid.uniform(0, 1, 5)
    b = generate_paths(g, 1, 2, seed=0)
    good = np.cumsum(np.abs(np.random.default_rng(0).normal(size=(2, 6))), axis=1)
    nb = b.with_a(good)
    assert nb.a_attached and np.allclose(nb.A[:, 0], 0.0)
    with pytest.raises(ValueError):
        b.with_a(good[:, :-1])
    bad = good.copy()
    bad[0, 3] = -5.0
    with pytest.raises(ValueError):
        b.with_a(bad)


def test_load_a_table(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("t,A\n0.0,0.0\n0.5,1.0\n1.0,1.0\n")
    a = load_a_table(p)
    assert a(0.25) == pytest.approx(0.5)
    assert a(0.75) == pytest.approx(1.0)
    p2 = tmp_path / "bad.csv"
    p2.write_text("0.0,1.0\n0.5,0.5\n")
    with pytest.raises(ValueError):
        load_a_table(p2)


def test_forward_ito_constant_integrand():
    g = TimeGrid.uniform(0, 1, 100)
    b = generate_paths(g, 1, 10, seed=3)
    w_T = np.sum(b.dW[:, :, 0], axis=1)
    assert np.allclose(forward_ito(np.ones((10, 100)), b.dW[:, :, 0]), w_T)


def test_endpoint_conventions_differ_by_quadratic_variation():
    # sum B_{i+1} dB - sum B_i dB = sum (dB)^2 -> T in the mean
    g = TimeGrid.uniform(0, 1, 200)
    b = generate_paths(g, 1, 4000, seed=8)
    dB = b.dB[:, :, 0]
    B = np.concatenate([np.zeros((4000, 1)), np.cumsum(dB, axis=1)], axis=1)
    fwd = forward_ito(B[:, :-1], dB)
    bwd = backward_ito(B[:, 1:], dB)
    assert np.mean(bwd - fwd) == pytest.approx(1.0, abs=0.05)


def test_stratonovich_backward_constant():
    g = TimeGrid.uniform(0, 1, 128)
    b = generate_paths(g, 1, 50, seed=4)
    dB = b.dB[:, :, 0]
    y0, integral = stratonovich_backward(lambda y: 0.7 * np.ones_like(y), dB, y_terminal=1.3)
    B_total = np.sum(dB, axis=1)
    assert np.allclose(y0, 1.3 + 0.7 * B_total, rtol=0.0, atol=1e-12)
    assert np.allclose(integral, 0.7 * B_total, rtol=0.0, atol=1e-12)


def test_stratonovich_backward_linear_vs_exponential():
    # y' = y o dB has the pathwise solution y_t = y_T * exp(B_T - B_t)
    g = TimeGrid.uniform(0, 1, 4096)
    b = generate_paths(g, 1, 20, seed=6)
    dB = b.dB[:, :, 0]
    y0, _ = stratonovich_backward(lambda y: y, dB, y_terminal=0.8)
    exact = 0.8 * np.exp(np.sum(dB, axis=1))
    assert np.max(np.abs(y0 - exact)) < 5e-3


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 8))
def test_generation_deterministic_property(seed, n):
    g = TimeGrid.uniform(0, 1, 8)
    b1 = generate_paths(g, 1, n, seed=seed)
    b2 = generate_paths(g, 1, n, seed=seed)
    assert np.array_equal(b1.dW, b2.dW) and np.array_equal(b1.dB, b2.dB)
