import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bdsvi import TimeGrid, generate_paths
from bdsvi.drivers import _STREAM_TAGS, _rekey, _stream, _stream_key


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

@pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0], [np.inf, np.inf]])
def test_grid_rejects_non_finite_nodes(nodes):
    """A nan node passed the ordering check (nan <= 0 is False), so a grid
    with nan steps loaded; the finiteness check runs before np.diff, which
    warns on inf - inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="time grid nodes must be finite"):
            TimeGrid(np.array(nodes))


@pytest.mark.parametrize("t0, T", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
def test_uniform_grid_needs_finite_ends(t0, T):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.linspace warns on an infinite end
        with pytest.raises(ValueError, match=f"a time grid needs finite t0 < T, got t0 {t0}, T {T}"):
            TimeGrid.uniform(t0, T, 10)


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
    shared = generate_paths(g, 1, 4, seed=13, shared_backward=True)
    sqdt = np.sqrt(g.dt)[:, None]
    for i in (3, 1, 2, 0):  # scrambled order on purpose
        dw = _stream(13, "W", i).standard_normal((10, 1)) * sqdt
        assert np.array_equal(b.dW[i], dw)
        assert np.array_equal(shared.dW[i], dw)  # W draws only what it reads, with or without B
        assert np.array_equal(b.dB[i], _stream(13, "B", i).standard_normal((10, 1)) * sqdt)
    assert np.array_equal(shared.dB[2], _stream(13, "B_SHARED", 0).standard_normal((10, 1)) * sqdt)


@pytest.mark.parametrize("n_steps, d, n_paths", [pytest.param(3, 1, 40, id="3-1"), pytest.param(7, 3, 40, id="7-3"),
                                                   pytest.param(201, 1, 400, id="201-1-400")])
def test_rekeyed_paths_equal_fresh_streams(n_steps, d, n_paths):
    """generate_paths packs each tag's key once and re-keys one generator per
    path.  n_steps * d is odd, so each path leaves the Philox buffer partly
    used: the next path must still draw exactly what a new generator with
    its key draws, for W and B, and a smaller ensemble is a prefix of a
    larger one.  At 201 steps the 32768-value buffer holds 163 paths, so 400
    paths fill it three times.  The widest id is the one checked: one past
    the 62 bits of a path id fails before anything is drawn or allocated."""
    g = TimeGrid.uniform(0, 1, n_steps)
    sqdt = np.sqrt(g.dt)[:, None]
    big = generate_paths(g, d, n_paths, seed=11)
    for i in range(n_paths):
        assert np.array_equal(big.dW[i], _stream(11, "W", i).standard_normal((n_steps, d)) * sqdt)
        assert np.array_equal(big.dB[i], _stream(11, "B", i).standard_normal((n_steps, d)) * sqdt)
    for n in (1, 2, 17, n_paths - 1):
        small = generate_paths(g, d, n, seed=11)
        assert np.array_equal(small.dW, big.dW[:n]) and np.array_equal(small.dB, big.dB[:n])
    with pytest.raises(ValueError, match=f"stream W id {2 ** 62} does not fit in 62 bits"):
        generate_paths(g, d, 2 ** 62 + 1, seed=11)


def test_rekey_resets_counter_buffer_and_cached_half_word():
    gen = _stream(3, "W", 0)
    gen.standard_normal(5)
    gen.integers(0, 2**32, size=1, dtype=np.uint32)  # caches the other half of a 64-bit word
    assert gen.bit_generator.state["has_uint32"] == 1
    _rekey(gen, _stream_key(2**64 - 1, "FIELD_W", 1, 2, 3))
    fresh = _stream(2**64 - 1, "FIELD_W", 1, 2, 3)
    assert gen.bit_generator.state["state"]["key"].tolist() == fresh.bit_generator.state["state"]["key"].tolist()
    assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9))
    assert np.array_equal(gen.integers(0, 2**32, size=3, dtype=np.uint32),
                          fresh.integers(0, 2**32, size=3, dtype=np.uint32))


def _key(seed, tag, *ids):
    return tuple(_stream(seed, tag, *ids).bit_generator.state["state"]["key"].tolist())


def test_stream_keys_distinct_over_large_lattice():
    # jp >= 297 covers the colliding nodes (it=1, jp=0) / (it=0, jp=296) of an
    # earlier additive field sub-seed, where 9176 = 31 * 296
    ids = [("W", i) for i in range(2000)] + [("B", i) for i in range(2000)]
    ids += [("B_SHARED", i) for i in range(2000)]
    ids += [("FIELD_W", draw, it, jp) for draw in range(2) for it in range(6) for jp in range(400)]
    assert len({_key(4, *a) for a in ids}) == len(ids)


_stream_args = st.sampled_from(sorted(_STREAM_TAGS)).flatmap(
    lambda tag: st.tuples(st.integers(0, 2**64 - 1), st.just(tag),
                          *[st.integers(0, 2**w - 1) for w in _STREAM_TAGS[tag][1]]))


@settings(max_examples=300, deadline=None)
@given(a=_stream_args, b=_stream_args)
@example(a=(4, "FIELD_W", 0, 1, 0), b=(4, "FIELD_W", 0, 0, 296))
@example(a=(4, "W", 7), b=(4, "B", 7))
def test_stream_key_injective_property(a, b):
    assert (_key(*a) == _key(*b)) == (a == b)


@pytest.mark.parametrize("args", [
    (-1, "W", 0), (2**64, "W", 0), (0, "W", -1), (0, "W", 2**62), (0, "B", 2**62),
    (0, "B_SHARED", 2**62), (0, "FIELD_W", 2**22, 0, 0), (0, "FIELD_W", 0, 2**20, 0),
    (0, "FIELD_W", 0, 0, 2**20), (0, "FIELD_W", 0, 0), (0, "W", 0, 0),
])
def test_stream_rejects_out_of_range_keys(args):
    with pytest.raises(ValueError):
        _stream(*args)


@pytest.mark.parametrize("args", [
    (1.5, "W", 0), (np.float64(1.9), "W", 0), (1.0, "W", 0), (0, "W", 2.7), (0, "B", np.float64(2.0)),
    (0, "FIELD_W", 0, 1.5, 0), ("1", "W", 0),
])
def test_stream_rejects_non_integer_seed_and_ids(args):
    """Truncating a fraction would give 1 and 1.5 the same key."""
    with pytest.raises(ValueError, match="integer"):
        _stream(*args)


def test_generate_paths_rejects_fractional_seed():
    with pytest.raises(ValueError, match="integer"):
        generate_paths(TimeGrid.uniform(0, 1, 2), 1, 1, seed=1.5)


def test_stream_accepts_numpy_integers():
    assert _key(np.uint64(2**64 - 1), "W", np.int64(3)) == _key(2**64 - 1, "W", 3)
    assert _key(np.int32(4), "FIELD_W", np.int8(1), np.uint16(2), np.int64(3)) == _key(4, "FIELD_W", 1, 2, 3)


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
    assert np.allclose(b.A[:, 0], 0.0)
    assert np.allclose(b.A[:, -1], 2.0)
    assert np.all(b.dA >= 0)


@pytest.mark.parametrize("n_paths", [0, -1])
def test_generate_paths_needs_a_path(n_paths):
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        generate_paths(TimeGrid.uniform(0, 1, 4), 1, n_paths, seed=0)


def test_a_spec_must_be_nondecreasing():
    """A decreasing A is no local time: it fails before a bundle is returned."""
    with pytest.raises(ValueError, match="a_spec must be nondecreasing on the grid"):
        generate_paths(TimeGrid.uniform(0, 1, 4), 1, 2, seed=0, a_spec=lambda t: -np.asarray(t))


def test_endpoint_conventions_differ_by_quadratic_variation():
    # sum B_{i+1} dB - sum B_i dB = sum (dB)^2 -> T in the mean
    g = TimeGrid.uniform(0, 1, 200)
    b = generate_paths(g, 1, 4000, seed=8)
    dB = b.dB[:, :, 0]
    B = np.concatenate([np.zeros((4000, 1)), np.cumsum(dB, axis=1)], axis=1)
    fwd = np.sum(B[:, :-1] * dB, axis=1)
    bwd = np.sum(B[:, 1:] * dB, axis=1)
    assert np.mean(bwd - fwd) == pytest.approx(1.0, abs=0.05)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 8))
def test_generation_deterministic_property(seed, n):
    g = TimeGrid.uniform(0, 1, 8)
    b1 = generate_paths(g, 1, n, seed=seed)
    b2 = generate_paths(g, 1, n, seed=seed)
    assert np.array_equal(b1.dW, b2.dW) and np.array_equal(b1.dB, b2.dB)
