"""Flat parameter storage and the vectorised Adam step.

The network holds its arrays as views into one float64 vector, the optimizer
its moments as one vector each laid out the same way, and ``adam_update``
works on those vectors whole. The per-array loop it replaced is kept here as
the reference: both must give the same parameters and moments bit for bit.
"""

import hashlib

import numpy as np
import pytest

from rtp_arb import (
    AdamState,
    ObservationNormalizer,
    QNetwork,
    adam_update,
    init_network,
    load_checkpoint,
    save_checkpoint,
    sync_target,
)


def reference_adam_update(opt, params, first, second, grads):
    """The per-array rule, on separate arrays."""
    opt.step_count += 1
    t = opt.step_count
    c1 = 1.0 - opt.beta1**t
    c2 = 1.0 - opt.beta2**t
    for p, g, m, v in zip(params, grads, first, second):
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        p -= opt.learning_rate * (m / c1) / (np.sqrt(v / c2) + opt.epsilon)


def random_net(dims, seed):
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(size=b) for b in dims[1:]]
    return QNetwork(weights, biases)


def assert_views_of(arrays, flat):
    assert flat.ndim == 1 and flat.flags.c_contiguous
    assert sum(a.size for a in arrays) == flat.size
    for a in arrays:
        assert a.base is flat
    np.testing.assert_array_equal(np.concatenate(arrays, axis=None), flat)


@pytest.mark.parametrize(
    "dims", [(1, 1), (1, 1, 3), (2, 3), (5, 8, 6, 3), (49, 64, 64, 3)], ids=str
)
def test_matches_per_array_loop_bit_for_bit(dims):
    steps = 50
    net = random_net(dims, seed=len(dims))
    opt = AdamState.for_network(net, learning_rate=3e-3)
    ref = AdamState(learning_rate=3e-3)
    params = [p.copy() for p in net.parameters()]
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(17)
    for _ in range(steps):
        # spread of scales, so the moments and the square root see varied exponents
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 4) for p in params]
        adam_update(opt, net, grads)
        reference_adam_update(ref, params, first, second, grads)
    assert opt.step_count == ref.step_count == steps
    for got, want in zip(net.parameters(), params):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert opt.m.tobytes() == np.concatenate(first, axis=None).tobytes()
    assert opt.v.tobytes() == np.concatenate(second, axis=None).tobytes()


def test_parameters_and_moments_are_views_of_one_vector_each():
    net = init_network(4, seed=2, hidden_dims=(8, 6))
    opt = AdamState.for_network(net)
    assert_views_of(net.parameters(), net.flat)
    for moment in (opt.m, opt.v):
        assert moment.shape == net.flat.shape and moment.flags.c_contiguous
    assert [w.shape for w in net.weights] == [(5, 8), (8, 6), (6, 3)]
    net.weights[1][2, 3] = 7.5
    assert net.flat[5 * 8 + 8 + 2 * 6 + 3] == 7.5
    # a layer cannot be swapped for an array outside the vector
    with pytest.raises(TypeError):
        net.weights[1] = np.zeros((8, 6))
    with pytest.raises(TypeError):
        net.biases[0] = np.zeros(8)


def test_clone_and_sync_target_copy_rather_than_alias():
    net = init_network(3, seed=4, hidden_dims=(4,))
    twin = net.clone()
    assert not np.shares_memory(twin.flat, net.flat)
    assert_views_of(twin.parameters(), twin.flat)
    target = init_network(3, seed=40, hidden_dims=(4,))
    sync_target(net, target)
    np.testing.assert_array_equal(target.flat, net.flat)
    net.flat += 1.0
    assert not np.any(target.flat == net.flat)
    assert not np.any(twin.flat == net.flat)

    opt = AdamState.for_network(net)
    copy = opt.clone()
    assert not np.shares_memory(copy.m, opt.m) and not np.shares_memory(copy.v, opt.v)
    adam_update(opt, net, [np.ones_like(p) for p in net.parameters()])
    assert np.all(copy.m == 0.0) and np.all(copy.v == 0.0)


def test_built_from_arrays_without_aliasing_them():
    weights = [np.ones((2, 3)), np.ones((3, 3))]
    biases = [np.zeros(3), np.zeros(3)]
    net = QNetwork(weights, biases)
    moments = np.zeros_like(net.flat)
    opt = AdamState(m=moments, v=moments)
    weights[0][0, 0] = 9.0
    moments[0] = 9.0
    assert net.weights[0][0, 0] == 1.0
    assert opt.m[0] == 0.0 and opt.v[0] == 0.0
    net.biases[1][0] = 5.0
    assert biases[1][0] == 0.0
    assert not np.shares_memory(opt.m, opt.v)


def test_checkpoint_bytes_and_loaded_state(tmp_path):
    # random gradients only, no matrix products: this digest does not depend
    # on the BLAS build (recorded with the per-array storage)
    net = init_network(4, seed=13, hidden_dims=(8, 6))
    opt = AdamState.for_network(net, learning_rate=1e-3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        adam_update(opt, net, [rng.normal(size=p.shape) for p in net.parameters()])
    path = tmp_path / "a.ckpt"
    save_checkpoint(net, opt, ObservationNormalizer(3.1, 1.7, 13.5), {"year": 2017, "step": 5}, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5e7ae646ff95014c2e14ac29a73d575165b859d4b0b7f7f18fb99fca42cd7aae"
    )

    loaded = load_checkpoint(path)
    assert loaded.net.flat.tobytes() == net.flat.tobytes()
    assert loaded.opt.m.tobytes() == opt.m.tobytes()
    assert loaded.opt.v.tobytes() == opt.v.tobytes()
    assert_views_of(loaded.net.parameters(), loaded.net.flat)
    assert loaded.net.flat.flags.writeable
    assert loaded.opt.m.flags.writeable and loaded.opt.v.flags.writeable
    # a loaded agent trains on: one more step matches the original's
    grads = [rng.normal(size=p.shape) for p in net.parameters()]
    adam_update(opt, net, grads)
    adam_update(loaded.opt, loaded.net, grads)
    assert loaded.net.flat.tobytes() == net.flat.tobytes()
