"""The learner step against the arithmetic it replaced.

``forward_batch``, ``td_loss_and_grads``, ``sample_batch`` and ``td_targets``
now work in place where they can, mask the backward sweep with each hidden
layer's output instead of a kept pre-activation, and gather one pair-window
row per sampled state. The plain versions below are the reference: on drawn
networks and batches both must give the same loss, gradients, targets and
batches bit for bit, including batches of one, hidden units dead on the whole
batch, ``-0.0`` rewards, all-``done`` batches, non-finite inputs and series
shorter than the window.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtp_arb import (
    ObservationNormalizer,
    QNetwork,
    ReplayBuffer,
    forward_batch,
    push_transition,
    sample_batch,
    td_loss_and_grads,
    td_targets,
)

# drawn non-finite inputs make NaNs on purpose
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


def reference_forward_batch(net, x):
    h = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if k != last:
            h = np.maximum(h, 0.0)
    return h


def reference_td_loss_and_grads(net, x, action_idx, targets):
    batch = x.shape[0]
    pre = []
    act = [x]
    h = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if k != last else z
        act.append(h)
    q = act[-1]
    rows = np.arange(batch)
    err = q[rows, action_idx] - targets
    abs_err = np.abs(err)
    loss = float(np.mean(np.where(abs_err <= 1.0, 0.5 * err * err, abs_err - 0.5)))
    dq = np.zeros_like(q)
    dq[rows, action_idx] = np.clip(err, -1.0, 1.0) / batch
    grads = [np.empty(0)] * (2 * len(net.weights))
    delta = dq
    for k in range(last, -1, -1):
        grads[2 * k] = act[k].T @ delta
        grads[2 * k + 1] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ net.weights[k].T) * (pre[k - 1] > 0.0)
    return loss, grads


def reference_td_targets(target_net, rewards, next_x, dones, gamma):
    q_next = reference_forward_batch(target_net, next_x)
    return rewards + gamma * q_next.max(axis=1) * ~np.asarray(dones, dtype=bool)


def reference_input_rows(windows, hours, charges, charge_scale):
    x = np.empty((len(hours), windows.shape[1] + 1))
    x[:, :-1] = windows[hours]
    np.divide(charges, charge_scale, out=x[:, -1])
    return x


def reference_sample_batch(buffer, windows, batch_size, rng):
    """Two gathers from the L-hour ``windows``, one per input batch."""
    if len(buffer) < batch_size:
        return None
    idx = rng.integers(len(buffer), size=batch_size)
    hours = buffer.hours[idx]
    return (
        reference_input_rows(windows, hours, buffer.charges[idx], buffer.charge_scale),
        buffer.actions[idx],
        buffer.rewards[idx],
        reference_input_rows(windows, hours + 1, buffer.next_charges[idx], buffer.charge_scale),
        buffer.dones[idx],
    )


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def nets(draw):
    """A network with 1-3 hidden layers, some of whose units may be dead:
    a bias of -1e3 keeps a unit at zero on every input the tests draw."""
    window = draw(st.integers(1, 6))
    hidden = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    dims = (window + 1, *hidden, 3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = [rng.normal(size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(size=b) for b in dims[1:]]
    for b in biases[:-1]:
        dead = draw(st.lists(st.booleans(), min_size=len(b), max_size=len(b)))
        b[np.array(dead)] = -1e3
    return QNetwork(weights, biases)


@st.composite
def learner_batches(draw, net):
    """Inputs, actions, targets: scales spread so both Huber branches and
    exact-zero errors occur, and a row may be non-finite."""
    batch = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(batch, net.input_dim)) * draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    if draw(st.booleans()):
        x[rng.integers(batch), rng.integers(net.input_dim)] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf, -0.0])
        )
    actions = rng.integers(3, size=batch).astype(np.int8)
    targets = rng.normal(size=batch) * draw(st.sampled_from([0.0, 0.5, 3.0]))
    return x, actions, targets


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_loss_and_gradients_match_reference(data):
    net = data.draw(nets())
    x, actions, targets = data.draw(learner_batches(net))
    loss, grads = td_loss_and_grads(net, x, actions, targets)
    want_loss, want_grads = reference_td_loss_and_grads(net, x, actions, targets)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert same_bits(got, want)
    assert same_bits(forward_batch(net, x), reference_forward_batch(net, x))


def test_dead_units_and_a_batch_of_one_match_reference():
    rng = np.random.default_rng(5)
    dims = (4, 6, 5, 3)
    weights = [rng.normal(size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.full(6, -1e3), rng.normal(size=5), rng.normal(size=3)]  # layer 1 all dead
    net = QNetwork(weights, biases)
    for batch in (1, 32):
        x = rng.normal(size=(batch, 4))
        actions = rng.integers(3, size=batch).astype(np.int8)
        targets = rng.normal(size=batch) * 3.0
        loss, grads = td_loss_and_grads(net, x, actions, targets)
        want_loss, want_grads = reference_td_loss_and_grads(net, x, actions, targets)
        assert loss == want_loss
        assert all(same_bits(g, w) for g, w in zip(grads, want_grads))
        # no gradient reaches the dead layer's weights, the signed zeros included
        assert not grads[0].any() and not grads[2].any()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([0.0, 0.5, 0.99, 1.0]), st.sampled_from(["mixed", "all", "none"]))
def test_targets_match_reference(data, gamma, done_mode):
    net = data.draw(nets())
    x, _, _ = data.draw(learner_batches(net))
    batch = len(x)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # an empty battery over a falling price earns 0.0 * negative delta = -0.0
    rewards = np.where(rng.random(batch) < 0.5, -0.0, rng.normal(size=batch))
    dones = {"all": np.ones(batch, bool), "none": np.zeros(batch, bool)}.get(
        done_mode, rng.random(batch) < 0.5
    )
    got = td_targets(net, rewards, x, dones, gamma)
    assert same_bits(got, reference_td_targets(net, rewards, x, dones, gamma))


def test_negative_zero_reward_keeps_its_sign_at_episode_end():
    net = QNetwork([np.zeros((2, 3))], [np.array([-1.0, -2.0, -3.0])])  # every Q-value < 0
    rewards = np.array([-0.0, -0.0, 0.0])
    dones = np.array([True, False, True])
    got = td_targets(net, rewards, np.zeros((3, 2)), dones, 0.99)
    assert same_bits(got, reference_td_targets(net, rewards, np.zeros((3, 2)), dones, 0.99))
    assert np.signbit(got[0]) and not np.signbit(got[2])


@settings(max_examples=60, deadline=None)
@given(
    hours=st.integers(1, 30),
    window=st.integers(1, 40),
    pushes=st.integers(0, 80),
    capacity=st.integers(1, 64),
    batch_size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(hours=1, window=2, pushes=0, capacity=64, batch_size=32, seed=0)
@example(hours=2, window=48, pushes=5, capacity=8, batch_size=1, seed=1)
def test_batches_match_reference(hours, window, pushes, capacity, batch_size, seed):
    rng = np.random.default_rng(seed)
    prices = 4.0 + rng.normal(size=hours)
    norm = ObservationNormalizer.from_series(prices, 13.5)
    windows = norm.price_windows(prices, window)
    buf = ReplayBuffer(capacity, norm.price_windows(prices, window + 1), norm.charge_scale)
    if hours < 2:
        pushes = 0  # a single hour has no transition
    for _ in range(pushes):
        push_transition(
            buf,
            int(rng.integers(hours - 1)),
            float(rng.choice([0.0, 5.0, 13.5])),
            int(rng.integers(3)),
            float(rng.choice([-0.0, rng.normal()])),
            float(rng.choice([0.0, 5.0, 13.5])),
            bool(rng.random() < 0.5),
        )
    got = sample_batch(buf, batch_size, np.random.default_rng(seed))
    want = reference_sample_batch(buf, windows, batch_size, np.random.default_rng(seed))
    if want is None:
        assert got is None
        return
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert same_bits(g, w)
