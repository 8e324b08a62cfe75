"""Replay on (hour, charge) states against the observation-vector specification.

The ring stores hour indices and charges and rebuilds normalized network
inputs at sample time from the series' normalized price-window matrix. The
reference is what it replaced: ``ObservationNormalizer.apply`` over the
``Observation.vector()`` of each transition the environment produced. The
two must agree bit for bit.
"""

import numpy as np
import pytest

from conftest import CONFIGS, random_walk
from rtp_arb import (
    Action,
    AdamState,
    ObservationNormalizer,
    ReplayBuffer,
    Transition,
    init_network,
    push_transition,
    reset,
    sample_batch,
    step,
    train_step,
)

HOURS = 40  # 39 steps per episode
PUSHES = 100  # two episode ends, and the start of a third episode
CAPACITY = 64  # so the newest pushes have evicted the oldest


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def run_episodes(prices, config, norm, seed):
    """Step the environment with random actions, pushing every transition.

    Returns the ring and the transitions as the environment produced them.
    """
    buf = ReplayBuffer(
        CAPACITY, norm.price_windows(prices.prices, config.window_hours + 1), norm.charge_scale
    )
    rng = np.random.default_rng(seed)
    transitions = []
    state, obs = reset(prices, config)
    for _ in range(PUSHES):
        a = Action(int(rng.integers(3)))
        new_state, new_obs, r, done = step(state, a, prices, config)
        push_transition(buf, state.step_index, state.charge_kwh, a, r, new_state.charge_kwh, done)
        transitions.append(Transition(obs, a, r, new_obs, done))
        state, obs = (new_state, new_obs) if not done else reset(prices, config)
    return buf, transitions


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.capacity_kwh}-{c.rate_kw}-{c.window_hours}")
@pytest.mark.parametrize("seed", [0, 1])
def test_sampled_batches_equal_normalized_observations(config, seed):
    prices = random_walk(seed, HOURS)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    buf, transitions = run_episodes(prices, config, norm, seed)
    assert sum(t.done for t in transitions) == 2
    # ring slot k holds the newest push whose number is k modulo the capacity
    in_slot = {k % CAPACITY: t for k, t in enumerate(transitions)}
    assert len(buf) == CAPACITY

    sample_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    reached_end = False
    for _ in range(4):
        x, actions, rewards, next_x, dones = sample_batch(buf, CAPACITY, sample_rng)
        picked = [in_slot[k] for k in reference_rng.integers(CAPACITY, size=CAPACITY)]
        assert_same_bits(x, norm.apply(np.array([t.obs.vector() for t in picked])))
        assert_same_bits(next_x, norm.apply(np.array([t.next_obs.vector() for t in picked])))
        assert_same_bits(rewards, np.array([t.reward for t in picked]))
        np.testing.assert_array_equal(actions, [int(t.action) for t in picked])
        np.testing.assert_array_equal(dones, [t.done for t in picked])
        reached_end = reached_end or any(t.done for t in picked)
    # an episode end, where the next hour is the last of the series
    assert reached_end


def test_learner_step_normalizes_no_batch(monkeypatch):
    config = CONFIGS[1]
    prices = random_walk(0, HOURS)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    buf, _ = run_episodes(prices, config, norm, 0)

    def fail(*args, **kwargs):
        raise AssertionError("a sampled batch went through ObservationNormalizer.apply")

    monkeypatch.setattr(ObservationNormalizer, "apply", fail)
    net = init_network(config.window_hours, 0, hidden_dims=(8,))
    opt = AdamState.for_network(net)
    loss = train_step(net, net.clone(), buf, opt, 32, 0.99, np.random.default_rng(0))
    assert loss is not None and opt.step_count == 1
