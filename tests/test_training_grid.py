"""Training on the (hour, charge-level) grid against the stepwise specification.

``train_agent`` never steps the environment: it walks an hour index and a
charge-level index, takes the reward as the level times the price delta and
the Q-values from one pair-window row. The reference below is the loop it
replaced (reset, then step with the single-observation ``forward``, pushing
what the environment returns); the two must agree exactly: curve, every
parameter bit and every ring entry.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIGS, random_walk
from rtp_arb import (
    AdamState,
    EnvState,
    Hyperparams,
    Observation,
    ObservationNormalizer,
    ReplayBuffer,
    epsilon_at,
    forward,
    greedy_rollout,
    init_network,
    push_transition,
    reset,
    select_action,
    step,
    sync_target,
    train_step,
)
from rtp_arb import experiment, network

RING_FIELDS = ("hours", "charges", "actions", "rewards", "next_charges", "dones")

HYPER = Hyperparams(
    learning_rate=1e-2,
    batch_size=8,
    buffer_capacity=64,  # a run pushes 240, so the ring evicts
    learning_starts=16,
    update_every=2,
    target_sync_every=10,
    epsilon_decay_fraction=0.25,
)
TOTAL_STEPS = 240
EVAL_EVERY = 60


def stepwise_train(prices, config, hyper, total_steps, eval_every, seed):
    """The specification: one environment step and one forward per training step.

    Returns the curve points, the final online network and the ring.
    """
    init_ss, explore_ss, sample_ss = np.random.SeedSequence(seed).spawn(3)
    net = init_network(config.window_hours, init_ss)
    target = net.clone()
    opt = AdamState.for_network(net, hyper.learning_rate)
    norm = ObservationNormalizer.from_series(prices.prices, config.capacity_kwh)
    pairs = norm.price_windows(prices.prices, config.window_hours + 1)
    buffer = ReplayBuffer(hyper.buffer_capacity, pairs, norm.charge_scale)
    explore_rng = np.random.default_rng(explore_ss)
    sample_rng = np.random.default_rng(sample_ss)

    points = [(0, greedy_rollout(net, norm, prices, config)[0])]
    state, obs = reset(prices, config)
    for k in range(total_steps):
        eps = epsilon_at(hyper, k, total_steps)
        a = select_action(forward(net, obs, norm), eps, explore_rng)
        new_state, new_obs, r, done = step(state, a, prices, config)
        push_transition(buffer, state.step_index, state.charge_kwh, a, r, new_state.charge_kwh, done)
        state, obs = (new_state, new_obs) if not done else reset(prices, config)
        if k + 1 >= hyper.learning_starts and (k + 1) % hyper.update_every == 0:
            loss = train_step(net, target, buffer, opt, hyper.batch_size, hyper.gamma, sample_rng)
            if loss is not None and opt.step_count % hyper.target_sync_every == 0:
                sync_target(net, target)
        if (k + 1) % eval_every == 0:
            points.append((k + 1, greedy_rollout(net, norm, prices, config)[0]))
    return tuple(points), net, buffer


def captured_train(monkeypatch, prices, config, hyper, total_steps, eval_every, seed):
    """``train_agent``, plus the online network and the ring it built."""
    made = {}

    def init_recorded(*args, **kwargs):
        made["net"] = init_network(*args, **kwargs)
        return made["net"]

    def buffer_recorded(*args, **kwargs):
        made["buffer"] = ReplayBuffer(*args, **kwargs)
        return made["buffer"]

    monkeypatch.setattr(experiment, "init_network", init_recorded)
    monkeypatch.setattr(experiment, "ReplayBuffer", buffer_recorded)
    curve, _ = experiment.train_agent(prices, config, hyper, total_steps, eval_every, seed)
    return curve.points, made["net"], made["buffer"]


# 40 hours: shorter than the default 48-hour window, 6 episodes per run;
# 2 hours: every step ends an episode
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.capacity_kwh}-{c.rate_kw}-{c.window_hours}")
@pytest.mark.parametrize("hours", [40, 2])
def test_matches_stepwise_training(monkeypatch, config, hours):
    prices = random_walk(hours, hours)
    got_points, got_net, got_ring = captured_train(
        monkeypatch, prices, config, HYPER, TOTAL_STEPS, EVAL_EVERY, seed=hours
    )
    want_points, want_net, want_ring = stepwise_train(
        prices, config, HYPER, TOTAL_STEPS, EVAL_EVERY, seed=hours
    )
    assert got_points == want_points
    assert got_net.flat.tobytes() == want_net.flat.tobytes()
    assert got_ring.pushes == want_ring.pushes == TOTAL_STEPS
    for name in RING_FIELDS:
        assert getattr(got_ring, name).tobytes() == getattr(want_ring, name).tobytes(), name
    # the ring kept episode ends, and the learner moved the parameters
    assert got_ring.dones.any()
    init_ss = np.random.SeedSequence(hours).spawn(3)[0]
    assert got_net.flat.tobytes() != init_network(config.window_hours, init_ss).flat.tobytes()


def test_training_builds_no_environment_state(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("train_agent stepped the environment")

    for name in ("step", "reset", "forward"):
        monkeypatch.setattr(experiment, name, fail)
    monkeypatch.setattr(EnvState, "__init__", fail)
    monkeypatch.setattr(Observation, "__init__", fail)
    config = CONFIGS[1]
    curve, ckpt = experiment.train_agent(random_walk(0, 30), config, HYPER, 120, 60, seed=0)
    assert curve.steps == (0, 60, 120)
    assert ckpt.opt.step_count > 0


def test_greedy_only_schedule_draws_no_exploration(monkeypatch):
    """With epsilon 0 throughout, every step is greedy: the grid walk matches
    the stepwise loop, feeds the network the same one-row inputs, and leaves
    the exploration stream untouched. The act path's one-row workspace gives
    the bits of ``forward_batch`` on the live network at every step, between
    updates as well."""
    made = []
    default_rng = np.random.default_rng
    forward_batch = network.forward_batch

    def recorded_rng(seed=None):
        made.append((seed, default_rng(seed)))
        return made[-1][1]

    got_rows, want_rows, act_q = [], [], []

    class Recording(network.RowForward):
        # the act path's workspace, as conftest.greedy_blocks hooks BlockForward
        def __init__(self, net):
            super().__init__(net)
            self.net = net

        def __call__(self):
            q = super().__call__()
            got_rows.append(self.x.tobytes())
            act_q.append((q.tobytes(), forward_batch(self.net, self.x).tobytes()))
            return q

    def recorded(net, x):
        want_rows.append(x.tobytes())
        return forward_batch(net, x)

    monkeypatch.setattr(np.random, "default_rng", recorded_rng)
    monkeypatch.setattr(experiment, "RowForward", Recording)
    monkeypatch.setattr(network, "forward_batch", recorded)
    hyper = replace(HYPER, epsilon_start=0.0, epsilon_end=0.0)
    prices, config, seed = random_walk(3, 40), CONFIGS[2], 3
    got_points, got_net, got_ring = captured_train(
        monkeypatch, prices, config, hyper, TOTAL_STEPS, EVAL_EVERY, seed
    )
    # init, exploration, sampling, in the order train_agent spawns them
    explore_ss = np.random.SeedSequence(seed).spawn(3)[1]
    explore_rngs = [rng for s, rng in made if getattr(s, "spawn_key", None) == explore_ss.spawn_key]
    assert len(explore_rngs) == 1
    assert explore_rngs[0].bit_generator.state == default_rng(explore_ss).bit_generator.state

    want_points, want_net, want_ring = stepwise_train(
        prices, config, hyper, TOTAL_STEPS, EVAL_EVERY, seed
    )
    assert len(got_rows) == len(want_rows) == TOTAL_STEPS
    assert [got for got, _ in act_q] == [want for _, want in act_q]
    assert got_rows == want_rows
    assert got_points == want_points
    assert got_net.flat.tobytes() == want_net.flat.tobytes()
    for name in RING_FIELDS:
        assert getattr(got_ring, name).tobytes() == getattr(want_ring, name).tobytes(), name
