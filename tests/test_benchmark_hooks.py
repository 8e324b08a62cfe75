"""The names the benchmark hooks into must stay on the training path.

``benchmarks/tracing.py`` swaps module attributes (``PATCHES``) for span
wrappers, and its untraced clock stops for machine-speed probes at calls of
the ``MARKS``. Inlining or renaming one of them silently loses a span or a
probe point, so these tests import the benchmark's tracing module (without
changing it) and check that every name resolves and that the wrapped calls
see every learner update of a short ``train_agent`` run.
"""

import sys
from pathlib import Path

import pytest

from conftest import CONFIGS, random_walk
from rtp_arb import EpsilonSchedule, Hyperparams, dqn, experiment

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import tracing  # noqa: E402

HYPER = Hyperparams(
    learning_rate=1e-2,
    batch_size=8,
    buffer_capacity=64,
    learning_starts=16,
    update_every=2,
    target_sync_every=10,
    epsilon=EpsilonSchedule(decay_fraction=0.25),
)
TOTAL_STEPS, EVAL_EVERY = 240, 60


def updates_expected(hyper: Hyperparams, total_steps: int) -> int:
    return sum(
        1
        for k in range(total_steps)
        if k + 1 >= hyper.learning_starts and (k + 1) % hyper.update_every == 0
    )


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, a, *_ in tracing.PATCHES] + [(m, a) for m, a, _ in tracing.MARKS],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_hooked_names_resolve(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"


def test_a_counter_over_train_step_sees_every_update(monkeypatch):
    calls = {"train_step": 0, "updates": 0, "adam_update": 0}
    train_step, adam_update = experiment.train_step, dqn.adam_update

    def counted_train_step(*args, **kwargs):
        calls["train_step"] += 1
        loss = train_step(*args, **kwargs)
        calls["updates"] += loss is not None
        return loss

    def counted_adam_update(*args, **kwargs):
        calls["adam_update"] += 1
        return adam_update(*args, **kwargs)

    monkeypatch.setattr(experiment, "train_step", counted_train_step)
    monkeypatch.setattr(dqn, "adam_update", counted_adam_update)
    experiment.train_agent(random_walk(0, 30), CONFIGS[1], HYPER, TOTAL_STEPS, EVAL_EVERY, seed=0)
    expected = updates_expected(HYPER, TOTAL_STEPS)
    assert calls == {"train_step": expected, "updates": expected, "adam_update": expected}


def test_traced_run_records_each_learner_layer_per_update():
    tracer = tracing.Tracer()
    with tracer.installed():
        experiment.train_agent(random_walk(0, 30), CONFIGS[1], HYPER, TOTAL_STEPS, EVAL_EVERY, seed=0)
    names = tracer.arrays()["names"].tolist()
    ids = tracer.arrays()["name_id"].tolist()
    count = {name: ids.count(i) for i, name in enumerate(names)}
    updates = updates_expected(HYPER, TOTAL_STEPS)
    for span in (
        "dqn.train_step",
        "dqn.sample_batch",
        "dqn.td_targets",
        "network.forward_batch",
        "network.td_loss_and_grads",
        "network.adam_update",
    ):
        assert count.get(span) == updates, span
    assert count["dqn.push_transition"] == TOTAL_STEPS
    assert count["experiment.greedy_rollout"] == TOTAL_STEPS // EVAL_EVERY + 1
    assert 0 < count["dqn.select_action.act"] <= TOTAL_STEPS
