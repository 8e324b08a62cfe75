"""Hindsight-optimal dispatch and naive baselines.

With the whole price series on the table, the best possible action sequence
is computable exactly: the clamped +/-rate moves from an empty start can only
ever visit a small finite set of charge levels (see
:func:`rtp_arb.env.reachable_charges`), so a backward sweep over
(hour, charge-level) solves the whole year in milliseconds. The resulting
value is an upper bound on what any causal policy, learned or hand-written,
can earn on that series, which makes it the yardstick the trained agent is
measured against.

Also here: an exhaustive brute-force enumerator used to cross-check the
sweep on short horizons, and two trivial policies (price thresholds, do
nothing) for benchmark floors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import Action, BatteryConfig, Observation, PriceSeries, charge_grid

#: Longest horizon (steps) the exhaustive enumerator will accept: 3^12 leaves.
BRUTE_FORCE_MAX_STEPS = 12


@dataclass(frozen=True)
class HindsightPlan:
    """An optimal action sequence and the total reward it earns."""

    actions: tuple[Action, ...]
    value: float


def hindsight_optimal(prices: PriceSeries, config: BatteryConfig) -> HindsightPlan:
    """Best achievable dispatch of the whole series, starting empty.

    Backward sweep: with V[M-1] = 0, each earlier hour's value at charge w is
    w * (p_next - p_now) plus the best successor value; the reward term does
    not depend on the action taken, because an action only repositions the
    charge for future hours. The plan is then read off forward, breaking
    exact ties toward the lowest action code so it matches the greedy
    agent's tie-break and is reproducible.
    """
    states, succ = charge_grid(config)
    charges = np.array(states, dtype=np.float64)
    deltas = np.diff(prices.prices)  # p_{n+1} - p_n for each step n
    n_steps = deltas.shape[0]

    # values[n, i]: best total reward from hour n onward when holding states[i].
    values = np.zeros((n_steps + 1, len(states)), dtype=np.float64)
    for n in range(n_steps - 1, -1, -1):
        values[n] = charges * deltas[n] + values[n + 1][succ].max(axis=1)

    start = states.index(0.0)
    actions: list[Action] = []
    i = start
    for n in range(n_steps):
        branch = values[n + 1][succ[i]]
        a = int(np.argmax(branch))  # first max = lowest action code
        actions.append(Action(a))
        i = succ[i, a]
    return HindsightPlan(tuple(actions), float(values[0, start]))


def brute_force_optimal(prices: PriceSeries, config: BatteryConfig) -> float:
    """Exact optimum by enumerating every action sequence.

    Expands the full ternary tree of action sequences breadth-first, carrying
    one (charge, accumulated reward) pair per sequence prefix; no two
    prefixes are ever merged, so this shares nothing with the backward sweep
    beyond the transition arithmetic itself. Refuses horizons past
    ``BRUTE_FORCE_MAX_STEPS``.
    """
    n_steps = len(prices) - 1
    if n_steps > BRUTE_FORCE_MAX_STEPS:
        raise ValueError(
            f"brute force over {n_steps} steps would enumerate 3^{n_steps} "
            f"sequences; limit is {BRUTE_FORCE_MAX_STEPS}"
        )
    cap = config.capacity_kwh
    rate = config.step_energy_kwh
    deltas = np.diff(prices.prices)

    charges = np.zeros(1)
    totals = np.zeros(1)
    for n in range(n_steps):
        totals = np.tile(totals + charges * deltas[n], 3)
        charges = np.concatenate(
            [
                np.minimum(charges + rate, cap),  # charge
                np.maximum(charges - rate, 0.0),  # discharge
                charges,  # idle
            ]
        )
    return float(totals.max())


def threshold_policy(obs: Observation, low: float, high: float) -> Action:
    """Buy below ``low``, sell above ``high``, otherwise sit still."""
    if low > high:
        raise ValueError(f"low {low} exceeds high {high}")
    latest = float(obs.recent_prices[-1])
    if latest < low:
        return Action.CHARGE
    if latest > high:
        return Action.DISCHARGE
    return Action.IDLE


def idle_policy() -> Action:
    """Do-nothing baseline; from an empty start it earns exactly zero."""
    return Action.IDLE
