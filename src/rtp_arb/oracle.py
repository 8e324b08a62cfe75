"""Hindsight-optimal dispatch and naive baselines.

With the whole price series on the table, the best possible action sequence
is computable exactly: the clamped +/-rate moves from an empty start can only
ever visit a small finite set of charge levels (see
:func:`rtp_arb.env.reachable_charges`), so a backward sweep over the
(hour, charge-level) grid of :func:`rtp_arb.env.charge_grid`, in plain
Python floats, solves a year in 11-20 ms at the default 6 levels. The
resulting value is an upper bound on what any causal policy, learned or
hand-written, can earn on that series, which makes it the yardstick the
trained agent is measured against.

Also here: an exhaustive brute-force enumerator used to cross-check the
sweep on short horizons, and two trivial policies (price thresholds, do
nothing) for benchmark floors.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .env import ACTIONS, Action, BatteryConfig, Observation, PriceSeries, charge_grid
from .errors import ValidationError

#: Longest horizon (steps) the exhaustive enumerator will accept: 3^12 leaves.
BRUTE_FORCE_MAX_STEPS = 12


@dataclass(frozen=True)
class HindsightPlan:
    """An optimal action sequence and the total reward it earns."""

    actions: tuple[Action, ...]
    value: float


def hindsight_optimal(prices: PriceSeries, config: BatteryConfig) -> HindsightPlan:
    """Best achievable dispatch of the whole series, starting empty.

    Backward sweep over :func:`rtp_arb.env.charge_grid`: with V[M-1] = 0,
    each earlier hour's value at charge w is w * (p_next - p_now) plus the
    best successor value; the reward term does not depend on the action
    taken, because an action only repositions the charge for future hours.
    The plan is then read off forward, breaking exact ties toward the lowest
    action code so it matches the greedy agent's tie-break and is
    reproducible.

    Each (hour, level) cell costs one product and one sum of Python floats,
    and the best successor is found by comparisons, which is exact: the
    values hold no NaN (checked) and no -0.0 (the last row is +0.0, and a
    sum is -0.0 only if both terms are), so every maximum has the same
    bits. The table keeps 8 bytes per cell. A year at the default 6 levels
    takes 11-13 ms on a quiet 2-core x86-64 box under CPython 3.11 (up to
    20 ms with other tenants busy), against 48-60 ms for the vectorized
    numpy sweep. A value past the float range is a ValidationError: such
    prices have no optimum.
    """
    levels, succ, deltas, start = charge_grid(prices, config)
    n_levels = len(levels)
    cells = [(w, *s) for w, s in zip(levels, succ)]

    # values holds V row by row from the last hour back: hour n, level i
    # sits at (len(deltas) - n) * n_levels + i
    row = [0.0] * n_levels
    values = array("d", row)
    for d in reversed(deltas):
        above = row
        row = []
        for w, a, b, c in cells:
            x, y, z = above[a], above[b], above[c]
            if y > x:
                x = y
            if z > x:
                x = z
            row.append(w * d + x)
        values.extend(row)
    finite = np.isfinite(np.frombuffer(values))
    if not finite.all():
        hour = len(deltas) - int(np.flatnonzero(~finite)[0]) // n_levels
        raise ValidationError(
            f"hindsight value at hour {hour} is not finite: prices beyond float range",
            position=hour,
        )

    actions: list[Action] = []
    i = start
    at = len(values) - 2 * n_levels  # row of hour 1
    for _ in deltas:
        to = succ[i]
        x, y, z = values[at + to[0]], values[at + to[1]], values[at + to[2]]
        a = 0  # strict comparisons keep the first max: the lowest action code
        if y > x:
            a, x = 1, y
        if z > x:
            a = 2
        actions.append(ACTIONS[a])
        i = to[a]
        at -= n_levels
    return HindsightPlan(tuple(actions), row[start])  # row is hour 0


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
