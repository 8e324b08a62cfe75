"""Hindsight-optimal dispatch and naive baselines.

With the whole price series on the table, the best possible action sequence
is computable exactly: the clamped +/-rate moves from an empty start can only
ever visit a small finite set of charge levels (see
:func:`rtp_arb.env.reachable_charges`), so a backward sweep over the
(hour, charge-level) grid of :func:`rtp_arb.env.charge_grid`, in plain
Python floats, solves a year in 7-14 ms at the default 6 levels, keeping
one action byte per (hour, level) cell and a single row of values. The
resulting value is an upper bound on what any causal policy, learned or
hand-written, can earn on that series, which makes it the yardstick the
trained agent is measured against.

Also here: an exhaustive brute-force enumerator used to cross-check the
sweep on short horizons, and two trivial policies (price thresholds, do
nothing) for benchmark floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import ACTIONS, Action, BatteryConfig, Observation, PriceSeries, charge_grid
from .errors import ValidationError

#: Longest horizon (steps) the exhaustive enumerator will accept: 3^12 leaves.
BRUTE_FORCE_MAX_STEPS = 12

#: While ``max(levels) * sum(|Δp|)`` is at most this, no value of the
#: oracle's sweep can leave the float range (about 2**1024), so its rows
#: need no finiteness check.
FINITE_BOUND = 2.0**1000


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
    The sweep keeps one row of values and, per (hour, level) cell, the code
    of the best successor: one byte, breaking exact ties toward the lowest
    action code, so the plan matches the greedy agent's tie-break and is
    reproducible. The plan is read off forward by walking those codes.

    Each cell costs one product and one sum of Python floats, and the best
    successor is found by two strict comparisons, which is exact: the
    values hold no NaN and no -0.0 (the last row is +0.0, and a sum is -0.0
    only if both terms are), so every maximum has the same bits. A year at
    the default 6 levels takes 7-14 ms on a 2-core x86-64 VM shared with
    other tenants, under CPython 3.11, against 10-19 ms for the same sweep
    keeping an 8-byte value per cell and 48-60 ms for the vectorized numpy
    sweep; 1,001 levels over 8,760 hours peak at 9.6 MiB under tracemalloc,
    against 76.5 MiB with 8-byte values.

    A value past the float range is a ValidationError citing the highest
    hour where one occurs: such prices have no optimum. Each computed value
    is a rounded sum of at most M-1 terms, each at most
    ``max(levels) * |Δp|`` of its hour, so none leaves the float range while
    ``max(levels) * sum(|Δp|)``, summed over the sweep's own deltas in Python
    floats, is at most ``FINITE_BOUND``: rounding adds far less than the
    factor 2**24 left to spare. Only above that bound is each row checked
    as it is made.
    """
    levels, succ, deltas, start = charge_grid(prices, config)
    n_levels = len(levels)
    cells = [(w, *s) for w, s in zip(levels, succ)]
    # a float sum past the range is inf, which fails <= as NaN does: rows are checked
    check = not levels[-1] * sum(map(abs, deltas)) <= FINITE_BOUND

    # codes holds the best action row by row from the last hour back: hour
    # n, level i sits at (len(deltas) - 1 - n) * n_levels + i
    row = [0.0] * n_levels
    codes = bytearray()
    for n in reversed(range(len(deltas))):
        d = deltas[n]
        above = row
        row = []
        for w, a, b, c in cells:
            x, y, z = above[a], above[b], above[c]
            k = 0  # strict comparisons keep the first max: the lowest action code
            if y > x:
                x, k = y, 1
            if z > x:
                x, k = z, 2
            row.append(w * d + x)
            codes.append(k)
        if check and not all(map(math.isfinite, row)):
            raise ValidationError(
                f"hindsight value at hour {n} is not finite: prices beyond float range",
                position=n,
            )

    actions: list[Action] = []
    i = start
    at = len(codes) - n_levels  # row of hour 0
    for _ in deltas:
        a = codes[at + i]
        actions.append(ACTIONS[a])
        i = succ[i][a]
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
