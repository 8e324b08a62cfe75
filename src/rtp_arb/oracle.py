"""Hindsight-optimal dispatch and naive baselines.

With the whole price series on the table, the best possible action sequence
is computable exactly: the clamped +/-rate moves from an empty start can only
ever visit a small finite set of charge levels (see
:func:`rtp_arb.env.reachable_charges`), so a backward sweep over the
(hour, charge-level) grid of :func:`rtp_arb.env.charge_grid` solves a year
in about 4.5 ms at the default 6 levels, keeping one action byte per
(hour, level) cell and a single row of values. On grids of up to
``KERNEL_MAX_LEVELS`` levels the sweep runs as straight-line Python
generated and compiled once per grid, with only the comparisons the grid
leaves open; larger grids sweep in numpy, one row an hour.
The resulting value is an upper bound on what any causal policy, learned or
hand-written, can earn on that series, which makes it the yardstick the
trained agent is measured against.

Also here: an exhaustive brute-force enumerator used to cross-check the
sweep on short horizons, and two trivial policies (price thresholds, do
nothing) for benchmark floors.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
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

#: Grids of at most this many levels sweep in :func:`_sweep_kernel`'s
#: compiled code; larger ones, and prices past FINITE_BOUND, in numpy.
#: A compile's time and peak memory grow with the level count (12 ms and
#: 5 MiB under tracemalloc at 64 levels, 65 ms and 20 MiB at 256), and by
#: 64 levels the numpy sweep is as fast: the first call's peak there stays
#: below that of a year's numpy sweep at 1,001 levels (10.0 MiB).
KERNEL_MAX_LEVELS = 64


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

    Each cell costs one product and one sum of floats, and the best
    successor is the first maximum, which is exact: the values hold no NaN
    and no -0.0 (the last row is +0.0, and a sum is -0.0 only if both terms
    are), so every maximum has the same bits. On grids of at most
    ``KERNEL_MAX_LEVELS`` levels whose rows need no check (below), the
    sweep runs in :func:`_sweep_kernel`'s code, compiled on the first call
    per grid; otherwise in :func:`_sweep_numpy`. Both make the same products
    and sums in the same order, so they give the same bits; the kernel
    leaves out only what its grid fixes.

    Timings are medians on a 2-core x86-64 VM shared with other tenants,
    under CPython 3.11 and numpy 2.4, on a random-walk year. At 6 levels the
    kernel takes 4.2-4.8 ms and numpy 27 ms (42 ms with each row checked);
    at 64 levels numpy's 33-36 ms matches the kernel, and 1,001 levels take
    156 ms. The first call per grid also pays the compile: 1 ms at 6
    levels, 12 ms at 64. A compiled kernel keeps about 0.8 KiB a level, and
    at most eight are kept. 1,001 levels over 8,760 hours peak at 10.0 MiB
    under tracemalloc, against 76.5 MiB with an 8-byte value per cell.

    A value past the float range is a ValidationError citing the highest
    hour where one occurs: such prices have no optimum. Each computed value
    is a rounded sum of at most M-1 terms, each at most
    ``max(levels) * |Δp|`` of its hour, so none leaves the float range while
    ``max(levels) * sum(|Δp|)`` is at most ``FINITE_BOUND``. That sum is
    numpy's, over the same ``np.diff`` of the prices as the sweep's deltas;
    in whatever order its terms are added, a float sum of M-1 non-negative
    terms is off by a factor of at most about 1 + M * 2**-53, as is each
    value, which is far inside the factor 2**24 left to spare. A step or a
    sum past the float range is inf, without a warning, and fails the
    bound. Only above that bound is each row checked as it is made.
    """
    levels, succ, deltas, start = charge_grid(prices, config)
    n_levels = len(levels)
    # a sum past the range is inf, which fails <= as NaN does: rows are checked
    with np.errstate(over="ignore"):
        check = not levels[-1] * np.add.reduce(np.abs(np.diff(prices.prices))) <= FINITE_BOUND

    # codes holds the best action row by row from the last hour back: hour
    # n, level i sits at (len(deltas) - 1 - n) * n_levels + i
    codes = bytearray()
    if n_levels <= KERNEL_MAX_LEVELS and not check:
        row = _sweep_kernel(tuple(levels), tuple(map(tuple, succ)))(deltas, codes)
    else:
        row = _sweep_numpy(levels, succ, deltas, codes, check)

    # moves[i][k] is (succ[i][k], ACTIONS[k]): where code k takes level i, and how
    moves = [tuple(zip(s, ACTIONS)) for s in succ]
    actions: list[Action] = []
    i = start
    for at in range(len(codes) - n_levels, -1, -n_levels):  # hour 0's row first
        i, action = moves[i][codes[at + i]]
        actions.append(action)
    return HindsightPlan(tuple(actions), row[start])  # row is hour 0


def _sweep_numpy(
    levels: list[float], succ: list[list[int]], deltas: list[float], codes: bytearray, check: bool
) -> list[float]:
    """The sweep on any grid, one numpy row an hour: appends the action rows
    to ``codes`` from the last hour back and returns hour 0's values; with
    ``check``, raises at the first row (the highest hour) that is not all
    finite."""
    w = np.array(levels)
    table = np.array(succ)  # (level, action): the successor's index
    first = np.arange(0, table.size, len(ACTIONS))  # each level's first cell in table.flat
    row = np.zeros(len(levels))
    # a product or a sum past the range is inf or NaN, and only check reads it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in reversed(range(len(deltas))):
            above = row.take(table)
            k = above.argmax(axis=1)  # the first max: the lowest action code
            codes += k.astype(np.uint8).tobytes()
            row = w * deltas[n]
            row += above.take(first + k)  # the chosen successor's value, not any max's
            if check and not np.isfinite(row).all():
                raise ValidationError(
                    f"hindsight value at hour {n} is not finite: prices beyond float range",
                    position=n,
                )
    return row.tolist()


@functools.lru_cache(maxsize=8)
def _sweep_kernel(
    levels: tuple[float, ...], succ: tuple[tuple[int, ...], ...]
) -> Callable[[list[float], bytearray], list[float]]:
    """:func:`_sweep_numpy` without the check, compiled for one grid.

    The generated function ``sweep(deltas, codes)`` keeps the value row in
    locals ``v0, v1, ...`` (and the row being made in ``u0, u1, ...``), with
    each level's successors and its level baked in (a float's ``repr`` reads
    back as the same float). Per cell it finds the first maximum by two
    strict comparisons (the second against the first one's winner) and
    makes ``w * d + x``, the product first into ``t``, so every value and
    code has numpy's bits; per hour it appends the row's codes with one call of
    ``codes.extend``, bound once. It sweeps two hours an iteration, from
    ``v`` to ``u`` and back, so the rows swap names instead of objects.

    What the grid fixes is left out. Where the idle successor is also the
    charge or the discharge one (the full and the empty level), the cell
    compiles to ``y > x`` alone: of the two other comparisons an open cell
    makes, one is of a value with itself and the other contradicts the
    branch it sits in. The empty level's value is its best successor's,
    without ``0.0 * d``: on this path every step is finite, so that product
    is +0.0 or -0.0, and adding either to a value, which is never -0.0,
    gives that value.
    """
    def names(prefix: str) -> str:
        return "".join(f"{prefix}{i}, " for i in range(len(levels)))

    def hour(src: str, dst: str, d: str) -> list[str]:
        lines = []
        for i, (w, (a, b, c)) in enumerate(zip(levels, succ)):
            x, y, z, r = f"{src}{a}", f"{src}{b}", f"{src}{c}", f"{dst}{i} ="
            if w != 0.0:
                lines.append(f"t = {w!r} * {d}")
                r += " t +"
            if c in (a, b):  # idle lands where charge or discharge does
                lines += [f"if {y} > {x}: {r} {y}; k{i} = 1", f"else: {r} {x}; k{i} = 0"]
                continue
            lines += [
                f"if {y} > {x}:",
                f"    if {z} > {y}: {r} {z}; k{i} = 2",
                f"    else: {r} {y}; k{i} = 1",
                f"elif {z} > {x}: {r} {z}; k{i} = 2",
                f"else: {r} {x}; k{i} = 0",
            ]
        return lines + [f"extend(({names('k')}))"]

    zeros = "0.0, " * len(levels)
    lines = [
        "def sweep(deltas, codes):",
        "    extend = codes.extend",
        "    it = reversed(deltas)",
        "    if len(deltas) % 2:",
        f"        {names('u')}= {zeros}",
        "        d = next(it)",
        *(f"        {line}" for line in hour("u", "v", "d")),
        "    else:",
        f"        {names('v')}= {zeros}",
        "    for d, e in zip(it, it):",
        *(f"        {line}" for line in hour("v", "u", "d") + hour("u", "v", "e")),
        f"    return [{names('v')}]",
    ]
    source = "\n".join(lines)
    namespace: dict = {}
    exec(compile(source, f"<oracle sweep, {len(levels)} levels>", "exec"), namespace)
    return namespace["sweep"]


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
    if not low <= high:  # NaN fails it too
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
