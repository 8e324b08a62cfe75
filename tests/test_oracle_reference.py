"""The oracle's sweeps against a plain-float loop and a numpy value table.

``hindsight_optimal`` walks :func:`rtp_arb.env.charge_grid`: per cell one
product and one sum, the best successor the first maximum, the plan read
off by walking one action code per cell. It has two paths: code compiled
for the grid (``_sweep_kernel``, on grids of at most ``KERNEL_MAX_LEVELS``
levels whose values cannot leave the float range) and a numpy sweep, one
row an hour (``_sweep_numpy``, everywhere else). Every case runs once on
each path, the numpy sweep forced by patching ``KERNEL_MAX_LEVELS`` to 0,
and both must give the reference's plan and value bit for bit. The
reference is a vectorized sweep that keeps the whole value table: drawn
series and batteries, including 2-level grids (rate at or above capacity),
constant runs and other exact ties, whole random-walk years, and fixed
grids on both sides of ``KERNEL_MAX_LEVELS`` with brute force as a second
referee. On the fixed grids and the random-walk years, each path's whole
table of action codes and its hour-0 value row must also equal, byte for
byte, those of :func:`reference_sweep`, the loop over the cells in Python
floats that the oracle once ran. Prices large enough to overflow must
raise exactly where the reference table stops being finite, at its highest
such hour, whether or not the oracle's bound on its values lets it skip the
per-row check, and both paths must raise the loop's error.
"""

import contextlib
import functools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIGS,
    continuous_configs,
    continuous_prices,
    dyadic,
    dyadic_configs,
    dyadic_prices,
    make_series,
    random_walk,
)
from rtp_arb import (
    Action,
    BatteryConfig,
    ValidationError,
    apply_action,
    brute_force_optimal,
    hindsight_optimal,
    reachable_charges,
)
from rtp_arb import oracle
from rtp_arb.env import charge_grid
from rtp_arb.oracle import BRUTE_FORCE_MAX_STEPS, FINITE_BOUND, KERNEL_MAX_LEVELS


def reference_charge_grid(config):
    levels = sorted(reachable_charges(config))
    index = {w: i for i, w in enumerate(levels)}
    table = np.empty((len(levels), len(Action)), dtype=np.intp)
    for i, w in enumerate(levels):
        for a in Action:
            table[i, a] = index[apply_action(w, a, config)]
    return levels, table


def reference_values(prices, config):
    states, succ = reference_charge_grid(config)
    charges = np.array(states, dtype=np.float64)
    deltas = np.diff(prices.prices)  # p_{n+1} - p_n for each step n
    n_steps = deltas.shape[0]

    # values[n, i]: best total reward from hour n onward when holding states[i].
    values = np.zeros((n_steps + 1, len(states)), dtype=np.float64)
    for n in range(n_steps - 1, -1, -1):
        values[n] = charges * deltas[n] + values[n + 1][succ].max(axis=1)
    return states, succ, values


def reference_hindsight_optimal(prices, config):
    states, succ, values = reference_values(prices, config)
    n_steps = values.shape[0] - 1
    start = states.index(0.0)
    actions = []
    i = start
    for n in range(n_steps):
        branch = values[n + 1][succ[i]]
        a = int(np.argmax(branch))  # first max = lowest action code
        actions.append(Action(a))
        i = succ[i, a]
    return tuple(actions), float(values[0, start])


def reference_sweep(levels, succ, deltas, codes, check):
    """The sweep as a loop over the cells in Python floats: appends the action
    rows to ``codes`` from the last hour back and returns hour 0's values;
    with ``check``, raises at the first row (the highest hour) that is not all
    finite."""
    cells = [(w, *s) for w, s in zip(levels, succ)]
    row = [0.0] * len(levels)
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
    return row


def numpy_only():
    """Within it, ``hindsight_optimal`` sweeps every grid in numpy."""
    return mock.patch.object(oracle, "KERNEL_MAX_LEVELS", 0)


def kernel_calls() -> int:
    info = oracle._sweep_kernel.cache_info()
    return info.hits + info.misses


def takes_kernel(series, config) -> bool:
    """Whether ``hindsight_optimal`` should sweep ``series`` in compiled code."""
    n_levels = len(reachable_charges(config))
    return n_levels <= KERNEL_MAX_LEVELS and oracle_bound(series.prices, config) <= FINITE_BOUND


def assert_matches_reference(prices, config):
    """Both paths' plans equal the reference's, bit for bit; returns the plan."""
    series = make_series(prices)
    want_actions, want_value = reference_hindsight_optimal(series, config)
    before = kernel_calls()
    plan = hindsight_optimal(series, config)
    assert (kernel_calls() > before) == takes_kernel(series, config)
    with numpy_only():
        before = kernel_calls()
        numpy_plan = hindsight_optimal(series, config)
        assert kernel_calls() == before
    for got in (plan, numpy_plan):
        assert type(got.value) is float
        assert struct.pack("<d", got.value) == struct.pack("<d", want_value)
        assert all(type(a) is Action for a in got.actions)
        assert got.actions == want_actions
    return plan


@settings(max_examples=150, deadline=None)
@given(prices=continuous_prices(min_len=2, max_len=80), config=continuous_configs())
# signed zeros and subnormal steps: products of -0.0, exact ties at zero
@example(prices=[-1e-323, 5e-324, 0.0, -0.0, -1e-323], config=BatteryConfig(1.0, 0.5, 1))
def test_continuous_series_match_reference(prices, config):
    assert_matches_reference(prices, config)


@settings(max_examples=150, deadline=None)
@given(prices=dyadic_prices(min_len=2, max_len=80), config=dyadic_configs())
@example(prices=[1.0, 1.0], config=BatteryConfig(1.0, 1.0, 1))
@example(prices=[2.0, 1.0, 2.0, 1.0, 2.0], config=BatteryConfig(4.0, 2.0, 1))
def test_dyadic_series_match_reference(prices, config):
    assert_matches_reference(prices, config)


@settings(max_examples=100, deadline=None)
@given(
    prices=dyadic_prices(min_len=2, max_len=60),
    capacity=dyadic(0.5, 20.0),
    extra=dyadic(0.0, 10.0),
)
def test_two_level_grids_match_reference(prices, capacity, extra):
    # rate >= capacity: every move lands on empty or full
    config = BatteryConfig(capacity_kwh=capacity, rate_kw=capacity + extra, window_hours=1)
    assert len(reachable_charges(config)) == 2
    assert_matches_reference(prices, config)


@settings(max_examples=150, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from([-2.0, 0.0, 1.0, 1.5, 3.0]), st.integers(min_value=1, max_value=9)),
        min_size=1,
        max_size=12,
    ),
    config=st.one_of(dyadic_configs(), continuous_configs(), st.sampled_from(CONFIGS)),
)
@example(runs=[(1.0, 20)], config=BatteryConfig())
@example(runs=[(1.0, 3), (3.0, 3), (1.0, 3), (3.0, 3)], config=BatteryConfig(4.0, 2.0, 1))
def test_constant_runs_and_ties_match_reference(runs, config):
    # few distinct prices in runs: many zero deltas and equal successor values
    prices = [p for p, k in runs for _ in range(k)] + [runs[-1][0]]
    assert_matches_reference(prices, config)


@pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
def test_random_walk_years_match_reference(config):
    assert_matches_reference(random_walk(0, 8760).prices, config)


#: prices of a few units scaled by 2**970 to 2**1020: the oracle's bound
#: max(levels) * sum(|Δp|) falls on both sides of FINITE_BOUND, and the
#: values overflow near the top
SCALED_PRICES = st.builds(
    lambda units, e: [u * 2.0**e for u in units],
    st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=12),
    st.integers(970, 1020),
)


def oracle_bound(prices, config):
    with np.errstate(over="ignore"):
        return max(reachable_charges(config)) * float(np.abs(np.diff(prices)).sum())


@settings(max_examples=150, deadline=None)
@given(
    prices=st.one_of(
        st.lists(
            st.one_of(
                st.floats(min_value=-1.7e308, max_value=1.7e308),
                st.sampled_from([1e308, -1e308, 0.0, 1.0]),
            ),
            min_size=2,
            max_size=12,
        ),
        SCALED_PRICES,
    ),
    config=st.sampled_from(CONFIGS),
)
# the bound just inside FINITE_BOUND (no row checked); just past it with every
# value finite (each row checked); finite steps whose values overflow at hour 3
@example(prices=[0.0, 2.0**995], config=CONFIGS[0])
@example(prices=[0.0, 2.0**1000, 0.0], config=CONFIGS[0])
@example(prices=[0.0, 1e308, 1e308, 0.0, 1e308], config=CONFIGS[0])
def test_raises_exactly_where_the_reference_table_is_not_finite(prices, config):
    series = make_series(prices)
    with np.errstate(all="ignore"):
        _, _, values = reference_values(series, config)
    finite = np.isfinite(values).all(axis=1)
    checked = oracle_bound(prices, config) > FINITE_BOUND
    event(f"{'rows checked' if checked else 'no row checked'}, {'finite' if finite.all() else 'raises'}")
    if finite.all():
        assert_matches_reference(prices, config)
    else:
        assert checked
        for path in (contextlib.nullcontext(), numpy_only()):
            with path, pytest.raises(ValidationError, match="not finite") as info:
                hindsight_optimal(series, config)
            assert info.value.position == np.flatnonzero(~finite)[-1]  # the highest such hour


#: one battery per grid size, on both sides of KERNEL_MAX_LEVELS
GRIDS = {
    2: BatteryConfig(capacity_kwh=1.0, rate_kw=1.0, window_hours=1),  # every cell folded
    3: BatteryConfig(capacity_kwh=4.0, rate_kw=2.0, window_hours=1),
    6: BatteryConfig(),
    8: BatteryConfig(capacity_kwh=7.0, rate_kw=1.0, window_hours=1),
    KERNEL_MAX_LEVELS: BatteryConfig(capacity_kwh=KERNEL_MAX_LEVELS - 1.0, rate_kw=1.0, window_hours=1),
    KERNEL_MAX_LEVELS + 1: BatteryConfig(capacity_kwh=float(KERNEL_MAX_LEVELS), rate_kw=1.0, window_hours=1),
    257: BatteryConfig(capacity_kwh=256.0, rate_kw=1.0, window_hours=1),
    1001: BatteryConfig(capacity_kwh=1000.0, rate_kw=1.0, window_hours=1),
}
KINDS = ["square", "dyadic", "normal"]
HOURS = [2, 3, 12, 13, 48, 49]  # 1, 2, 11, 12, 47 and 48 steps


def fixed_prices(kind: str, hours: int) -> list[float]:
    rng = np.random.default_rng(hours)
    if kind == "square":  # 3 h at 2 c, 3 h at 6 c: many exact ties
        return [2.0 if n % 6 < 3 else 6.0 for n in range(hours)]
    if kind == "dyadic":
        return (rng.integers(-64, 129, hours) / 8).tolist()
    return (4.0 + rng.normal(0.0, 3.0, hours)).tolist()


@pytest.mark.parametrize("hours", HOURS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_levels", list(GRIDS))
def test_both_paths_on_grids_around_the_kernel_bound(n_levels, kind, hours):
    config = GRIDS[n_levels]
    assert len(reachable_charges(config)) == n_levels
    prices = fixed_prices(kind, hours)
    plan = assert_matches_reference(prices, config)
    if hours - 1 <= BRUTE_FORCE_MAX_STEPS:
        best = brute_force_optimal(make_series(prices), config)
        if kind == "normal":
            assert plan.value == pytest.approx(best, rel=1e-12, abs=1e-12)
        else:  # whole or half kWh times eighths of a cent: every sum is exact
            assert plan.value == best


#: every (grid, kind, hours) case of the test above, then a random-walk year on each config
CELL_CASES = [
    pytest.param(GRIDS[n_levels], fixed_prices(kind, hours), id=f"{n_levels}-{kind}-{hours}")
    for n_levels in GRIDS
    for kind in KINDS
    for hours in HOURS
] + [pytest.param(config, random_walk(0, 8760).prices, id=f"year-{i}") for i, config in enumerate(CONFIGS)]


@pytest.mark.parametrize("config, prices", CELL_CASES)
def test_every_cell_matches_the_loop(config, prices):
    # the plan reads one code an hour: here every code, and every hour-0 value
    levels, succ, deltas, _ = charge_grid(make_series(prices), config)
    want_codes = bytearray()
    want_row = np.array(reference_sweep(levels, succ, deltas, want_codes, False))
    assert len(want_codes) == len(deltas) * len(levels)
    sweeps = {
        f"numpy, check={check}": functools.partial(oracle._sweep_numpy, levels, succ, deltas, check=check)
        for check in (False, True)
    }
    if len(levels) <= KERNEL_MAX_LEVELS:
        sweeps["kernel"] = functools.partial(oracle._sweep_kernel(tuple(levels), tuple(map(tuple, succ))), deltas)
    for name, sweep in sweeps.items():
        codes = bytearray()
        row = sweep(codes=codes)
        assert all(type(v) is float for v in row), name
        assert codes == want_codes, name
        assert np.array(row).tobytes() == want_row.tobytes(), name


@pytest.mark.parametrize("n_levels", [3, 6, 8, KERNEL_MAX_LEVELS + 1])
def test_both_paths_raise_at_the_same_hour(n_levels):
    # finite prices whose values overflow; the bound is past FINITE_BOUND,
    # so both paths sweep in numpy and check each row, and raise the loop's error
    series = make_series([0.0, 1e308, -1e308, 1e308, 0.0])
    with np.errstate(all="ignore"):
        _, _, values = reference_values(series, GRIDS[n_levels])
    levels, succ, deltas, _ = charge_grid(series, GRIDS[n_levels])
    with pytest.raises(ValidationError) as info:
        reference_sweep(levels, succ, deltas, bytearray(), True)
    errors = [(str(info.value), info.value.position)]
    for path in (contextlib.nullcontext(), numpy_only()):
        with path, pytest.raises(ValidationError, match="not finite") as info:
            hindsight_optimal(series, GRIDS[n_levels])
        errors.append((str(info.value), info.value.position))
    assert errors[0] == errors[1] == errors[2]
    assert errors[0][1] == np.flatnonzero(~np.isfinite(values).all(axis=1))[-1]
