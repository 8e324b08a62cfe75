"""Self-tests of the benchmark: pins, generator determinism, tracer arithmetic.

Run from the repository root with ``python3 -m pytest -q benchmarks``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from rtp_arb import BatteryConfig, Hyperparams, hindsight_optimal, train_agent  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from probe import REFERENCE_S, SMALL_ARRAYS, WHOLE, Timing, slowdown  # noqa: E402


def test_square_wave_pin_at_seed_0():
    # The curve is what the default OpenBLAS build gives; another BLAS may
    # round the forward pass differently and move it.
    series = wl.square_wave_series()
    config = BatteryConfig()
    assert hindsight_optimal(series, config).value == 19710.0
    curve, _ = train_agent(series, config, Hyperparams(), wl.TRAIN_STEPS, wl.TRAIN_EVAL_EVERY, 0)
    assert curve.returns == (0.0, 7280.0, 19642.0)


def test_cross_years_are_deterministic_per_seed():
    a, b, c = wl.cross_years(3), wl.cross_years(3), wl.cross_years(4)
    assert list(a) == list(wl.CROSS_YEARS)
    assert all(a[y] == b[y] for y in a)
    assert not any(a[y] == c[y] for y in a)
    assert all(len(s) == wl.YEAR_HOURS for s in a.values())


def test_ingest_feed_is_deterministic_per_seed():
    a, b, c = wl.ingest_feed(3), wl.ingest_feed(3), wl.ingest_feed(4)
    assert a == b
    assert a.bodies != c.bodies and a.dropped_hours != c.dropped_hours
    assert len(a.dropped_hours) == wl.INGEST_DROPPED_HOURS
    assert 0 < max(a.failures.values()) < 3


@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_cross_years_repeat_no_48h_window(seed):
    window = BatteryConfig().window_hours
    for series in wl.cross_years(seed).values():
        windows = np.lib.stride_tricks.sliding_window_view(series.prices, window)
        assert np.unique(windows, axis=0).shape[0] == windows.shape[0]


def test_square_wave_has_24_distinct_windows():
    windows = np.lib.stride_tricks.sliding_window_view(wl.square_wave_series().prices, 48)
    assert np.unique(windows, axis=0).shape[0] == 24


def test_self_time_subtracts_direct_children():
    tr = tracing.Tracer()
    tr.pass_no = 1

    def leaf():
        sum(range(20_000))

    wrapped = tr.wrap("leaf", leaf)
    with tr.span("outer"):
        wrapped()
        wrapped()
    s = tr.summary([1])
    assert s["leaf"]["calls"] == 2
    assert s["leaf"]["self_s"] == pytest.approx(s["leaf"]["busy_s"])
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["busy_s"] - s["leaf"]["busy_s"])
    assert 0 < s["outer"]["self_s"] < s["outer"]["busy_s"]


def test_patches_are_restored():
    from rtp_arb import experiment

    original = experiment.step
    with tracing.Tracer().installed():
        assert experiment.step is not original
    assert experiment.step is original


def test_clock_patches_are_restored():
    from rtp_arb import experiment

    original = experiment.train_step
    with tracing.Clock().installed():
        assert experiment.train_step is not original
    assert experiment.train_step is original


def test_timing_scales_each_stretch_by_the_probes_around_it():
    twice = tuple(2 * r for r in REFERENCE_S)
    t = Timing()
    t.stretches = [1.0, 2.0]
    t.probes = [REFERENCE_S, REFERENCE_S, twice]
    assert t.wall_s == 3.0
    assert t.normalized_s == pytest.approx(1.0 + 2.0 / 1.5)


def test_weights_pick_the_kernels_that_count():
    slow_numpy = (REFERENCE_S[0], 3 * REFERENCE_S[1], REFERENCE_S[2])
    assert slowdown(slow_numpy, SMALL_ARRAYS) == pytest.approx(3.0)
    assert slowdown(slow_numpy, WHOLE) == pytest.approx(sum(slow_numpy) / sum(REFERENCE_S))


def test_clock_times_the_whole_operation():
    clock = tracing.Clock()
    leaf = clock.wrap("leaf", lambda: sum(range(200_000)))
    with clock.timed() as t:
        for _ in range(20):
            leaf()
    assert len(t.probes) == len(t.stretches) + 1 >= 2
    assert all(s > 0 for s in t.stretches) and all(min(p) > 0 for p in t.probes)
