"""Shared fixtures and hypothesis strategies.

Exactness note: several contracts promise bit-exact float behavior (charge
round trips, shift-invariant rewards). Those hold on any binary-friendly
grid but not for arbitrary decimals, so the strategies below generate
multiples of 1/64. Everything representable on that grid survives the
clamped +/- arithmetic with zero rounding, which lets the exact assertions
stay exact.
"""

import ctypes
import os
from collections import namedtuple
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rtp_arb import BatteryConfig, FeedSamples, PriceSeries, experiment, greedy_rollout, network

START = datetime(2018, 1, 1, tzinfo=timezone.utc)
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)

#: One 5-minute reading as a record: the form the former per-record feed
#: paths took, which the reference tests keep.
FiveMinuteSample = namedtuple("FiveMinuteSample", "timestamp_utc price_cents_per_kwh")

GRID = 64  # dyadic denominator for exact-arithmetic strategies


def make_series(prices, start=START) -> PriceSeries:
    return PriceSeries.from_prices(start, prices)


def feed_columns(pairs) -> FeedSamples:
    """The :class:`FeedSamples` of (UTC datetime, price) pairs, records among
    them, in the given order."""
    pairs = list(pairs)
    return FeedSamples([(ts - EPOCH) // MICROSECOND for ts, _ in pairs], [p for _, p in pairs])


def feed_stamps(samples: FeedSamples) -> list[datetime]:
    """The UTC datetimes of the ``micros`` column."""
    return [EPOCH + m * MICROSECOND for m in samples.micros.tolist()]


def random_walk(seed: int, hours: int) -> PriceSeries:
    rng = np.random.default_rng(seed)
    prices = 4.0 + np.cumsum(rng.normal(0.0, 0.7, hours))
    return PriceSeries.from_prices(datetime(2020, 1, 1, tzinfo=timezone.utc), prices)


CONFIGS = [
    BatteryConfig(),  # 5 kW does not divide 13.5 kWh: 6 levels
    BatteryConfig(capacity_kwh=6.0, rate_kw=1.5, window_hours=2),
    BatteryConfig(capacity_kwh=10.0, rate_kw=3.0, window_hours=6),  # 3 does not divide 10
    BatteryConfig(capacity_kwh=4.0, rate_kw=2.0, window_hours=1),
]


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid gave pid {pid}, status {status})")


@pytest.fixture
def powerwall() -> BatteryConfig:
    return BatteryConfig()  # 13.5 kWh at 5 kW, 48-hour window


def dyadic(lo: float, hi: float):
    """Multiples of 1/GRID within [lo, hi]."""
    return st.integers(min_value=round(lo * GRID), max_value=round(hi * GRID)).map(
        lambda k: k / GRID
    )


def dyadic_prices(min_len: int = 2, max_len: int = 60):
    return st.lists(dyadic(-8.0, 16.0), min_size=min_len, max_size=max_len)


def dyadic_configs(window: int = 4):
    return st.tuples(dyadic(0.5, 20.0), dyadic(0.5, 20.0)).map(
        lambda wp: BatteryConfig(capacity_kwh=wp[0], rate_kw=wp[1], window_hours=window)
    )


def continuous_configs(window: int = 4):
    finite = st.floats(min_value=0.5, max_value=20.0, allow_nan=False)
    return st.tuples(finite, finite).map(
        lambda wp: BatteryConfig(capacity_kwh=wp[0], rate_kw=wp[1], window_hours=window)
    )


def continuous_prices(min_len: int = 2, max_len: int = 60):
    return st.lists(
        st.floats(min_value=-10.0, max_value=30.0, allow_nan=False),
        min_size=min_len,
        max_size=max_len,
    )


def action_codes(n: int):
    return st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)


def rng_seeds():
    return st.integers(min_value=0, max_value=2**32 - 1)


def square_wave_series(days: int = 365, low: float = 2.0, high: float = 6.0) -> PriceSeries:
    """12 cheap hours then 12 dear hours, repeated; the learning surrogate."""
    day = np.concatenate([np.full(12, low), np.full(12, high)])
    return PriceSeries.from_prices(
        datetime(2021, 1, 1, tzinfo=timezone.utc), np.tile(day, days)
    )


#: A greedy decision closer than this to a tie could flip between a one-row
#: and a batched forward, whose Q-values differ by a few ulps (about 1e-15).
DECISION_MARGIN = 1e-9


def greedy_blocks(net, norm, prices, config):
    """``greedy_rollout``'s result, plus the input rows and Q-values of each of
    its block forwards, in order, as a list of (x, q) pairs."""
    blocks = []

    class Recording(network.BlockForward):
        def __call__(self, n):
            q = super().__call__(n)
            blocks.append((self.x[:n].copy(), q.copy()))
            return q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "BlockForward", Recording)
        got = greedy_rollout(net, norm, prices, config)
    return got, blocks


def greedy_tables(net, norm, prices, config):
    """``greedy_rollout``'s result, plus the input rows and Q-values of its
    block forwards as (hour, charge level) tables."""
    got, blocks = greedy_blocks(net, norm, prices, config)
    x, q = (np.concatenate(col) for col in zip(*blocks))
    return got, x.reshape(len(prices) - 1, -1, x.shape[1]), q.reshape(len(prices) - 1, -1, q.shape[1])


def assert_decisive(q_one, q_batch):
    """The greedy choice over the Q-values of one input, from a one-row
    forward and from inside a batch, cannot flip on rounding: the top two
    differ by at least DECISION_MARGIN in both, or the top pair is bit-equal
    in both (a dead-ReLU tie, which the lowest code breaks alike)."""
    top_one = np.argsort(-q_one, kind="stable")[:2]
    top_batch = np.argsort(-q_batch, kind="stable")[:2]
    a, b = top_one
    if set(top_one) == set(top_batch) and q_one[a] == q_one[b] and q_batch[a] == q_batch[b]:
        return
    for q, (a, b) in ((q_one, top_one), (q_batch, top_batch)):
        assert q[a] - q[b] >= DECISION_MARGIN, (q_one, q_batch)


def blas_core() -> str:
    """The name of the kernel (``SkylakeX``, ``Haswell``, ...) that numpy's
    bundled OpenBLAS chose for this CPU, or what ``OPENBLAS_CORETYPE`` forced.

    Its matrix products, and so the pinned checkpoint bytes, round by the
    kernel. A numpy without a bundled OpenBLAS gives ``"unknown"``."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            get = getattr(dll, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "unknown"


def pinned_for_blas_core(values: dict):
    """The value recorded for this machine's BLAS kernel; fails naming an unrecorded kernel."""
    core = blas_core()
    assert core in values, f"nothing recorded for the BLAS kernel {core!r}: record it and pin it beside {sorted(values)}"
    return values[core]
