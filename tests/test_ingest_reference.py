"""Hourly binning of ``aggregate_hourly`` against the per-sample loop it replaced.

``aggregate_hourly`` now bins the samples by their whole-hour offset from the
first sample's hour and takes each hour's count and price sum from
``np.bincount``, which adds an hour's prices in sample order starting from
0.0. The loop below, which floored every timestamp to its hour and added into
numpy scalars one sample at a time, is the reference. It walks a list of
records; ``aggregate_hourly`` gets the same samples as columns. On drawn
samples (several per hour, at any offset within the hour, hours with none,
negative and repeated prices) and on a year of the 5-minute feed, both must
give the same price bytes, the same start hour and an equal ``IngestReport``.
"""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FiveMinuteSample, feed_columns
from rtp_arb import InsufficientDataError, IngestReport, aggregate_hourly
from rtp_arb.env import HOUR

UTC = timezone.utc


def _floor_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def reference_aggregate(samples):
    """The former loop, verbatim up to the series: (start, prices, report)."""
    first_hour = _floor_hour(samples[0].timestamp_utc)
    last_hour = _floor_hour(samples[-1].timestamp_utc)
    n_hours = int((last_hour - first_hour) / HOUR) + 1
    sums = np.zeros(n_hours)
    counts = np.zeros(n_hours, dtype=np.intp)
    for s in samples:
        idx = int((_floor_hour(s.timestamp_utc) - first_hour) / HOUR)
        sums[idx] += s.price_cents_per_kwh
        counts[idx] += 1

    sampled = counts > 0
    if int(sampled.sum()) < 2:
        raise InsufficientDataError(
            f"need at least 2 hours with samples, got {int(sampled.sum())}"
        )
    prices = np.empty(n_hours)
    prices[sampled] = sums[sampled] / counts[sampled]
    if not sampled.all():
        idx = np.arange(n_hours)
        prices[~sampled] = np.interp(idx[~sampled], idx[sampled], prices[sampled])

    hours = [first_hour + i * HOUR for i in range(n_hours)]
    report = IngestReport(
        hours_emitted=n_hours,
        hours_interpolated=tuple(hours[i] for i in np.flatnonzero(~sampled)),
        samples_per_hour_min=int(counts[sampled].min()),
    )
    return first_hour, prices, report


def assert_same_as_reference(samples):
    start, prices, report = reference_aggregate(samples)
    series, got = aggregate_hourly(feed_columns(samples))
    assert series.start == start
    assert series.prices.tobytes() == prices.tobytes()
    assert got == report


prices = st.one_of(
    st.sampled_from([-7.3, -0.1, 0.0, 2.7, 2.7, 13.9]),  # repeated and negative values
    st.floats(min_value=-50.0, max_value=500.0, allow_nan=False),
)
# microsecond offsets within one hour; an empty list is an hour with no samples
hour_offsets = st.lists(st.integers(0, 3_600_000_000 - 1), unique=True, max_size=14)


@st.composite
def samples(draw):
    base = datetime(2018, 1, 1, tzinfo=UTC) + draw(st.integers(0, 100_000)) * HOUR
    hours = draw(st.lists(hour_offsets, min_size=1, max_size=40))
    out = []
    for h, offsets in enumerate(hours):
        for us in sorted(offsets):
            out.append(FiveMinuteSample(base + h * HOUR + timedelta(microseconds=us), draw(prices)))
    if not out:
        out.append(FiveMinuteSample(base, draw(prices)))
    return out


@settings(max_examples=300, deadline=None)
@given(samples())
def test_binning_matches_the_per_sample_loop(drawn):
    try:
        reference_aggregate(drawn)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            aggregate_hourly(feed_columns(drawn))
        return
    assert_same_as_reference(drawn)


def test_several_samples_an_hour_and_missing_hours():
    base = datetime(2021, 3, 1, 5, tzinfo=UTC)
    drawn = [
        FiveMinuteSample(base + timedelta(minutes=m), p)
        for m, p in [(0, 0.1), (5, 0.2), (55, -0.3), (125, 0.7), (130, 0.7), (300, 1e-3)]
    ]
    assert_same_as_reference(drawn)
    series, report = aggregate_hourly(feed_columns(drawn))
    assert report.hours_interpolated == (base + HOUR, base + 3 * HOUR, base + 4 * HOUR)


def test_a_year_of_the_five_minute_feed():
    # 12 noisy samples an hour over 8,760 hours, six whole hours dropped
    rng = np.random.default_rng(11)
    n_hours = 8760
    values = np.repeat(3.0 + rng.normal(0.0, 1.0, n_hours), 12) + rng.normal(0.0, 0.4, 12 * n_hours)
    dropped = set(rng.choice(np.arange(1, n_hours - 1), 6, replace=False).tolist())
    base = datetime(2019, 1, 1, tzinfo=UTC)
    drawn = [
        FiveMinuteSample(base + k * timedelta(minutes=5), p)
        for k, p in enumerate(values.tolist())
        if k // 12 not in dropped
    ]
    assert_same_as_reference(drawn)
    assert len(aggregate_hourly(feed_columns(drawn))[1].hours_interpolated) == 6
