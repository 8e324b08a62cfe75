"""Columnar ``fetch_five_minute_feed`` against the per-record path it replaced.

The fetch now parses each body's records into a millisecond and a price
column, checks them and filters them to ``[start, end)`` as arrays, and
deduplicates and sorts with ``np.unique`` over the reversed columns, so that
the last record seen for a timestamp wins. The reference below is the former
path: one ``datetime`` and one ``FiveMinuteSample`` per record, a dict keyed
by timestamp (a later record overwrites an earlier one) and a sort. On drawn
chunk bodies (duplicates with different prices within a body and across
bodies, records outside the range, unsorted records, negative prices,
malformed records) and on a benchmark-size year, both must give the same
timestamps, the same price bytes, the same ``aggregate_hourly`` output and the
same error class.
"""

import json
import math
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EPOCH, MICROSECOND, FiveMinuteSample, feed_columns
from rtp_arb import (
    FeedSamples,
    InsufficientDataError,
    ParseError,
    aggregate_hourly,
    fetch_five_minute_feed,
)
from rtp_arb.ingest import _day_chunks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from workloads import ingest_feed  # noqa: E402

UTC = timezone.utc
# 21:00 in the feed's zone the evening before its spring-forward night, so a
# range of more than three hours spans two feed-zone days
BASE = datetime(2019, 3, 10, 3, tzinfo=UTC)
BASE_MS = int(BASE.timestamp()) * 1000


def reference_parse(body: str) -> list[FiveMinuteSample]:
    """The former ``_parse_feed_payload``, verbatim."""
    try:
        records = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ParseError(f"feed payload is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise ParseError(f"feed payload should be a JSON array, got {type(records).__name__}")
    samples = []
    for rec in records:
        if not isinstance(rec, dict) or "millisUTC" not in rec or "price" not in rec:
            raise ParseError(f"feed record {rec!r} lacks millisUTC/price fields")
        try:
            millis = int(rec["millisUTC"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"feed record {rec!r} has a non-integer millisUTC") from exc
        try:
            price = float(rec["price"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"feed record {rec!r} has a non-numeric price") from exc
        if not math.isfinite(price):
            raise ParseError(f"feed record {rec!r} has a non-finite price")
        ts = datetime.fromtimestamp(millis / 1000.0, tz=timezone.utc)
        if ts.minute % 5 or ts.second or ts.microsecond:
            raise ParseError(f"feed record {rec!r} is not on a 5-minute boundary")
        samples.append(FiveMinuteSample(ts, price))
    return samples


def reference_fetch(date_start, date_end, bodies) -> list[FiveMinuteSample]:
    """The former dict-then-sort collection over the chunk bodies in order."""
    collected = {}
    for body in bodies:
        for s in reference_parse(body):
            if date_start <= s.timestamp_utc < date_end:
                collected[s.timestamp_utc] = s
    return [collected[ts] for ts in sorted(collected)]


def aggregate_or_error(samples):
    try:
        series, report = aggregate_hourly(samples)
    except InsufficientDataError:
        return InsufficientDataError
    return series.start, series.prices.tobytes(), report


def serving(bodies):
    """A transport that answers the chunk requests with ``bodies`` in order."""
    it = iter(bodies)
    return lambda url: next(it)


def assert_same_as_reference(date_start, date_end, bodies):
    try:
        want = reference_fetch(date_start, date_end, bodies)
    except ParseError:
        with pytest.raises(ParseError):
            fetch_five_minute_feed(date_start, date_end, http_get=serving(bodies))
        return
    got = fetch_five_minute_feed(date_start, date_end, http_get=serving(bodies))
    assert isinstance(got, FeedSamples)
    assert got.micros.tolist() == [(s.timestamp_utc - EPOCH) // MICROSECOND for s in want]
    assert got.prices.tobytes() == np.array([s.price_cents_per_kwh for s in want]).tobytes()
    assert aggregate_or_error(got) == aggregate_or_error(feed_columns(want))


prices = st.one_of(
    st.sampled_from([-7.3, -0.1, 0.0, 2.7, 13.9]),
    st.floats(min_value=-50.0, max_value=500.0, allow_nan=False),
)
# records that each break one rule of the feed format
malformed = st.sampled_from(
    [
        {"millisUTC": str(BASE_MS + 60_000), "price": "1.0"},  # off the 5-minute grid
        {"millisUTC": str(BASE_MS), "price": "abc"},
        {"millisUTC": str(BASE_MS), "price": "NaN"},
        {"millisUTC": "soon", "price": "1.0"},
        {"millisUTC": str(BASE_MS)},
        ["not", "a", "record"],
    ]
)


@st.composite
def chunk_bodies(draw):
    hours = draw(st.integers(1, 8))
    date_start, date_end = BASE, BASE + hours * timedelta(hours=1)
    # 5-minute steps from a little before the range to a little after its end
    step = st.integers(-3, 12 * hours + 3)
    bodies = []
    for _ in _day_chunks(date_start, date_end):
        records = [
            {"millisUTC": str(BASE_MS + 300_000 * k), "price": str(p)}
            for k, p in draw(st.lists(st.tuples(step, prices), max_size=30))
        ]
        if draw(st.integers(0, 9)) == 0:
            records.insert(draw(st.integers(0, len(records))), draw(malformed))
        bodies.append(json.dumps(records))
    return date_start, date_end, bodies


@settings(max_examples=300, deadline=None)
@given(chunk_bodies())
def test_columnar_fetch_matches_the_per_record_path(drawn):
    assert_same_as_reference(*drawn)


def test_repeated_stamps_keep_the_last_record_seen():
    records = [(0, "1.0"), (1, "2.0"), (0, "3.0"), (13, "4.0"), (1, "5.0")]
    body = json.dumps([{"millisUTC": str(BASE_MS + 300_000 * k), "price": p} for k, p in records])
    later = json.dumps([{"millisUTC": str(BASE_MS + 300_000 * 13), "price": "-6.0"}])
    date_end = BASE + timedelta(hours=6)
    assert len(_day_chunks(BASE, date_end)) == 2
    assert_same_as_reference(BASE, date_end, [body, later])
    got = fetch_five_minute_feed(BASE, date_end, http_get=serving([body, later]))
    assert got.prices.tolist() == [3.0, 5.0, -6.0]


def test_a_benchmark_year():
    feed = ingest_feed(101)
    assert_same_as_reference(feed.start, feed.end, list(feed.bodies.values()))


def test_range_bounds_between_milliseconds():
    # a bound 1 µs past a sample's stamp excludes it at the start and includes it at the end
    records = [{"millisUTC": str(BASE_MS + 300_000 * k), "price": str(float(k))} for k in range(14)]
    date_start, date_end = BASE + MICROSECOND, BASE + timedelta(hours=1) + MICROSECOND
    assert_same_as_reference(date_start, date_end, [json.dumps(records)])
    got = fetch_five_minute_feed(date_start, date_end, http_get=serving([json.dumps(records)]))
    assert got.prices.tolist() == [float(k) for k in range(1, 13)]
