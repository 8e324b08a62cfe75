"""Columnar ``fetch_five_minute_feed`` against the per-record paths it replaced.

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

Each body is converted a column at a time, and record by record only when
that fails. ``reference_payload`` is the parser that converted every body
record by record; on drawn bodies that mix string, integer, float, bool and
null fields, missing keys, non-object records, fields that ``int()`` and
``float()`` read but the feed does not write, numbers past ``int()``'s digit
limit and stamps past 64 bits, the parser must give its column bytes or its
``ParseError`` message.
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
from rtp_arb.ingest import _day_chunks, _parse_feed_payload, number_text

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


def reference_payload(body: str, lo_ms: int, hi_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """The record-by-record ``_parse_feed_payload``, verbatim."""
    try:
        records = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ParseError(f"feed payload is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise ParseError(f"feed payload should be a JSON array, got {type(records).__name__}")
    millis, prices = [], []
    for rec in records:
        try:
            m, p = rec["millisUTC"], rec["price"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"feed record {rec!r} lacks millisUTC/price fields") from exc
        # int() and float() would read a JSON true as 1
        if m.__class__ is bool or p.__class__ is bool:
            raise ParseError(f"feed record {rec!r} has a boolean field")
        try:
            # int() would truncate a JSON 1.5 to 1
            if m.__class__ is float and not m.is_integer():
                raise ValueError(m)
            millis.append(int(m))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"feed record {rec!r} has a non-integer millisUTC") from exc
        try:
            prices.append(float(p))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"feed record {rec!r} has a non-numeric price") from exc
    if "_" in body or "\\" in body or not body.isascii():
        for rec in records:
            for key in ("millisUTC", "price"):
                if rec[key].__class__ is str:
                    try:
                        number_text(rec[key].strip())
                    except ValueError as exc:
                        raise ParseError(f"feed record {rec!r} has a {key} not written as a number") from exc
    try:
        ms = np.array(millis, np.int64)
    except OverflowError:
        bad = next(i for i, m in enumerate(millis) if not -(2**63) <= m < 2**63)
        raise ParseError(f"feed record {records[bad]!r} has a millisUTC beyond 64 bits") from None
    values = np.array(prices, np.float64)
    for what, bad in (
        ("has a non-finite price", ~np.isfinite(values)),
        ("is not on a 5-minute boundary", ms % 300_000 != 0),
    ):
        if bad.any():
            raise ParseError(f"feed record {records[int(np.argmax(bad))]!r} {what}")
    keep = (lo_ms <= ms) & (ms < hi_ms)
    return ms[keep], values[keep]


def payload_outcome(parse, body, lo_ms, hi_ms):
    """The columns' dtypes and bytes, or the error's class and message."""
    try:
        ms, values = parse(body, lo_ms, hi_ms)
    except Exception as exc:
        return type(exc), str(exc)
    return ms.dtype, ms.tobytes(), values.dtype, values.tobytes()


def assert_same_payload(body, lo_ms=BASE_MS, hi_ms=BASE_MS + 86_400_000):
    want = payload_outcome(reference_payload, body, lo_ms, hi_ms)
    assert payload_outcome(_parse_feed_payload, body, lo_ms, hi_ms) == want
    return want


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
LONG_DIGITS = "1" * 4_400  # past int()'s default limit of 4,300 digits


def either(*strategies):
    """One of ``strategies``, each as likely (``st.one_of`` favours the first)."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


steps = st.integers(-3, 300)
# fields as the feed writes them, and as it does not: JSON numbers and other
# non-strings, strings that int() and float() read but the feed does not
# write, and strings the feed's format rejects
good_stamps = steps.map(lambda k: str(BASE_MS + 300_000 * k))
odd_stamps = either(
    either(
        steps.map(lambda k: BASE_MS + 300_000 * k),
        steps.map(lambda k: float(BASE_MS + 300_000 * k)),
        steps.map(lambda k: BASE_MS + 300_000 * k + 0.5),
        st.sampled_from([2**63, -(2**63) - 300_000]),
    ),
    st.sampled_from([True, False, None, [1]]),
    either(
        steps.map(lambda k: f" {BASE_MS + 300_000 * k} "),
        steps.map(lambda k: f"{BASE_MS + 300_000 * k:_}"),
        steps.map(lambda k: str(BASE_MS + 300_000 * k).translate(ARABIC_INDIC)),
    ),
    # read as integers, then rejected: off the 5-minute grid, past 64 bits
    st.sampled_from([str(BASE_MS + 60_000), "9" * 20, str(-(2**64) * 300_000)]),
    st.sampled_from(["soon", "", "1.5", LONG_DIGITS]),
)
good_prices = prices.map(str)
odd_prices = either(
    either(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-(10**20), 10**20),
        st.integers(-500, 500).map(float),
    ),
    st.sampled_from([True, False, None, {"cents": 1}]),
    either(
        prices.map(lambda p: f" {p} "),
        st.sampled_from(["1_0", "\u0663", "3.\u0661", "1e5_0"]),
    ),
    # read as floats, then rejected as not finite
    st.sampled_from(["NaN", "-inf", "1e400", "0." + LONG_DIGITS[:400] + "e400"]),
    # not numbers, and digits past int()'s limit, which float() reads as inf
    st.sampled_from(["abc", "", LONG_DIGITS + "." + LONG_DIGITS]),
)
# one odd field beside a good one comes twice: such a record can pass the
# type checks and fail only a later one
odd_records = either(
    st.builds(lambda m, p: {"millisUTC": m, "price": p}, good_stamps, odd_prices),
    st.builds(lambda m, p: {"millisUTC": m, "price": p}, good_stamps, odd_prices),
    st.builds(lambda m, p: {"millisUTC": m, "price": p}, odd_stamps, good_prices),
    st.builds(lambda m, p: {"millisUTC": m, "price": p}, odd_stamps, good_prices),
    st.builds(lambda m, p: {"price": p, "millisUTC": m, "extra": None}, odd_stamps, odd_prices),
    st.builds(lambda m: {"millisUTC": m}, good_stamps),
    st.builds(lambda p: {"price": p}, good_prices),
    st.sampled_from([None, 7, "record", ["not", "a", "record"], {}]),
)


@st.composite
def feed_payloads(draw):
    """A body of records as the feed writes them and a few drawn ones."""
    records = [
        {"millisUTC": str(BASE_MS + 300_000 * k), "price": str(p)}
        for k, p in draw(st.lists(st.tuples(steps, prices), max_size=20))
    ]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        at = draw(st.integers(0, len(records)))
        odd = draw(odd_records)
        if draw(st.booleans()) and at < len(records):
            records[at] = odd
        else:
            records.insert(at, odd)
    # ensure_ascii writes a non-ASCII digit as a \u escape, not raw
    body = json.dumps(records, ensure_ascii=draw(st.booleans()))
    if draw(st.integers(0, 4)) == 0:
        # one ASCII digit of a string field as a \u escape
        body = body.replace('"1', '"\\u0031', 1)
    return body


@settings(max_examples=500, deadline=None)
@given(feed_payloads(), st.integers(-4, 304), st.integers(0, 304))
def test_column_parse_matches_the_record_parse(body, lo, span):
    lo_ms = BASE_MS + 300_000 * lo
    assert_same_payload(body, lo_ms, lo_ms + 300_000 * span)


@pytest.mark.parametrize(
    "body",
    [
        "[]",
        "{}",
        "[1, 2",
        '[{"millisUTC": "\\u0031552186800000", "price": "1.0"}]',
        '[{"millisUTC": 1552186800000, "price": "1.0"}]',
        '[{"millisUTC": 1552186800000.0, "price": 1}]',
        '[{"millisUTC": "1552186800000", "price": "1.0"}, {"millisUTC": "99999999999999999999", "price": "1_0"}]',
        '[{"millisUTC": "99999999999999999999", "price": "1.0"}, {"millisUTC": "1552186800000", "price": "1_0"}]',
        '[{"millisUTC": "1552186800000", "price": "1.0"}, {"millisUTC": "%s", "price": "2.0"}]' % LONG_DIGITS,
    ],
)
def test_column_parse_matches_the_record_parse_on_edge_bodies(body):
    assert_same_payload(body)


def test_column_parse_matches_the_record_parse_on_a_year():
    # the benchmark year as the feed writes it, and with every stamp a JSON
    # number, which only the record-by-record conversion accepts
    for body in ingest_feed(101).bodies.values():
        as_numbers = [{"millisUTC": int(r["millisUTC"]), "price": r["price"]} for r in json.loads(body)]
        for text in (body, json.dumps(as_numbers)):
            want = assert_same_payload(text, -(2**62), 2**62)
            assert want[0] == np.int64 and len(want[1]) > 0
