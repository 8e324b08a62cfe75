"""Price acquisition: public 5-minute feed to cached hourly CSV.

The upstream feed serves 5-minute real-time prices as JSON records keyed by
millisecond timestamps. This module fetches a UTC range in per-day chunks
(retrying transient failures), averages each UTC hour's samples into an
hourly series, bridges fully missing hours by linear interpolation (and says
so in the returned report), and round-trips the result through a small,
strict CSV cache format.

The HTTP transport and the retry sleep are injectable so tests run entirely
from recorded fixtures; nothing here touches the network unless asked to.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, time as dtime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .atomic import write_lines
from .env import HOUR, PriceSeries
from .errors import InsufficientDataError, ParseError, TransportError, ValidationError

log = logging.getLogger(__name__)

#: Public hourly-pricing API of the utility serving the price data.
DEFAULT_ENDPOINT = "https://hourlypricing.comed.com/api"
#: The feed interprets datestart/dateend as local wall time in this zone.
FEED_TIMEZONE = ZoneInfo("America/Chicago")

CSV_HEADER = "hour_start_utc,price_cents_per_kwh"
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
# A stamp is well formed when mapping its ASCII digits to "0" gives the shape.
# (A regex guard did the same job but raised the ingest benchmark's peak memory
# by about 2.5 MiB in four of six checkout directories tried.)
_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_TIMESTAMP_SHAPE = "0000-00-00T00:00:00Z"

RETRY_ATTEMPTS = 3
RETRY_BASE_SECONDS = 1.0

FIVE_MINUTES = timedelta(minutes=5)


@dataclass(frozen=True)
class FiveMinuteSample:
    """One 5-minute price reading from the feed."""

    timestamp_utc: datetime
    price_cents_per_kwh: float


@dataclass(frozen=True)
class IngestReport:
    """What aggregation did to the raw samples.

    ``samples_per_hour_min`` is the fewest samples seen in any hour that had
    samples at all; hours with none are listed in ``hours_interpolated``.
    """

    hours_emitted: int
    hours_interpolated: tuple[datetime, ...]
    samples_per_hour_min: int


def _default_http_get(url: str) -> str:
    # imported here: urllib.request loads ssl, some 7 MiB of resident memory
    # that only a real fetch needs; a 4xx/5xx status raises HTTPError
    import urllib.request

    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.read().decode("utf-8")


def _parse_feed_payload(body: str) -> list[FiveMinuteSample]:
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


def _feed_url(endpoint: str, chunk_start: datetime, chunk_end: datetime) -> str:
    # The feed takes wall-clock minutes in its home zone, both ends inclusive;
    # the exclusive UTC chunk end therefore maps to end minus one sample step.
    ds = chunk_start.astimezone(FEED_TIMEZONE).strftime("%Y%m%d%H%M")
    de = (chunk_end - FIVE_MINUTES).astimezone(FEED_TIMEZONE).strftime("%Y%m%d%H%M")
    return f"{endpoint}?type=5minutefeed&datestart={ds}&dateend={de}"


def _day_chunks(date_start: datetime, date_end: datetime) -> list[tuple[datetime, datetime]]:
    """Split a UTC range on local-midnight boundaries of the feed's zone."""
    chunks = []
    cursor = date_start
    while cursor < date_end:
        local_day = cursor.astimezone(FEED_TIMEZONE).date()
        next_midnight = datetime.combine(
            local_day + timedelta(days=1), dtime(), tzinfo=FEED_TIMEZONE
        ).astimezone(timezone.utc)
        chunks.append((cursor, min(next_midnight, date_end)))
        cursor = next_midnight
    return chunks


def fetch_five_minute_feed(
    date_start: datetime,
    date_end: datetime,
    endpoint: str = DEFAULT_ENDPOINT,
    http_get: Callable[[str], str] = _default_http_get,
    sleep: Callable[[float], None] = time.sleep,
) -> list[FiveMinuteSample]:
    """Fetch all 5-minute samples with start <= timestamp < end (UTC).

    The range is requested one feed-zone day at a time, each chunk retried up
    to 3 times with exponential backoff before giving up with a transport
    error. Results are sorted ascending and deduplicated.
    """
    if date_start.tzinfo is None or date_end.tzinfo is None:
        raise ValueError("date_start and date_end must be timezone-aware")
    if date_start >= date_end:
        raise ValueError(f"empty fetch range: {date_start.isoformat()} >= {date_end.isoformat()}")

    collected: dict[datetime, FiveMinuteSample] = {}
    for chunk_start, chunk_end in _day_chunks(date_start, date_end):
        url = _feed_url(endpoint, chunk_start, chunk_end)
        for attempt in range(RETRY_ATTEMPTS):
            try:
                body = http_get(url)
                break
            except ParseError:
                raise
            except Exception as exc:
                if attempt + 1 == RETRY_ATTEMPTS:
                    raise TransportError(
                        f"fetch failed after {RETRY_ATTEMPTS} attempts: {url} ({exc})"
                    ) from exc
                delay = RETRY_BASE_SECONDS * 2**attempt
                log.warning("fetch attempt %d failed (%s); retrying in %gs", attempt + 1, exc, delay)
                sleep(delay)
        for s in _parse_feed_payload(body):
            if date_start <= s.timestamp_utc < date_end:
                collected[s.timestamp_utc] = s

    if not collected:
        log.warning(
            "feed returned no samples for %s .. %s", date_start.isoformat(), date_end.isoformat()
        )
    return [collected[ts] for ts in sorted(collected)]


def _floor_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def aggregate_hourly(samples: Sequence[FiveMinuteSample]) -> tuple[PriceSeries, IngestReport]:
    """Average 5-minute samples into a gap-free hourly series.

    Each hour's price is the mean of its samples; hours with none are filled
    by linear interpolation between the nearest sampled hours and flagged in
    the report. First and last hours always have samples by construction.
    """
    for a, b in zip(samples, samples[1:]):
        if a.timestamp_utc >= b.timestamp_utc:
            raise ValueError(
                f"samples must be strictly ascending; {a.timestamp_utc.isoformat()} "
                f"then {b.timestamp_utc.isoformat()}"
            )
    if not samples:
        raise InsufficientDataError("no samples to aggregate")

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
    series = PriceSeries(hours, prices)
    report = IngestReport(
        hours_emitted=n_hours,
        hours_interpolated=tuple(hours[i] for i in np.flatnonzero(~sampled)),
        samples_per_hour_min=int(counts[sampled].min()),
    )
    return series, report


def parse_timestamp(text: str) -> datetime:
    """Parse exactly the zero-padded ``TIMESTAMP_FORMAT`` form as a UTC datetime.

    Any other spelling (missing zero padding, a numeric offset, surrounding
    spaces) or an impossible date raises ValueError.
    """
    if text.translate(_DIGITS_TO_ZERO) != _TIMESTAMP_SHAPE:
        raise ValueError(f"{text!r} is not YYYY-MM-DDTHH:MM:SSZ")
    # an explicit offset parses faster than .replace(tzinfo=...) and gives timezone.utc
    return datetime.fromisoformat(text[:-1] + "+00:00")


def write_price_csv(series: PriceSeries, path) -> None:
    """Write the strict hourly cache format: LF endings, full-precision prices."""
    lines = [CSV_HEADER]
    for ts, price in zip(series.hours, series.prices):
        lines.append(f"{ts.strftime(TIMESTAMP_FORMAT)},{float(price)!r}")
    write_lines(path, lines)


def read_csv_rows(path, header: str, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row number, fields)`` of a strict comma-separated file, one row at a time.

    Row 1 must be ``header`` exactly and every later row must have ``n_fields``
    fields; errors cite the 1-based offending row.
    """
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"file does not exist: {p}")
    try:
        lines = p.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{p}: not UTF-8 text: {exc}") from exc
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        got = lines[0] if lines else ""
        raise ValidationError(f"{p}: row 1: expected header {header!r}, got {got!r}")
    for row_no in range(2, len(lines) + 1):
        parts = lines[row_no - 1].split(",")
        if len(parts) != n_fields:
            raise ValidationError(f"{p}: row {row_no}: expected {n_fields} fields, got {len(parts)}")
        yield row_no, parts


def read_price_csv(path) -> PriceSeries:
    """Read the cache format back; errors cite the 1-based offending row."""
    hours = []
    prices = []
    for row_no, (ts_s, price_s) in read_csv_rows(path, CSV_HEADER, 2):
        try:
            hours.append(parse_timestamp(ts_s))
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row_no}: bad timestamp {ts_s!r}") from exc
        try:
            prices.append(float(price_s))
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row_no}: bad price {price_s!r}") from exc
    if len(hours) < 2:
        raise InsufficientDataError(f"{path}: fewer than 2 price rows")
    try:
        return PriceSeries(hours, prices)
    except ValidationError as exc:
        # PriceSeries owns the hour-step and finiteness checks; cite the CSV row
        raise ValidationError(f"{path}: row {exc.position + 2}: {exc}") from exc


def default_data_dir() -> Path:
    """Cache directory for fetched price CSVs; RTP_ARB_DATA_DIR overrides."""
    override = os.environ.get("RTP_ARB_DATA_DIR")
    if override:
        return Path(override)
    return Path.home() / ".local" / "share" / "rtp-arb"


def year_csv_path(data_dir, year: int) -> Path:
    return Path(data_dir) / f"comed_{year}.csv"
