"""Price acquisition: public 5-minute feed to cached hourly CSV.

The upstream feed serves 5-minute real-time prices as JSON records keyed by
millisecond timestamps. This module fetches a UTC range in per-day chunks
(retrying transient failures) into :class:`FeedSamples`: two read-only
columns, int64 microseconds since the Unix epoch and float64 prices, sorted
and deduplicated (the last record seen for a timestamp wins). It averages
each UTC hour's samples into an hourly series, bridges fully missing hours by
linear interpolation (and says so in the returned report), and round-trips
the result through a small, strict CSV cache format, written and checked as
columns: the stamps come from :func:`hour_stamps`, and the reader compares a
block of rows at a time with them.

The HTTP transport and the retry sleep are injectable so tests run entirely
from recorded fixtures; nothing here touches the network unless asked to.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, time as dtime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterator
from zoneinfo import ZoneInfo

import numpy as np

from .atomic import write_lines
from .env import HOUR, PriceSeries, _require_utc
from .errors import InsufficientDataError, ParseError, TransportError, ValidationError

log = logging.getLogger(__name__)

#: Public hourly-pricing API of the utility serving the price data.
DEFAULT_ENDPOINT = "https://hourlypricing.comed.com/api"
#: The feed interprets datestart/dateend as local wall time in this zone.
FEED_TIMEZONE = ZoneInfo("America/Chicago")

CSV_HEADER = "hour_start_utc,price_cents_per_kwh"
# A stamp is well formed when mapping its ASCII digits to "0" gives the shape.
# (A regex guard did the same job but raised the ingest benchmark's peak memory
# by about 2.5 MiB in four of six checkout directories tried.)
_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_TIMESTAMP_SHAPE = "0000-00-00T00:00:00Z"

RETRY_ATTEMPTS = 3
RETRY_BASE_SECONDS = 1.0

FIVE_MINUTES = timedelta(minutes=5)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_HOUR_US = HOUR // _MICROSECOND


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


class FeedSamples(Sequence):
    """5-minute samples as two read-only columns.

    ``micros`` holds int64 microseconds since the Unix epoch, ``datetime``'s
    own resolution, so every :class:`FiveMinuteSample` converts exactly;
    ``prices`` holds the float64 cents/kWh. An int index gives a
    ``FiveMinuteSample``, a slice gives a ``FeedSamples``.
    """

    __slots__ = ("micros", "prices")

    def __init__(self, micros, prices):
        micros, prices = np.array(micros, np.int64), np.array(prices, np.float64)
        if micros.ndim != 1 or micros.shape != prices.shape:
            raise ValueError(f"need two equal 1-d columns, got {micros.shape} and {prices.shape}")
        micros.setflags(write=False)
        prices.setflags(write=False)
        object.__setattr__(self, "micros", micros)
        object.__setattr__(self, "prices", prices)

    def __setattr__(self, name, value):
        raise AttributeError("FeedSamples is immutable")

    def __len__(self) -> int:
        return len(self.micros)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FeedSamples(self.micros[i], self.prices[i])
        return FiveMinuteSample(_EPOCH + int(self.micros[i]) * _MICROSECOND, float(self.prices[i]))


def _parse_feed_payload(body: str, lo_ms: int, hi_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """The (millis, prices) columns of one body's records with lo_ms <= millis < hi_ms.

    Every record is checked, also those outside the range; an error names the
    first offending record of its kind.
    """
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
) -> FeedSamples:
    """Fetch all 5-minute samples with start <= timestamp < end (UTC).

    The range is requested one feed-zone day at a time, each chunk retried up
    to 3 times with exponential backoff before giving up with a transport
    error. Each body's records are parsed into columns, checked and filtered
    to the range as arrays; the samples come back strictly ascending, and
    where the feed repeats a timestamp the last record seen wins.
    """
    if date_start.tzinfo is None or date_end.tzinfo is None:
        raise ValueError("date_start and date_end must be timezone-aware")
    if date_start >= date_end:
        raise ValueError(f"empty fetch range: {date_start.isoformat()} >= {date_end.isoformat()}")

    # a record's whole-millisecond stamp is in [start, end) iff it is in
    # [lo_ms, hi_ms), both bounds rounded up to whole milliseconds
    lo_ms, hi_ms = (-((_EPOCH - t) // timedelta(milliseconds=1)) for t in (date_start, date_end))
    millis, prices = [], []
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
        ms, values = _parse_feed_payload(body, lo_ms, hi_ms)
        millis.append(ms)
        prices.append(values)

    # np.unique keeps each timestamp's first index, which in the reversed
    # columns is the last record seen
    ms, first = np.unique(np.concatenate(millis)[::-1], return_index=True)
    if not len(ms):
        log.warning(
            "feed returned no samples for %s .. %s", date_start.isoformat(), date_end.isoformat()
        )
    return FeedSamples(ms * 1000, np.concatenate(prices)[::-1][first])


def aggregate_hourly(samples: Sequence[FiveMinuteSample]) -> tuple[PriceSeries, IngestReport]:
    """Average 5-minute samples into a gap-free hourly series.

    Each hour's price is the mean of its samples; hours with none are filled
    by linear interpolation between the nearest sampled hours and flagged in
    the report. First and last hours always have samples by construction.
    A plain sequence of records is first converted to :class:`FeedSamples`.
    Samples are binned by their whole-hour offset from the first sample's
    hour; ``np.bincount`` adds each hour's prices in sample order from 0.0.
    """
    if not isinstance(samples, FeedSamples):
        if len(samples):
            _require_utc(samples[0].timestamp_utc)
        samples = FeedSamples(
            [(s.timestamp_utc - _EPOCH) // _MICROSECOND for s in samples],
            [s.price_cents_per_kwh for s in samples],
        )
    micros = samples.micros
    unsorted = np.diff(micros) <= 0
    if unsorted.any():
        i = int(np.argmax(unsorted))
        a, b = samples[i], samples[i + 1]
        raise ValueError(
            f"samples must be strictly ascending; {a.timestamp_utc.isoformat()} "
            f"then {b.timestamp_utc.isoformat()}"
        )
    if not len(micros):
        raise InsufficientDataError("no samples to aggregate")

    first_hour = int(micros[0]) // _HOUR_US * _HOUR_US
    start = _EPOCH + first_hour * _MICROSECOND
    offsets = (micros - first_hour) // _HOUR_US
    counts = np.bincount(offsets)
    sums = np.bincount(offsets, weights=samples.prices)
    n_hours = len(counts)

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

    series = PriceSeries(start, prices)
    report = IngestReport(
        hours_emitted=n_hours,
        hours_interpolated=tuple(start + i * HOUR for i in np.flatnonzero(~sampled).tolist()),
        samples_per_hour_min=int(counts[sampled].min()),
    )
    return series, report


def parse_timestamp(text: str) -> datetime:
    """Parse exactly the zero-padded ``YYYY-MM-DDTHH:MM:SSZ`` form as a UTC datetime.

    Any other spelling (missing zero padding, a numeric offset, surrounding
    spaces) or an impossible date raises ValueError. A stamp that parses is
    the one :func:`hour_stamps` writes for its time.
    """
    if text.translate(_DIGITS_TO_ZERO) != _TIMESTAMP_SHAPE:
        raise ValueError(f"{text!r} is not YYYY-MM-DDTHH:MM:SSZ")
    # an explicit offset parses faster than .replace(tzinfo=...) and gives timezone.utc
    return datetime.fromisoformat(text[:-1] + "+00:00")


def hour_stamps(start: datetime, n: int, first: int = 0) -> list[str]:
    """The cache-format stamps of hours ``first`` .. ``first + n - 1`` after ``start``.

    Whole seconds, the year padded to four digits: ``0999-12-31T22:00:00Z``.
    A stamp past year 9999 has five digits, so no well-formed stamp equals it.
    """
    t0 = np.datetime64(start.replace(tzinfo=None), "s")
    stamps = np.datetime_as_string(t0 + 3600 * np.arange(first, first + n), unit="s")
    return [s + "Z" for s in stamps.tolist()]


def write_price_csv(series: PriceSeries, path) -> None:
    """Write the strict hourly cache format: LF endings, full-precision prices."""
    rows = zip(hour_stamps(series.start, len(series)), map(repr, series.prices.tolist()))
    write_lines(path, [CSV_HEADER, *map(",".join, rows)])


def _data_lines(path, header: str) -> list[str]:
    """The lines after row 1 of a UTF-8 file whose row 1 is ``header`` exactly."""
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
    del lines[0]
    return lines


def read_csv_rows(path, header: str, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row number, fields)`` of a strict comma-separated file, one row at a time.

    Row 1 must be ``header`` exactly and every later row must have ``n_fields``
    fields; errors cite the 1-based offending row.
    """
    for row_no, line in enumerate(_data_lines(path, header), start=2):
        parts = line.split(",")
        if len(parts) != n_fields:
            raise ValidationError(f"{Path(path)}: row {row_no}: expected {n_fields} fields, got {len(parts)}")
        yield row_no, parts


def read_finite(path, row_no: int, text: str) -> float:
    """A number field of a CSV row; the writers write only finite ones."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{path}: row {row_no}: bad number {text!r}")
    return value


#: Rows per block of :func:`read_hourly_rows`: its working set stays small
#: whatever the file length (reading an 8,760-row year peaks at 1.1 MiB of
#: allocation in 512-row blocks, 4.9 MiB in one block).
HOURLY_BLOCK_ROWS = 512


def read_hourly_rows(path, header: str, converters: Sequence[Callable]) -> tuple[datetime | None, list]:
    """``(start, columns)`` of a strict CSV of consecutive hours.

    Each row is an hour stamp and one field per converter. ``start`` is row
    2's stamp (None without rows), and every later row's stamp must be the one
    :func:`hour_stamps` writes for it, one hour after the row before. A
    ``float`` column comes back as a float64 array of finite numbers; another
    converter's column as a list of its results, a ValueError it raises
    being the row's error.

    Rows are checked a block at a time: field counts, stamps against the
    expected stamps, ``map`` of each converter, one ``np.isfinite``. Only a
    block that fails is walked row by row, to cite its first offending row;
    within a row the order is field count, stamp, the other converters, the
    numbers.
    """
    lines = _data_lines(path, header)
    width = len(converters) + 1
    numeric = [j for j, conv in enumerate(converters) if conv is float]
    values = np.empty((len(numeric), len(lines)))
    texts = {j: [] for j, conv in enumerate(converters) if conv is not float}
    start = None
    for lo in range(0, len(lines), HOURLY_BLOCK_ROWS):
        block = lines[lo : lo + HOURLY_BLOCK_ROWS]
        m = len(block)
        # a line holds no LF, so an LF field can only be a row break: every
        # row has ``width`` fields iff the breaks sit every width + 1 fields
        fields = ",\n,".join(block).split(",")
        try:
            if start is None:
                start = parse_timestamp(fields[0])
            ok = (
                len(fields) == (width + 1) * m - 1
                and fields[width :: width + 1].count("\n") == m - 1
                and fields[:: width + 1] == hour_stamps(start, m, lo)
            )
            if ok:
                values[:, lo : lo + m] = [list(map(float, fields[j + 1 :: width + 1])) for j in numeric]
                converted = {j: list(map(converters[j], fields[j + 1 :: width + 1])) for j in texts}
                ok = np.isfinite(values[:, lo : lo + m]).all()
        except ValueError:
            ok = False
        if not ok:
            _cite_first_bad_row(path, lines, lo, m, start, converters)
        for j, col in converted.items():
            texts[j].extend(col)
    columns = dict(zip(numeric, values)) | texts
    return start, [columns[j] for j in range(len(converters))]


def _cite_first_bad_row(path, lines: list[str], lo: int, m: int, start, converters) -> None:
    """Raise the error of the first bad row among ``lines[lo : lo + m]``."""
    for k in range(lo, lo + m):
        row_no = k + 2
        stamp_s, *fields = parts = lines[k].split(",")
        if len(parts) != len(converters) + 1:
            raise ValidationError(f"{Path(path)}: row {row_no}: expected {len(converters) + 1} fields, got {len(parts)}")
        try:
            stamp = parse_timestamp(stamp_s)
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row_no}: bad timestamp {stamp_s!r}") from exc
        if k == 0:
            start = stamp
        elif stamp_s != hour_stamps(start, 1, k)[0]:
            raise ValidationError(f"{path}: row {row_no}: {stamp_s} is not one hour after the row before")
        for conv, text in zip(converters, fields):
            if conv is not float:
                try:
                    conv(text)
                except ValueError as exc:
                    raise ValidationError(f"{path}: row {row_no}: {exc}") from exc
        for conv, text in zip(converters, fields):
            if conv is float:
                read_finite(path, row_no, text)
    raise AssertionError(f"{path}: rows {lo + 2}-{lo + m + 1} failed as a block, but no row failed")


def read_price_csv(path) -> PriceSeries:
    """Read the cache format back; errors cite the 1-based offending row."""
    start, (prices,) = read_hourly_rows(path, CSV_HEADER, (float,))
    if len(prices) < 2:
        raise InsufficientDataError(f"{path}: fewer than 2 price rows")
    return PriceSeries(start, prices)


def default_data_dir() -> Path:
    """Cache directory for fetched price CSVs; RTP_ARB_DATA_DIR overrides."""
    override = os.environ.get("RTP_ARB_DATA_DIR")
    if override:
        return Path(override)
    return Path.home() / ".local" / "share" / "rtp-arb"


def year_csv_path(data_dir, year: int) -> Path:
    return Path(data_dir) / f"comed_{year}.csv"
