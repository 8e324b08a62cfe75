"""Price acquisition: public 5-minute feed to cached hourly CSV.

The upstream feed serves 5-minute real-time prices as JSON records keyed by
millisecond timestamps. This module fetches a UTC range in per-day chunks
(retrying transient failures) into :class:`FeedSamples`: two read-only
columns, int64 microseconds since the Unix epoch and float64 prices, sorted
and deduplicated (the last record seen for a timestamp wins). Each body is
converted a column at a time, and re-checked record by record only to cite
a bad record.
:func:`aggregate_hourly` takes these columns only: it averages each UTC hour's
samples into an hourly series and bridges fully missing hours by linear
interpolation (and says so in the returned report). The series round-trips
through a small, strict CSV cache format written as columns: the stamps
come from :func:`hour_stamps`. :func:`read_columns` reads it back, and
every other CSV of the lab too (daily dispatch, training curves, cross-test
results, the cross-test manifest): it checks a block of rows at a time, and
cites the first bad row by running the same check on single rows.

The HTTP transport and the retry sleep are injectable so tests run entirely
from recorded fixtures; nothing here touches the network unless asked to.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, time as dtime, timedelta, timezone
from pathlib import Path
from typing import Callable
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


class FeedSamples:
    """5-minute samples as two read-only columns.

    ``micros`` holds int64 microseconds since the Unix epoch, ``datetime``'s
    own resolution; ``prices`` holds the float64 cents/kWh.
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

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; a slot restore meets __setattr__
        return (type(self), (self.micros, self.prices))

    def __len__(self) -> int:
        return len(self.micros)


def _record_fields(records: list) -> tuple[list[int], list[float]]:
    """The millisUTC and price of each record, checked one record at a time;
    a ParseError names the first bad record."""
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
    return millis, prices


def _parse_feed_payload(body: str, lo_ms: int, hi_ms: int) -> tuple[np.ndarray, np.ndarray]:
    """The (millis, prices) columns of one body's records with lo_ms <= millis < hi_ms.

    Every record is checked, also those outside the range; an error names the
    first offending record of its kind. A body is converted a column at a
    time, one ``np.fromiter`` per field, when its fields are all strings, as
    the feed writes them; a body that fails there is converted again record
    by record, which reads JSON numbers too and names the first bad record,
    so both give the same columns and the same errors. A string field
    must be written as the feed writes it: int() and float() would also read
    ``"1_0"`` as 10, and an Arabic-Indic three, raw or as a JSON escape, as
    3. Only a body with an underscore, a backslash or a non-ASCII character
    can hold such a field, so only there is each string field checked with
    :func:`number_text`, after the conversions. Spaces around a value stay
    accepted: float() strips them.
    """
    try:
        records = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ParseError(f"feed payload is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise ParseError(f"feed payload should be a JSON array, got {type(records).__name__}")
    try:
        # str.join raises TypeError on any field that is not a string, and
        # np.fromiter raises OverflowError on a stamp past 64 bits
        stamps, quotes = [rec["millisUTC"] for rec in records], [rec["price"] for rec in records]
        "".join(stamps), "".join(quotes)
        millis = np.fromiter(map(int, stamps), np.int64, len(records))
        prices = np.fromiter(map(float, quotes), np.float64, len(records))
    except (TypeError, KeyError, ValueError, OverflowError):
        millis, prices = _record_fields(records)
    if "_" in body or "\\" in body or not body.isascii():
        for rec in records:
            for key in ("millisUTC", "price"):
                if rec[key].__class__ is str:
                    try:
                        number_text(rec[key].strip())
                    except ValueError as exc:
                        raise ParseError(f"feed record {rec!r} has a {key} not written as a number") from exc
    try:
        ms = np.asarray(millis, np.int64)
    except OverflowError:
        bad = next(i for i, m in enumerate(millis) if not -(2**63) <= m < 2**63)
        raise ParseError(f"feed record {records[bad]!r} has a millisUTC beyond 64 bits") from None
    values = np.asarray(prices, np.float64)
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


def aggregate_hourly(samples: FeedSamples) -> tuple[PriceSeries, IngestReport]:
    """Average 5-minute samples into a gap-free hourly series.

    Each hour's price is the mean of its samples; hours with none are filled
    by linear interpolation between the nearest sampled hours and flagged in
    the report. First and last hours always have samples by construction.
    Samples are binned by their whole-hour offset from the first sample's
    hour; ``np.bincount`` adds each hour's prices in sample order from 0.0.
    """
    micros = samples.micros
    unsorted = np.diff(micros) <= 0
    if unsorted.any():
        i = int(np.argmax(unsorted))
        a, b = (_EPOCH + int(m) * _MICROSECOND for m in micros[i : i + 2])
        raise ValueError(f"samples must be strictly ascending; {a.isoformat()} then {b.isoformat()}")
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
    # formatting each day once and adding its 24 clock times is some 3x
    # faster than formatting every hour; every clock time keeps the start's
    # offset within its hour
    hour, offset = divmod(int(np.datetime64(start.replace(tzinfo=None), "s").astype(np.int64)), 3600)
    hour += first
    days = np.arange(hour // 24, (hour + n - 1) // 24 + 1).astype("datetime64[D]")
    clock = [f"T{h:02d}:{offset // 60:02d}:{offset % 60:02d}Z" for h in range(24)]
    stamps = [day + t for day in np.datetime_as_string(days, unit="D").tolist() for t in clock]
    return stamps[hour % 24 :][:n]


def write_price_csv(series: PriceSeries, path) -> None:
    """Write the strict hourly cache format: LF endings, full-precision prices."""
    rows = zip(hour_stamps(series.start, len(series)), map(repr, series.prices.tolist()))
    write_lines(path, [CSV_HEADER, *map(",".join, rows)])


#: Every character the writers put in a number field: ``repr`` of a finite
#: float or ``str`` of an int. ``float()`` and ``int()`` read more than that:
#: ``1_0``, surrounding whitespace (a CR too) and non-ASCII digits.
NUMBER_CHARS = b"0123456789.-+e"


def number_text(text: str) -> str:
    """``text``, or ValueError if it holds a character outside NUMBER_CHARS."""
    # deleting the allowed bytes is some 30x faster than str.strip(chars)
    if not text.isascii() or text.encode().translate(None, NUMBER_CHARS):
        raise ValueError(f"{text!r} is not a number as written")
    return text


def whole_number(text: str) -> int:
    """An integer field as the writers write it (``str`` of an int)."""
    try:
        return int(number_text(text))
    except ValueError:
        raise ValueError(f"bad number {text!r}") from None


#: Rows per block of :func:`read_columns`: its working set stays small
#: whatever the file length (reading an 8,760-row year peaks at 1.1 MiB of
#: allocation in 512-row blocks, 4.9 MiB in one block).
HOURLY_BLOCK_ROWS = 512


def read_columns(path, header: str, converters: Sequence[Callable], hourly: bool = False) -> tuple[datetime | None, list]:
    """``(start, columns)`` of a strict comma-separated UTF-8 file, one column per converter.

    Row 1 must be ``header`` exactly, and lines end at LF only, as the
    writers write them: a CR stays in its line. A ``float`` column comes back
    as a float64 array of finite numbers written with NUMBER_CHARS only;
    another converter's column as a list of its results, a ValueError it
    raises being the row's error. With ``hourly``, each row starts with an
    hour stamp: ``start`` is row 2's (None without rows or ``hourly``), and
    every later row's stamp must be the one :func:`hour_stamps` writes for
    it, one hour after the row before.

    Rows are checked HOURLY_BLOCK_ROWS at a time: field counts, the stamps
    against the expected ones, ``map`` of each other converter, then per
    ``float`` column one :func:`number_text` over its fields, ``map(float)``
    and one ``np.isfinite``. When a block fails, the same check runs on its
    rows one at a time, and the first row that fails is cited with the
    message of the check it failed, in that order.
    """
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"file does not exist: {p}")
    try:
        with open(p, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{p}: not UTF-8 text: {exc}") from exc
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        got = lines[0] if lines else ""
        raise ValidationError(f"{p}: row 1: expected header {header!r}, got {got!r}")
    del lines[0]

    skip = int(hourly)
    width = len(converters) + skip
    numeric = [j for j, conv in enumerate(converters) if conv is float]
    values = np.empty((len(numeric), len(lines)))

    def check(lo: int, m: int, start):
        """``(start, other columns)`` of ``m`` rows from ``lines[lo]``; an error
        cites the first of them, so it names the bad row when ``m`` is 1."""
        # a line holds no LF, so an LF field can only be a row break: every
        # row has ``width`` fields iff the breaks sit every width + 1 fields
        fields = ",\n,".join(lines[lo : lo + m]).split(",")
        if len(fields) != (width + 1) * m - 1 or fields[width :: width + 1].count("\n") != m - 1:
            raise ValidationError(f"{p}: row {lo + 2}: expected {width} fields, got {len(fields)}")
        if hourly:
            try:
                if start is None:
                    start = parse_timestamp(fields[0])
                late = fields[:: width + 1] != hour_stamps(start, m, lo)
                if late:
                    parse_timestamp(fields[0])
            except ValueError as exc:
                raise ValidationError(f"{path}: row {lo + 2}: bad timestamp {fields[0]!r}") from exc
            if late:
                raise ValidationError(f"{path}: row {lo + 2}: {fields[0]} is not one hour after the row before")
        columns = {}
        for j, conv in enumerate(converters):
            if conv is not float:
                try:
                    columns[j] = list(map(conv, fields[j + skip :: width + 1]))
                except ValueError as exc:
                    raise ValidationError(f"{path}: row {lo + 2}: {exc}") from exc
        for i, j in enumerate(numeric):
            texts = fields[j + skip :: width + 1]
            try:
                number_text("".join(texts))
                values[i, lo : lo + m] = list(map(float, texts))
                ok = np.isfinite(values[i, lo : lo + m]).all()
            except ValueError:
                ok = False
            if not ok:
                raise ValidationError(f"{path}: row {lo + 2}: bad number {texts[0]!r}")
        return start, columns

    start = None
    others = {j: [] for j, conv in enumerate(converters) if conv is not float}
    for lo in range(0, len(lines), HOURLY_BLOCK_ROWS):
        m = min(HOURLY_BLOCK_ROWS, len(lines) - lo)
        try:
            start, columns = check(lo, m, start)
        except ValidationError:
            for k in range(lo, lo + m):
                start, _ = check(k, 1, start)
            raise AssertionError(f"{path}: rows {lo + 2}-{lo + m + 1} failed as a block, but no row failed")
        for j, col in columns.items():
            others[j].extend(col)
    by_index = dict(zip(numeric, values)) | others
    return start, [by_index[j] for j in range(len(converters))]


def read_price_csv(path) -> PriceSeries:
    """Read the cache format back; errors cite the 1-based offending row."""
    start, (prices,) = read_columns(path, CSV_HEADER, (float,), hourly=True)
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
