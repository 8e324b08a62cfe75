"""Columnar hour-stamped CSVs against the per-row path they replaced.

The price cache and the daily-policy CSV now write their stamps with
``hour_stamps`` (one ``np.datetime_as_string`` over the hours) and read
through a column reader: it checks a block of rows at a time (field counts,
the stamps against the ones the writer would write, ``map(float)``, one
``np.isfinite``) and walks a block row by row only to cite the first
offending row. The reference below is the former path, verbatim: a
``strftime`` per row when writing, and when reading a generator that parses
each row's stamp and number in turn. On drawn series the two writers must
give the same bytes; on mutated files the two readers must give an equal
series, or the same error class and message.
"""

import re
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rtp_arb import Action, DailyPolicyTrace, InsufficientDataError, PriceSeries, ValidationError, aggregate_hourly
from rtp_arb import ingest
from rtp_arb.atomic import write_lines
from rtp_arb.env import HOUR
from rtp_arb.experiment import DAILY_POLICY_HEADER, read_daily_policy_csv, write_daily_policy_csv
from rtp_arb.ingest import (
    CSV_HEADER,
    fetch_five_minute_feed,
    parse_timestamp,
    read_finite,
    read_price_csv,
    write_price_csv,
)
from test_fuzz import csv_mutations

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from workloads import ingest_feed  # noqa: E402

UTC = timezone.utc
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
CHECKS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_write_price_csv(series: PriceSeries, path) -> None:
    """Write the strict hourly cache format: LF endings, full-precision prices."""
    lines = [CSV_HEADER]
    for ts, price in zip(series.hours, series.prices):
        lines.append(f"{ts.strftime(TIMESTAMP_FORMAT)},{float(price)!r}")
    write_lines(path, lines)


def reference_read_csv_rows(path, header: str, n_fields: int):
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


def reference_read_hourly_rows(path, header: str, n_fields: int):
    """Yield ``(row number, start, other fields)`` of a strict CSV of consecutive hours.

    The first field is an hour stamp and ``start`` the first row's; each
    row's stamp must be one hour after the row before, or the row is cited.
    """
    start = None
    for i, (row_no, (stamp_s, *fields)) in enumerate(reference_read_csv_rows(path, header, n_fields)):
        try:
            stamp = parse_timestamp(stamp_s)
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row_no}: bad timestamp {stamp_s!r}") from exc
        if start is None:
            start = stamp
        # the difference of two parsed stamps cannot overflow, unlike start + i * HOUR
        elif stamp - start != i * HOUR:
            raise ValidationError(f"{path}: row {row_no}: {stamp_s} is not one hour after the row before")
        yield row_no, start, fields


def reference_read_price_csv(path) -> PriceSeries:
    """Read the cache format back; errors cite the 1-based offending row."""
    start = None
    prices = []
    for row_no, start, (price_s,) in reference_read_hourly_rows(path, CSV_HEADER, 2):
        prices.append(read_finite(path, row_no, price_s))
    if len(prices) < 2:
        raise InsufficientDataError(f"{path}: fewer than 2 price rows")
    return PriceSeries(start, prices)


def reference_write_daily_policy_csv(trace: DailyPolicyTrace, path) -> None:
    lines = [DAILY_POLICY_HEADER]
    for ts, price, action, charge in zip(
        trace.hours, trace.prices, trace.actions, trace.charge_after
    ):
        lines.append(f"{ts.strftime(TIMESTAMP_FORMAT)},{price!r},{action},{charge!r}")
    write_lines(path, lines)


def reference_read_daily_policy_csv(path) -> DailyPolicyTrace:
    start = None
    prices = []
    actions = []
    charges = []
    for row_no, start, (price_s, action_s, charge_s) in reference_read_hourly_rows(path, DAILY_POLICY_HEADER, 4):
        try:
            actions.append(Action[action_s.upper()])
        except KeyError as exc:
            raise ValidationError(f"{path}: row {row_no}: unknown action {action_s!r}") from exc
        prices.append(read_finite(path, row_no, price_s))
        charges.append(read_finite(path, row_no, charge_s))
    return DailyPolicyTrace(start, tuple(prices), tuple(actions), tuple(charges))


KINDS = {
    "price": (reference_read_price_csv, read_price_csv),
    "daily": (reference_read_daily_policy_csv, read_daily_policy_csv),
}


def outcome(read, path):
    """What reading gives, down to the bits of every number, or the error's class and message."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, PriceSeries):
        return repr(got.start), got.prices.tobytes()
    return repr(got.start), repr(got.prices), got.actions, repr(got.charge_after)


def assert_reads_alike(kind: str, path, block: int = ingest.HOURLY_BLOCK_ROWS):
    reference, read = KINDS[kind]
    with mock.patch.object(ingest, "HOURLY_BLOCK_ROWS", block):
        got = outcome(read, path)
    assert got == outcome(reference, path)
    return got


# -- writing ---------------------------------------------------------------

# whole-second starts from year 1000 (the reference writes no padding below it)
starts = st.datetimes(datetime(1000, 1, 1), datetime(9998, 12, 31, 23, 59, 59)).map(
    lambda t: t.replace(microsecond=0, fold=0, tzinfo=UTC)
)
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e300, 0.1, 2.5]),
)


@CHECKS
@given(start=starts, prices=st.lists(numbers, min_size=2, max_size=300))
def test_price_csv_bytes_match_the_per_row_writer(tmp_path, start, prices):
    series = PriceSeries(start, prices)
    write_price_csv(series, tmp_path / "new.csv")
    reference_write_price_csv(series, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert assert_reads_alike("price", tmp_path / "new.csv") == outcome(lambda p: series, None)


@CHECKS
@given(
    start=starts,
    rows=st.integers(1, 2).flatmap(
        lambda days: st.lists(st.tuples(numbers, st.sampled_from(list(Action)), numbers), min_size=24 * days, max_size=24 * days)
    ),
)
def test_daily_policy_bytes_match_the_per_row_writer(tmp_path, start, rows):
    prices, actions, charges = (tuple(col) for col in zip(*rows))
    trace = DailyPolicyTrace(start, prices, actions, charges)
    write_daily_policy_csv(trace, tmp_path / "new.csv")
    reference_write_daily_policy_csv(trace, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert assert_reads_alike("daily", tmp_path / "new.csv") == outcome(lambda p: trace, None)


def test_a_benchmark_year(tmp_path):
    feed = ingest_feed(101)
    bodies = iter(feed.bodies.values())
    series, _ = aggregate_hourly(fetch_five_minute_feed(feed.start, feed.end, http_get=lambda url: next(bodies)))
    write_price_csv(series, tmp_path / "new.csv")
    reference_write_price_csv(series, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert len(series) > 2 * ingest.HOURLY_BLOCK_ROWS
    assert read_price_csv(tmp_path / "new.csv") == series


# -- reading mutated files -------------------------------------------------

BASE = datetime(1969, 12, 31, 20, 0, 15, tzinfo=UTC)  # pre-1970, off the whole hour


def price_lines(n: int) -> list[str]:
    return [f"{(BASE + i * HOUR).strftime(TIMESTAMP_FORMAT)},{i * 0.25 - 3.0!r}" for i in range(n)]


def daily_lines(n: int) -> list[str]:
    return [
        f"{(BASE + i * HOUR).strftime(TIMESTAMP_FORMAT)},{i * 0.25 - 3.0!r},{Action(i % 3)},{i % 5 * 0.5!r}"
        for i in range(n)
    ]


LINES = {"price": (CSV_HEADER, price_lines), "daily": (DAILY_POLICY_HEADER, daily_lines)}
# (field index, text): numbers and actions that float() and Action[...upper()] read or reject
NUMBER_TEXTS = st.sampled_from(["nan", "inf", "-inf", "1e999", "1_0", " 3.5", "3.5 ", "", "oops", "0x10", "٣", "3.5\r"])
BAD_FIELDS = {
    "price": st.tuples(st.just(1), NUMBER_TEXTS),
    "daily": st.one_of(
        st.tuples(st.sampled_from([1, 3]), NUMBER_TEXTS),
        st.tuples(st.just(2), st.sampled_from(["hold", "IDLE", "ıdle", " idle", ""])),
    ),
}


def unpad(stamp: str) -> str:
    """Drop the first zero that opens a date or time component."""
    for i in range(1, len(stamp)):
        if stamp[i] == "0" and stamp[i - 1] in "-T:":
            return stamp[:i] + stamp[i + 1 :]
    return stamp


def shift(stamp: str, delta: timedelta) -> str:
    try:
        return (datetime.strptime(stamp, TIMESTAMP_FORMAT) + delta).strftime(TIMESTAMP_FORMAT)
    except ValueError:  # an earlier edit left no stamp here
        return stamp


def edit(lines: list[str], at: int, how: str, value) -> None:
    """Apply one row-level mutation to ``lines`` in place."""
    fields = lines[at].split(",")
    if how == "swap" and at + 1 < len(lines):
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    elif how == "duplicate":
        lines.insert(at, lines[at])
    elif how == "drop":
        del lines[at]
    elif how == "blank":
        lines.insert(at, "")
    elif how == "unpad":
        lines[at] = ",".join([unpad(fields[0]), *fields[1:]])
    elif how == "offset":
        lines[at] = ",".join([shift(fields[0], value), *fields[1:]])
    elif how == "extra":
        lines[at] += ",1.0"
    elif how == "missing":
        lines[at] = ",".join(fields[:-1])
    elif how == "field" and value[0] < len(fields):
        fields[value[0]] = value[1]
        lines[at] = ",".join(fields)
    elif how == "crlf":
        lines[at] += "\r"


@st.composite
def edited_files(draw, kind: str, n: int, block: int):
    """A written file of ``n`` rows with 1-3 row edits, about half of them next to a block boundary."""
    header, make = LINES[kind]
    lines = make(n)
    near_boundary = st.sampled_from(sorted({b + d for b in range(0, n, block) for d in (-2, -1, 0, 1)} & set(range(n))))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.one_of(near_boundary, st.integers(0, n - 1)))
        at = min(at, len(lines) - 1)
        how = draw(st.sampled_from(["swap", "duplicate", "drop", "blank", "unpad", "offset", "extra", "missing", "field", "crlf"]))
        value = {
            "offset": st.sampled_from([timedelta(seconds=1), -HOUR, HOUR, timedelta(days=1)]),
            "field": BAD_FIELDS[kind],
        }.get(how, st.none())
        edit(lines, at, how, draw(value))
    if draw(st.integers(0, 19)) == 0:
        return "\r\n".join([header, *lines]) + "\r\n"
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize("kind", ["price", "daily"])
@pytest.mark.parametrize("block", [1, 5])
@CHECKS
@given(data=st.data())
def test_edited_rows_read_alike_in_small_blocks(tmp_path, kind, block, data):
    path = tmp_path / f"{kind}.csv"
    path.write_text(data.draw(edited_files(kind, 24, block)), encoding="utf-8", newline="")
    assert_reads_alike(kind, path, block)


@pytest.mark.parametrize("kind", ["price", "daily"])
@CHECKS
@given(data=st.data())
def test_edited_rows_read_alike_across_real_blocks(tmp_path, kind, data):
    block = ingest.HOURLY_BLOCK_ROWS
    path = tmp_path / f"{kind}.csv"
    path.write_text(data.draw(edited_files(kind, 2 * block + 32, block)), encoding="utf-8", newline="")
    assert_reads_alike(kind, path)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The text of a 10-row price CSV and of a one-day daily-policy CSV."""
    d = tmp_path_factory.mktemp("written")
    write_price_csv(PriceSeries(BASE, [3.5, -1.25, 7.0, 2.0, 0.5, 1e-300, -0.0, 4.0, 9.5, 1.0]), d / "price.csv")
    actions = tuple(Action(i % 3) for i in range(24))
    write_daily_policy_csv(DailyPolicyTrace(BASE, tuple(i / 8 for i in range(24)), actions, (0.0,) * 24), d / "daily.csv")
    return {kind: (d / f"{kind}.csv").read_text(encoding="utf-8") for kind in KINDS}


@pytest.mark.parametrize("kind", ["price", "daily"])
@pytest.mark.parametrize("block", [2, 512])
@CHECKS
@given(data=st.data())
def test_mutated_text_reads_alike(tmp_path, written, kind, block, data):
    path = tmp_path / f"{kind}.csv"
    path.write_text(data.draw(csv_mutations(written[kind])), encoding="utf-8", newline="")
    assert_reads_alike(kind, path, block)


@pytest.mark.parametrize("kind", ["price", "daily"])
@pytest.mark.parametrize(
    "edits, cited",
    [
        # the last row of block 1 is row 513, the first of block 2 row 514
        ([(511, "field", (1, "nan")), (512, "unpad", None)], "row 513: bad number 'nan'"),
        ([(512, "field", (1, "nan")), (511, "unpad", None)], "row 513: bad timestamp"),
        ([(512, "extra", None), (600, "drop", None)], "row 514: expected"),
        ([(600, "field", (1, "inf")), (511, "swap", None)], "row 513: .* is not one hour after"),
        ([(700, "missing", None), (513, "offset", timedelta(seconds=1))], "row 515: .* is not one hour after"),
        ([(1023, "crlf", None), (1030, "field", (1, "oops"))], "row 1032: bad number 'oops'"),
    ],
)
def test_first_error_across_a_block_boundary(tmp_path, kind, edits, cited):
    header, make = LINES[kind]
    lines = make(1100)
    for at, how, value in edits:
        edit(lines, at, how, value)
    # a str path as a user types it: a field-count error names it as Path(path) does
    path = f"{tmp_path}/./{kind}.csv"
    Path(path).write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    got = assert_reads_alike(kind, path)
    assert got[0] is ValidationError
    assert re.search(cited, got[1]), got


def test_a_bad_action_comes_before_a_bad_number_in_its_row(tmp_path):
    lines = daily_lines(48)
    edit(lines, 30, "field", (1, "nan"))
    edit(lines, 30, "field", (2, "hold"))
    path = tmp_path / "daily.csv"
    path.write_text("\n".join([DAILY_POLICY_HEADER, *lines]) + "\n", encoding="utf-8")
    assert assert_reads_alike("daily", path, 16)[1].endswith("row 32: unknown action 'hold'")


def test_stamps_run_to_the_end_of_year_9999(tmp_path):
    lines = [f"9999-12-31T{h:02d}:00:00Z,1.0" for h in range(20, 24)] + ["9999-12-31T23:00:00Z,1.0"]
    path = tmp_path / "price.csv"
    path.write_text("\n".join([CSV_HEADER, *lines]) + "\n", encoding="utf-8")
    assert assert_reads_alike("price", path, 2)[1].endswith("row 6: 9999-12-31T23:00:00Z is not one hour after the row before")
