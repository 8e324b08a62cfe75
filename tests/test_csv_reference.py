"""The column reader of every CSV the lab reads against the per-row path it replaced.

The price cache and the daily-policy CSV write their stamps with
``hour_stamps`` (each day formatted once, its 24 clock times appended;
``test_stamps_reference.py`` holds it to the per-hour formula). All five
formats (price cache, daily policy, training curves, cross-test results and
the cross-test manifest) read through ``ingest.read_columns``: it checks a
block of rows at a time (field counts, the stamps against the ones the writer
would write, ``map`` of each converter, one ``np.isfinite`` per number
column) and runs the same check on single rows only to cite the first
offending row. The reference below is the former path: a ``strftime`` per
row when writing, and when reading a generator that parses each row's
fields in turn. Its readers take, as the column reader does, only what a
writer writes: a number of the characters ``0-9 . - + e`` and an action
spelled as ``str(action)``. On drawn series the two writers must give the
same bytes; on mutated files the two readers must give equal values, down
to the bits of every number, or the same error class and message.

The per-row readers of the results and the manifest differ from the former
ones where the column reader means to: an integer field's error says
``bad number '...'`` (``bad year '...'`` in the manifest) where it said
``bad numeric field``, a manifest year is read as the result files' integer
fields are (``1_0``, a year padded with spaces and Arabic-Indic digits are
no year), and a repeated (agent, test) pair or manifest year is reported
only once every row has read, so a bad field in a later row comes first.
"""

import math
import re
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from rtp_arb import Action, DailyPolicyTrace, InsufficientDataError, PriceSeries, ValidationError, aggregate_hourly
from rtp_arb import ingest
from rtp_arb.atomic import write_lines
from rtp_arb.cli import _read_manifest
from rtp_arb.env import HOUR
from rtp_arb.experiment import (
    CROSS_TEST_HEADER,
    DAILY_POLICY_HEADER,
    TRAINING_CURVES_HEADER,
    CrossTestMatrix,
    TrainingCurve,
    read_cross_test_csv,
    read_daily_policy_csv,
    read_training_curves_csv,
    write_cross_test_csv,
    write_daily_policy_csv,
    write_training_curves_csv,
)
from rtp_arb.ingest import (
    CSV_HEADER,
    fetch_five_minute_feed,
    parse_timestamp,
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
        with open(p, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
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


#: a number as a writer writes it: repr of a finite float
WRITTEN_NUMBER = re.compile(r"[0-9.+\-e]*")


def reference_read_finite(path, row_no: int, text: str) -> float:
    """A number field of a CSV row, of the characters a writer writes, and finite."""
    try:
        value = float(text) if WRITTEN_NUMBER.fullmatch(text) else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{path}: row {row_no}: bad number {text!r}")
    return value


def reference_read_price_csv(path) -> PriceSeries:
    """Read the cache format back; errors cite the 1-based offending row."""
    start = None
    prices = []
    for row_no, start, (price_s,) in reference_read_hourly_rows(path, CSV_HEADER, 2):
        prices.append(reference_read_finite(path, row_no, price_s))
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
        actions_by_name = {str(a): a for a in Action}
        if action_s not in actions_by_name:
            raise ValidationError(f"{path}: row {row_no}: unknown action {action_s!r}")
        actions.append(actions_by_name[action_s])
        prices.append(reference_read_finite(path, row_no, price_s))
        charges.append(reference_read_finite(path, row_no, charge_s))
    return DailyPolicyTrace(start, tuple(prices), tuple(actions), tuple(charges))


def reference_read_int(path, row_no: int, text: str, what: str = "number") -> int:
    """An integer field of a CSV row, of the characters a writer writes."""
    try:
        if WRITTEN_NUMBER.fullmatch(text):
            return int(text)
    except ValueError:
        pass
    raise ValidationError(f"{path}: row {row_no}: bad {what} {text!r}")


def reference_read_training_curves_csv(path) -> list[TrainingCurve]:
    rows = reference_read_csv_rows(path, TRAINING_CURVES_HEADER, 3)
    by_year: dict[int, list[tuple[int, int, float]]] = {}
    for row_no, (year_s, step_s, ret_s) in rows:
        year, step = reference_read_int(path, row_no, year_s), reference_read_int(path, row_no, step_s)
        by_year.setdefault(year, []).append((row_no, step, reference_read_finite(path, row_no, ret_s)))
    if not by_year:
        raise ValidationError(f"{path}: row 2: expected a curve point, got none")
    curves = []
    for year, rows_of_year in sorted(by_year.items()):
        try:
            curves.append(TrainingCurve(year, tuple((step, ret) for _, step, ret in rows_of_year)))
        except ValidationError as exc:
            # TrainingCurve owns the step-order checks; cite the CSV row
            raise ValidationError(f"{path}: row {rows_of_year[exc.position][0]}: {exc}") from exc
    return curves


def reference_read_cross_test_csv(path) -> CrossTestMatrix:
    rows = reference_read_csv_rows(path, CROSS_TEST_HEADER, 4)
    # (agent year, test year) -> (row number, raw return, normalized cell)
    cells: dict[tuple[int, int], tuple[int, float, float]] = {}
    repeated = None
    for row_no, (agent_s, test_s, raw_s, norm_s) in rows:
        key = (reference_read_int(path, row_no, agent_s), reference_read_int(path, row_no, test_s))
        if key in cells and repeated is None:
            repeated = ValidationError(f"{path}: row {row_no}: agent {key[0]} on {key[1]} is listed twice")
        # an empty cell is a suppressed column, the only non-finite value written
        norm = reference_read_finite(path, row_no, norm_s) if norm_s else math.nan
        cells.setdefault(key, (row_no, reference_read_finite(path, row_no, raw_s), norm))
    if repeated is not None:
        raise repeated
    if not cells:
        raise ValidationError(f"{path}: row 2: expected an (agent, test) return, got none")
    years = tuple(sorted({a for a, _ in cells}))
    if set(cells) != {(a, t) for a in years for t in years}:
        raise ValidationError(f"{path}: cross-test grid is not complete over {years}")
    matrix = CrossTestMatrix(years, np.array([[cells[(a, t)][1] for t in years] for a in years]))
    # the writer writes repr, which round-trips: a written cell matches exactly
    for (a, t), (row_no, _, norm) in cells.items():
        derived = float(matrix.normalized[years.index(a), years.index(t)])
        if not (norm == derived or (math.isnan(norm) and math.isnan(derived))):
            raise ValidationError(f"{path}: row {row_no}: normalized {norm!r} is not the derived {derived!r}")
    return matrix


MANIFEST_HEADER = "year,checkpoint_path,prices_path"


def reference_read_manifest(path) -> list[tuple[int, Path, Path]]:
    rows = []
    base = Path(path).parent
    repeated = None
    seen = set()  # the years of ``rows``
    for row_no, (year_s, ckpt, prices) in reference_read_csv_rows(path, MANIFEST_HEADER, 3):
        year = reference_read_int(path, row_no, year_s, "year")
        if year in seen:
            repeated = repeated or ValidationError(f"{path}: row {row_no}: year {year} is listed twice")
        seen.add(year)
        rows.append((year, base / ckpt, base / prices))
    if repeated is not None:
        raise repeated
    return rows


KINDS = {
    "price": (reference_read_price_csv, read_price_csv),
    "daily": (reference_read_daily_policy_csv, read_daily_policy_csv),
    "curves": (reference_read_training_curves_csv, read_training_curves_csv),
    "cross": (reference_read_cross_test_csv, read_cross_test_csv),
    "manifest": (reference_read_manifest, _read_manifest),
}


def outcome(read, path):
    """What reading gives, down to the bits of every number, or the error's class and message."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, PriceSeries):
        return repr(got.start), got.prices.tobytes()
    if isinstance(got, DailyPolicyTrace):
        return repr(got.start), repr(got.prices), got.actions, repr(got.charge_after)
    if isinstance(got, CrossTestMatrix):
        return got.years, got.raw.tobytes(), got.normalized.tobytes(), got.suppressed_years
    # curves and manifest rows: the repr of a float gives its bits
    return repr(got)


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


def curve_lines(n: int) -> list[str]:
    """Three curves, their points interleaved."""
    return [f"{2015 + i % 3},{i // 3 * 10},{i * 0.25 - 3.0!r}" for i in range(n)]


def cross_lines(n: int) -> list[str]:
    """The written grid of the fewest years with at least ``n`` cells; the third year's column is suppressed."""
    k = math.isqrt(n - 1) + 1
    raw = np.arange(k * k, dtype=float).reshape(k, k) * 0.75 + 1.0
    raw[2, 2] = -1.0
    m = CrossTestMatrix(tuple(range(2000, 2000 + k)), raw)
    # as write_cross_test_csv writes them
    return [
        f"{a},{t},{float(m.raw[i, j])!r},{repr(float(m.normalized[i, j])) if np.isfinite(m.normalized[i, j]) else ''}"
        for i, a in enumerate(m.years)
        for j, t in enumerate(m.years)
    ]


def manifest_lines(n: int) -> list[str]:
    return [f"{2000 + i},a{i}.ckpt,sub/p{i}.csv" for i in range(n)]


LINES = {
    "price": (CSV_HEADER, price_lines),
    "daily": (DAILY_POLICY_HEADER, daily_lines),
    "curves": (TRAINING_CURVES_HEADER, curve_lines),
    "cross": (CROSS_TEST_HEADER, cross_lines),
    "manifest": (MANIFEST_HEADER, manifest_lines),
}
HOURLY = ["price", "daily"]
# (field index, text): numbers and actions that float() and Action[...upper()] read or reject
NUMBER_TEXTS = st.sampled_from(["nan", "inf", "-inf", "1e999", "1_0", " 3.5", "3.5 ", "", "oops", "0x10", "٣", "3.5\r"])
# integers that int() reads or rejects, and years that repeat a row's or leave a grid
INT_TEXTS = st.sampled_from(["1_0", " 10", "10 ", "", "oops", "1.0", "1e3", "\u0661", "+5", "-0", "10\r", "9" * 30, "2000", "2001", "2015"])
BAD_FIELDS = {
    "price": st.tuples(st.just(1), NUMBER_TEXTS),
    "daily": st.one_of(
        st.tuples(st.sampled_from([1, 3]), NUMBER_TEXTS),
        st.tuples(st.just(2), st.sampled_from(["hold", "IDLE", "ıdle", " idle", ""])),
    ),
    "curves": st.one_of(st.tuples(st.sampled_from([0, 1]), INT_TEXTS), st.tuples(st.just(2), NUMBER_TEXTS)),
    "cross": st.one_of(
        st.tuples(st.sampled_from([0, 1]), INT_TEXTS),
        st.tuples(st.sampled_from([2, 3]), st.one_of(NUMBER_TEXTS, st.sampled_from(["0.5", "1.0", "-2.0"]))),
    ),
    "manifest": st.one_of(st.tuples(st.just(0), INT_TEXTS), st.tuples(st.sampled_from([1, 2]), st.sampled_from(["", " a.ckpt", "\u0663"]))),
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
    """A written file of about ``n`` rows with 1-3 row edits, about half of them next to a block boundary."""
    header, make = LINES[kind]
    lines = make(n)
    n = len(lines)
    edits = ["swap", "duplicate", "drop", "blank", "unpad", "offset", "extra", "missing", "field", "crlf"]
    if kind not in HOURLY:
        edits = [e for e in edits if e not in ("unpad", "offset")]
    near_boundary = st.sampled_from(sorted({b + d for b in range(0, n, block) for d in (-2, -1, 0, 1)} & set(range(n))))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.one_of(near_boundary, st.integers(0, n - 1)))
        at = min(at, len(lines) - 1)
        how = draw(st.sampled_from(edits))
        value = {
            "offset": st.sampled_from([timedelta(seconds=1), -HOUR, HOUR, timedelta(days=1)]),
            "field": BAD_FIELDS[kind],
        }.get(how, st.none())
        edit(lines, at, how, draw(value))
    if draw(st.integers(0, 19)) == 0:
        return "\r\n".join([header, *lines]) + "\r\n"
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("block", [1, 5])
@CHECKS
@given(data=st.data())
def test_edited_rows_read_alike_in_small_blocks(tmp_path, kind, block, data):
    path = tmp_path / f"{kind}.csv"
    path.write_text(data.draw(edited_files(kind, 24, block)), encoding="utf-8", newline="")
    assert_reads_alike(kind, path, block)


@pytest.mark.parametrize("kind", list(KINDS))
@CHECKS
@given(data=st.data())
def test_edited_rows_read_alike_across_real_blocks(tmp_path, kind, data):
    block = ingest.HOURLY_BLOCK_ROWS
    path = tmp_path / f"{kind}.csv"
    path.write_text(data.draw(edited_files(kind, 2 * block + 32, block)), encoding="utf-8", newline="")
    assert_reads_alike(kind, path)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The text of a 10-row price CSV, a one-day daily-policy CSV, two training
    curves, a 3-year cross-test grid with a suppressed column and a manifest."""
    d = tmp_path_factory.mktemp("written")
    write_price_csv(PriceSeries(BASE, [3.5, -1.25, 7.0, 2.0, 0.5, 1e-300, -0.0, 4.0, 9.5, 1.0]), d / "price.csv")
    actions = tuple(Action(i % 3) for i in range(24))
    write_daily_policy_csv(DailyPolicyTrace(BASE, tuple(i / 8 for i in range(24)), actions, (0.0,) * 24), d / "daily.csv")
    curves = [TrainingCurve(2015, ((0, -3.5), (10, 2.25), (20, 1e-300))), TrainingCurve(2016, ((0, 4.0), (500, -0.0)))]
    write_training_curves_csv(curves, d / "curves.csv")
    write_cross_test_csv(CrossTestMatrix((2015, 2016, 2017), np.array([[4.0, 1.5, 3.0], [2.0, -1.0, 0.5], [1.0, 2.5, 8.0]])), d / "cross.csv")
    (d / "manifest.csv").write_text(f"{MANIFEST_HEADER}\n2015,a.ckpt,p15.csv\n2016,b.ckpt,sub/p16.csv\n", encoding="utf-8")
    return {kind: (d / f"{kind}.csv").read_text(encoding="utf-8") for kind in KINDS}


@pytest.mark.parametrize("kind", list(KINDS))
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
        # a CR stays in its line: the charge or price before it is no number,
        # so the first of a bad number and a CR is the one cited
        ([(1030, "field", (1, "oops")), (1040, "crlf", None)], "row 1032: bad number 'oops'"),
        ([(1023, "crlf", None), (1030, "field", (1, "oops"))], "row 1025: bad number"),
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


@pytest.mark.parametrize("block", [3, 512])
@pytest.mark.parametrize(
    "kind, field, text, cited",
    [(kind, field, text, f"bad number {text!r}") for kind, field in (("price", 1), ("daily", 1), ("daily", 3))
     for text in ("1_0", " 3.5", "3.5 ", "3.5\r", "\u0663", "+inf", "1e-5x")]
    + [("daily", 2, text, f"unknown action {text!r}") for text in ("IDLE", "\u0131dle", "Charge", "idle ")],
)
def test_only_what_a_writer_writes_reads(tmp_path, kind, field, text, cited, block):
    # float() reads each of these numbers and Action[text.upper()] each of
    # these actions, so both readers once returned a series for them
    header, make = LINES[kind]
    lines = make(40)
    edit(lines, 37, "field", (field, text))
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8", newline="")
    got = assert_reads_alike(kind, path, block)
    assert got == (ValidationError, f"{path}: row 39: {cited}")
