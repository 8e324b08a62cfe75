"""Feed parsing, chunked fetch with retry, hourly aggregation, CSV cache."""

import copy
import json
import pickle
import sys
import threading
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from conftest import EPOCH, MICROSECOND, feed_columns, feed_stamps
from rtp_arb import (
    FeedSamples,
    InsufficientDataError,
    ParseError,
    PriceSeries,
    TransportError,
    ValidationError,
    aggregate_hourly,
    default_data_dir,
    fetch_five_minute_feed,
    read_price_csv,
    write_price_csv,
    year_csv_path,
)
from rtp_arb.ingest import FEED_TIMEZONE, _day_chunks, _feed_url

FIXTURES = Path(__file__).parent / "fixtures"
UTC = timezone.utc
T0 = datetime(2018, 6, 1, tzinfo=UTC)


def wire(pairs) -> str:
    """Encode (utc datetime, price) pairs the way the feed does."""
    return json.dumps(
        [
            {"millisUTC": str(int(ts.timestamp() * 1000)), "price": str(price)}
            for ts, price in pairs
        ]
    )


def five_minute_grid(start: datetime, prices) -> list[tuple[datetime, float]]:
    return [(start + timedelta(minutes=5 * i), p) for i, p in enumerate(prices)]


def no_sleep(_seconds: float) -> None:
    raise AssertionError("unexpected retry sleep")


class TestFeedParsing:
    def test_fixture_parses_in_order(self):
        body = (FIXTURES / "feed_two_hours.json").read_text()
        samples = fetch_five_minute_feed(
            T0, T0 + timedelta(hours=2), http_get=lambda url: body, sleep=no_sleep
        )
        assert len(samples) == 24
        stamps = feed_stamps(samples)
        assert stamps == sorted(stamps)
        assert stamps[0] == T0
        assert samples.prices[0] == 1.0

    def test_non_numeric_price_names_record(self):
        body = json.dumps([{"millisUTC": str(int(T0.timestamp() * 1000)), "price": "abc"}])
        with pytest.raises(ParseError, match="abc"):
            fetch_five_minute_feed(
                T0, T0 + timedelta(hours=1), http_get=lambda url: body, sleep=no_sleep
            )

    def test_missing_field_rejected(self):
        body = json.dumps([{"millisUTC": "1527811200000"}])
        with pytest.raises(ParseError, match="millisUTC/price"):
            fetch_five_minute_feed(
                T0, T0 + timedelta(hours=1), http_get=lambda url: body, sleep=no_sleep
            )

    def test_non_array_payload_rejected(self):
        with pytest.raises(ParseError, match="array"):
            fetch_five_minute_feed(
                T0, T0 + timedelta(hours=1), http_get=lambda url: '{"a": 1}', sleep=no_sleep
            )

    def test_off_grid_timestamp_rejected(self):
        ts = T0 + timedelta(minutes=3)
        body = wire([(ts, 2.0)])
        with pytest.raises(ParseError, match="5-minute"):
            fetch_five_minute_feed(
                T0, T0 + timedelta(hours=1), http_get=lambda url: body, sleep=no_sleep
            )

    @pytest.mark.parametrize(
        "millis, error",
        [
            ("253402300800000", None),  # 10000-01-01: past datetime, on the grid, dropped
            ("-99999999900000", None),  # year -1199, on the grid, dropped
            ("-99999999999999", "5-minute"),
            ("99999999999999999999", "beyond 64 bits"),
        ],
    )
    def test_millis_out_of_datetime_range(self, millis, error):
        # once a ValueError or OSError from datetime.fromtimestamp
        records = json.loads(wire(five_minute_grid(T0, [1.0, 2.0])))
        body = json.dumps(records + [{"millisUTC": millis, "price": "3.0"}])
        end = T0 + timedelta(hours=1)
        if error is None:
            samples = fetch_five_minute_feed(T0, end, http_get=lambda url: body, sleep=no_sleep)
            assert samples.prices.tolist() == [1.0, 2.0]
        else:
            with pytest.raises(ParseError, match=f"{millis}.*{error}"):
                fetch_five_minute_feed(T0, end, http_get=lambda url: body, sleep=no_sleep)

    @pytest.mark.parametrize(
        "record, error",
        [
            ({"millisUTC": "1527811200000", "price": True}, "boolean"),
            ({"millisUTC": "1527811200000", "price": False}, "boolean"),
            ({"millisUTC": True, "price": "1.0"}, "boolean"),
            ({"millisUTC": float("inf"), "price": "1.0"}, "non-integer"),
            ({"millisUTC": "1527811200000", "price": 10**400}, "non-numeric"),
            ({"millisUTC": "1527811200000", "price": float("inf")}, "non-finite"),
            # int() would truncate it to the on-grid 1527811200000
            ({"millisUTC": 1527811200000.7, "price": "1.0"}, "non-integer"),
        ],
    )
    def test_non_numbers_are_errors(self, record, error):
        body = json.dumps([record])
        with pytest.raises(ParseError, match=f"feed record .* {error}"):
            fetch_five_minute_feed(
                T0, T0 + timedelta(hours=1), http_get=lambda url: body, sleep=no_sleep
            )

    @pytest.mark.parametrize(
        "record, ascii_only, key",
        [
            ({"millisUTC": "1527811200000", "price": "1_0"}, True, "price"),
            ({"millisUTC": "1527811200000", "price": "\u0663"}, True, "price"),  # a JSON escape
            ({"millisUTC": "1527811200000", "price": "\u0663"}, False, "price"),  # raw
            ({"millisUTC": "1527811200000", "price": "2.\u0665"}, False, "price"),
            ({"millisUTC": "1_527_811_200_000", "price": "1.0"}, True, "millisUTC"),
            ({"millisUTC": "\u0661527811200000", "price": "1.0"}, False, "millisUTC"),
        ],
    )
    def test_fields_are_read_only_as_the_feed_writes_them(self, record, ascii_only, key):
        # int() and float() read "1_0" as 10 and Arabic-Indic digits as digits
        body = json.dumps([record], ensure_ascii=ascii_only)
        with pytest.raises(ParseError, match=f"feed record .* has a {key} not written as a number"):
            fetch_five_minute_feed(T0, T0 + timedelta(hours=1), http_get=lambda url: body, sleep=no_sleep)

    @pytest.mark.parametrize(
        "body",
        [
            '[{"millisUTC": " 1527811200000 ", "price": " 1.5 "}]',  # passes the screen
            '[{"millisUTC": " 1527811200000 ", "price": " 1.5 ", "x_y": 1}]',  # an underscore
            r'[{"millisUTC": "\t1527811200000", "price": "\u0031.5\n"}]',  # escapes
            '[{"millisUTC": " 1527811200000 ", "price": " 1.5\u00a0", "note": "\u00b5"}]',  # raw non-ASCII
        ],
    )
    def test_spaces_and_escaped_ascii_stay_accepted(self, body):
        samples = fetch_five_minute_feed(T0, T0 + timedelta(hours=1), http_get=lambda url: body, sleep=no_sleep)
        assert samples.micros.tolist() == [1527811200000 * 1000]
        assert samples.prices.tolist() == [1.5]

    def test_whole_float_millis_is_a_stamp(self):
        body = json.dumps([{"millisUTC": 1527811200000.0, "price": "1.5"}])
        samples = fetch_five_minute_feed(T0, T0 + timedelta(hours=1), http_get=lambda url: body, sleep=no_sleep)
        assert samples.micros.tolist() == [1527811200000 * 1000]


class TestFeedSamples:
    def fetch(self):
        body = wire(five_minute_grid(T0, [float(i) for i in range(24)]))
        return fetch_five_minute_feed(
            T0, T0 + timedelta(hours=2), http_get=lambda url: body, sleep=no_sleep
        )

    def test_columns_are_read_only_int64_micros_and_float64_prices(self):
        samples = self.fetch()
        assert samples.micros.dtype == np.int64 and samples.prices.dtype == np.float64
        assert samples.micros[0] == int(T0.timestamp()) * 1_000_000
        assert np.all(np.diff(samples.micros) == 300_000_000)
        with pytest.raises(ValueError):
            samples.prices[0] = 9.0
        with pytest.raises(AttributeError):
            samples.prices = np.zeros(24)

    def test_microseconds_convert_exactly(self):
        stamps = [
            datetime(1, 1, 1, tzinfo=UTC),
            T0 + timedelta(microseconds=1),
            datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=UTC),
        ]
        samples = FeedSamples([(ts - EPOCH) // MICROSECOND for ts in stamps], [0.0] * 3)
        assert feed_stamps(samples) == stamps

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="equal"):
            FeedSamples([0, 1], [1.0])

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_copies_and_pickles_read_only(self, round_trip):
        samples = self.fetch()
        twin = round_trip(samples)
        np.testing.assert_array_equal(twin.micros, samples.micros, strict=True)
        np.testing.assert_array_equal(twin.prices, samples.prices, strict=True)
        assert not (twin.micros.flags.writeable or twin.prices.flags.writeable)
        with pytest.raises(AttributeError):
            twin.prices = np.zeros(24)


class TestFetchRange:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty fetch range"):
            fetch_five_minute_feed(T0, T0, http_get=lambda url: "[]", sleep=no_sleep)

    def test_naive_datetime_rejected(self):
        with pytest.raises(ValueError, match="timezone-aware"):
            fetch_five_minute_feed(
                datetime(2018, 6, 1), T0 + timedelta(days=1), http_get=lambda url: "[]"
            )

    def test_url_uses_feed_zone_wall_time_inclusive_end(self):
        # 2018-06-01 00:00 UTC is 2018-05-31 19:00 in the feed's home zone
        # (CDT); the inclusive end is one 5-minute step before the bound.
        url = _feed_url("https://example.test/api", T0, T0 + timedelta(hours=2))
        assert url == (
            "https://example.test/api?type=5minutefeed"
            "&datestart=201805311900&dateend=201805312055"
        )

    def test_chunks_split_on_feed_zone_midnights(self):
        chunks = _day_chunks(T0, T0 + timedelta(days=2))
        # midnight Chicago = 05:00 UTC during CDT
        bounds = [
            (T0, datetime(2018, 6, 1, 5, tzinfo=UTC)),
            (datetime(2018, 6, 1, 5, tzinfo=UTC), datetime(2018, 6, 2, 5, tzinfo=UTC)),
            (datetime(2018, 6, 2, 5, tzinfo=UTC), T0 + timedelta(days=2)),
        ]
        assert chunks == bounds

    def test_samples_outside_range_are_dropped(self):
        body = wire(five_minute_grid(T0 - timedelta(minutes=10), [9.0] * 16))
        samples = fetch_five_minute_feed(
            T0, T0 + timedelta(minutes=30), http_get=lambda url: body, sleep=no_sleep
        )
        assert feed_stamps(samples) == [T0 + timedelta(minutes=5 * i) for i in range(6)]

    def test_duplicate_timestamps_deduplicated(self):
        pairs = five_minute_grid(T0, [1.0, 2.0])
        body = wire(pairs + pairs)
        samples = fetch_five_minute_feed(
            T0, T0 + timedelta(minutes=10), http_get=lambda url: body, sleep=no_sleep
        )
        assert len(samples) == 2

    def test_retries_then_succeeds(self):
        body = wire(five_minute_grid(T0, [4.0] * 12))
        calls = {"n": 0}
        slept: list[float] = []

        def flaky(url: str) -> str:
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ConnectionError("boom")
            return body

        samples = fetch_five_minute_feed(
            T0, T0 + timedelta(hours=1), http_get=flaky, sleep=slept.append
        )
        assert len(samples) == 12
        assert calls["n"] == 3
        assert slept == [1.0, 2.0]

    def test_gives_up_after_three_attempts(self):
        slept: list[float] = []

        def always_down(url: str) -> str:
            raise ConnectionError("down")

        with pytest.raises(TransportError, match="3 attempts"):
            fetch_five_minute_feed(
                T0, T0 + timedelta(hours=1), http_get=always_down, sleep=slept.append
            )
        assert slept == [1.0, 2.0]

    def test_parse_error_is_not_retried(self):
        calls = {"n": 0}

        def bad_body(url: str) -> str:
            calls["n"] += 1
            return "not json"

        with pytest.raises(ParseError):
            fetch_five_minute_feed(
                T0, T0 + timedelta(hours=1), http_get=bad_body, sleep=no_sleep
            )
        assert calls["n"] == 1


class FeedHandler(BaseHTTPRequestHandler):
    """Answers every GET with the server's ``status`` and ``body``, and logs the URL."""

    def do_GET(self):
        self.server.urls.append(self.server.origin + self.path)
        body = self.server.body.encode("utf-8")
        self.send_response(self.server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def feed_server(monkeypatch):
    """An in-process HTTP server on the loopback interface.

    ``requests`` is made unimportable, so the fetch must run on the standard library.
    """
    monkeypatch.setitem(sys.modules, "requests", None)
    server = HTTPServer(("127.0.0.1", 0), FeedHandler)
    server.origin = f"http://127.0.0.1:{server.server_port}"
    server.urls, server.status, server.body = [], 200, "[]"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestDefaultTransport:
    # one feed-zone day, so one request
    DAY = datetime(2018, 6, 1, tzinfo=FEED_TIMEZONE).astimezone(UTC)

    def test_fetches_one_day(self, feed_server):
        endpoint = feed_server.origin + "/api"
        prices = [round(0.1 * i, 1) for i in range(288)]
        feed_server.body = wire(five_minute_grid(self.DAY, prices))
        end = self.DAY + timedelta(days=1)
        samples = fetch_five_minute_feed(self.DAY, end, endpoint=endpoint, sleep=no_sleep)
        assert samples.prices.tolist() == prices
        assert feed_stamps(samples)[0] == self.DAY
        assert feed_server.urls == [_feed_url(endpoint, self.DAY, end)]

    def test_server_error_is_retried_then_raised(self, feed_server):
        feed_server.status = 500
        slept: list[float] = []
        with pytest.raises(TransportError, match="3 attempts.*500"):
            fetch_five_minute_feed(
                self.DAY,
                self.DAY + timedelta(days=1),
                endpoint=feed_server.origin + "/api",
                sleep=slept.append,
            )
        assert len(feed_server.urls) == 3
        assert slept == [1.0, 2.0]


class TestAggregateHourly:
    def test_constant_hour_mean(self):
        samples = feed_columns(five_minute_grid(T0, [2.0] * 12 + [4.0] * 12))
        series, report = aggregate_hourly(samples)
        assert series.prices[0] == 2.0
        assert report.hours_emitted == 2
        assert report.hours_interpolated == ()
        assert report.samples_per_hour_min == 12

    def test_mean_of_one_through_twelve(self):
        prices = [float(i) for i in range(1, 13)] + [0.0] * 12
        series, _ = aggregate_hourly(feed_columns(five_minute_grid(T0, prices)))
        assert series.prices[0] == 6.5

    def test_missing_hour_interpolated_and_flagged(self):
        pairs = five_minute_grid(T0, [2.0] * 12)
        pairs += five_minute_grid(T0 + timedelta(hours=2), [4.0] * 12)
        series, report = aggregate_hourly(feed_columns(pairs))
        assert report.hours_emitted == 3
        assert series.prices[1] == 3.0
        assert report.hours_interpolated == (T0 + timedelta(hours=1),)

    def test_partial_hour_still_counts_as_sampled(self):
        pairs = five_minute_grid(T0, [8.0])
        pairs += five_minute_grid(T0 + timedelta(hours=1), [2.0] * 12)
        series, report = aggregate_hourly(feed_columns(pairs))
        assert series.prices[0] == 8.0
        assert report.samples_per_hour_min == 1
        assert report.hours_interpolated == ()

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientDataError):
            aggregate_hourly(FeedSamples([], []))

    def test_single_sampled_hour_rejected(self):
        with pytest.raises(InsufficientDataError, match="at least 2"):
            aggregate_hourly(feed_columns(five_minute_grid(T0, [1.0] * 12)))

    def test_unsorted_samples_rejected(self):
        a, b = five_minute_grid(T0, [1.0, 2.0])
        with pytest.raises(ValueError, match=r"ascending; 2018-06-01T00:05:00\+00:00 then 2018-06-01T00:00:00\+00:00"):
            aggregate_hourly(feed_columns([b, a]))

    def test_hour_means_bounded_by_their_samples(self):
        rng = np.random.default_rng(17)
        prices = rng.uniform(-2.0, 14.0, size=6 * 12)
        series, report = aggregate_hourly(feed_columns(five_minute_grid(T0, prices)))
        assert report.hours_interpolated == ()
        by_hour = prices.reshape(6, 12)
        assert np.all(series.prices >= by_hour.min(axis=1) - 1e-12)
        assert np.all(series.prices <= by_hour.max(axis=1) + 1e-12)
        np.testing.assert_allclose(series.prices, by_hour.mean(axis=1), rtol=1e-12)


class TestCsvCache:
    def make_series(self, prices, start=T0):
        return PriceSeries(start, prices)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        series = self.make_series(rng.uniform(-3.0, 17.0, size=48))
        path = tmp_path / "cache.csv"
        write_price_csv(series, path)
        assert read_price_csv(path) == series

    def test_format_is_strict_lf_with_header(self, tmp_path):
        series = self.make_series([2.25, 6.5])
        path = tmp_path / "cache.csv"
        write_price_csv(series, path)
        raw = path.read_bytes().decode()
        assert raw == (
            "hour_start_utc,price_cents_per_kwh\n"
            "2018-06-01T00:00:00Z,2.25\n"
            "2018-06-01T01:00:00Z,6.5\n"
        )
        assert "\r" not in raw

    def test_round_trip_across_dst_transition(self, tmp_path):
        # local clock falls back during this span; the UTC grid must not care
        start = datetime(2018, 11, 4, 4, tzinfo=UTC)
        series = self.make_series([float(i) for i in range(8)], start=start)
        path = tmp_path / "dst.csv"
        write_price_csv(series, path)
        assert read_price_csv(path) == series

    @pytest.mark.parametrize(
        "start, stamps",
        [
            (datetime(1, 1, 1, tzinfo=UTC), ("0001-01-01T00:00:00Z", "0001-01-01T02:00:00Z")),
            (datetime(999, 12, 31, 22, tzinfo=UTC), ("0999-12-31T22:00:00Z", "1000-01-01T00:00:00Z")),
            (datetime(9999, 12, 31, 21, tzinfo=UTC), ("9999-12-31T21:00:00Z", "9999-12-31T23:00:00Z")),
        ],
        ids=["year-1", "year-999", "ends-9999-12-31T23"],
    )
    def test_round_trip_at_the_ends_of_the_calendar(self, tmp_path, start, stamps):
        series = self.make_series([1.5, -2.0, 3.25], start=start)
        path = tmp_path / "cache.csv"
        write_price_csv(series, path)
        rows = path.read_text().splitlines()
        assert (rows[1][:20], rows[-1][:20]) == stamps
        assert read_price_csv(path) == series

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(ValidationError, match="absent.csv"):
            read_price_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,price\n")
        with pytest.raises(ValidationError, match="row 1"):
            read_price_csv(path)

    def test_header_only_is_insufficient(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("hour_start_utc,price_cents_per_kwh\n")
        with pytest.raises(InsufficientDataError):
            read_price_csv(path)

    def test_bad_price_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "hour_start_utc,price_cents_per_kwh\n"
            "2018-06-01T00:00:00Z,2.0\n"
            "2018-06-01T01:00:00Z,oops\n"
        )
        with pytest.raises(ValidationError, match="row 3"):
            read_price_csv(path)

    def test_hour_gap_cites_row(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "hour_start_utc,price_cents_per_kwh\n"
            "2018-06-01T00:00:00Z,2.0\n"
            "2018-06-01T02:00:00Z,3.0\n"
        )
        with pytest.raises(ValidationError, match="row 3"):
            read_price_csv(path)

    def test_bad_timestamp_cites_row(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text(
            "hour_start_utc,price_cents_per_kwh\n"
            "June first,2.0\n"
            "2018-06-01T01:00:00Z,3.0\n"
        )
        with pytest.raises(ValidationError, match="row 2"):
            read_price_csv(path)

    @pytest.mark.parametrize(
        "stamp",
        [
            "2018-6-1T1:0:0Z",  # no zero padding
            "2018-06-01T01:00:00+00:00",  # offset instead of Z
            "2018-06-01T01:00:00Z ",  # trailing space
            " 2018-06-01T01:00:00Z",
            "2018-06-01 01:00:00Z",
            "2018-06-01T01:00:00",
            "2018-06-01T01:00:00.000Z",
            "2018-02-30T01:00:00Z",  # no such day
            "2018-06-01T24:00:00Z",
            "２０18-06-01T01:00:00Z",  # non-ASCII digits
        ],
    )
    def test_only_the_written_timestamp_form_is_accepted(self, tmp_path, stamp):
        path = tmp_path / "ts.csv"
        path.write_text(
            "hour_start_utc,price_cents_per_kwh\n"
            "2018-06-01T00:00:00Z,2.0\n"
            f"{stamp},3.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="row 3: bad timestamp"):
            read_price_csv(path)


class TestDataDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("RTP_ARB_DATA_DIR", str(tmp_path / "cache"))
        assert default_data_dir() == tmp_path / "cache"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("RTP_ARB_DATA_DIR", raising=False)
        assert default_data_dir() == Path.home() / ".local" / "share" / "rtp-arb"

    def test_year_path_layout(self):
        assert year_csv_path("/tmp/x", 2017) == Path("/tmp/x/comed_2017.csv")


class TestEndToEnd:
    def test_fixture_to_csv_and_back(self, tmp_path):
        body = (FIXTURES / "feed_two_hours.json").read_text()
        samples = fetch_five_minute_feed(
            T0, T0 + timedelta(hours=2), http_get=lambda url: body, sleep=no_sleep
        )
        series, report = aggregate_hourly(samples)
        assert list(series.prices) == [6.5, 2.0]
        assert report.hours_interpolated == ()
        path = tmp_path / "comed_2018.csv"
        write_price_csv(series, path)
        assert read_price_csv(path) == series
