"""``ingest.hour_stamps`` against the per-hour formula it replaced.

``hour_stamps`` formats each day once and appends the 24 clock times that
follow from the start's offset within its hour. The reference below formats
every hour with ``np.datetime_as_string``. The two must give the same list of
strings for any whole-second start in years 1-9999, including stamps that run
past year 9999 into five-digit years.
"""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtp_arb.ingest import hour_stamps

UTC = timezone.utc


def reference_hour_stamps(start: datetime, n: int, first: int = 0) -> list[str]:
    """The cache-format stamps of hours ``first`` .. ``first + n - 1`` after ``start``."""
    t0 = np.datetime64(start.replace(tzinfo=None), "s")
    stamps = np.datetime_as_string(t0 + 3600 * np.arange(first, first + n), unit="s")
    return [s + "Z" for s in stamps.tolist()]


@pytest.mark.parametrize(
    "start, n, first",
    [
        (datetime(1, 1, 1, tzinfo=UTC), 50, 0),  # year 1
        (datetime(1, 1, 1, 0, 59, 59, tzinfo=UTC), 30, 3),
        (datetime(999, 12, 31, 20, tzinfo=UTC), 8, 0),  # 0999 -> 1000
        (datetime(9999, 12, 31, 21, 30, 7, tzinfo=UTC), 10, 0),  # 9999 -> 10000
        (datetime(9999, 12, 31, 23, 59, 59, tzinfo=UTC), 3, 30_000),
        (datetime(2021, 1, 1, 0, 0, 1, tzinfo=UTC), 24, 23),  # sub-hour start
        (datetime(2021, 3, 14, 7, 45, tzinfo=UTC), 49, 0),
        (datetime(2020, 2, 28, tzinfo=UTC), 72, 0),  # a leap day
        (datetime(2021, 1, 1, tzinfo=UTC), 8_760, 0),  # a year
        (datetime(2021, 1, 1, tzinfo=UTC), 0, 0),
        (datetime(2021, 1, 1, 5, tzinfo=UTC), 0, 19),
        (datetime(2021, 1, 1, 5, tzinfo=UTC), 1, 19),
    ],
)
def test_edge_cases(start, n, first):
    assert hour_stamps(start, n, first) == reference_hour_stamps(start, n, first)


@settings(max_examples=300, deadline=None)
@given(
    start=st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
        lambda t: t.replace(microsecond=0, tzinfo=UTC)
    ),
    n=st.integers(0, 200),
    first=st.integers(0, 30_000),
)
def test_any_whole_second_start(start, n, first):
    assert hour_stamps(start, n, first) == reference_hour_stamps(start, n, first)
