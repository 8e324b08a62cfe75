"""Input generators and the three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (which
may write files into its work directory) and then runs timed passes. A pass
is a closed loop: the benchmark waits on each call before making the next.
``run_pass`` does and times the work; ``check`` then verifies its outputs,
outside the timed and traced region, and records a fingerprint of them,
which must be identical across passes (traced or not).

All checks here compare against something the timed code did not compute:
the oracle bound, an independent replay through ``env.simulate``, the
generator's own record of what it dropped or failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from datetime import datetime, time as dtime, timedelta, timezone
from pathlib import Path

import numpy as np

from rtp_arb import (
    HOUR,
    AdamState,
    BatteryConfig,
    Hyperparams,
    ObservationNormalizer,
    PriceSeries,
    aggregate_hourly,
    evaluate_greedy,
    fetch_five_minute_feed,
    hindsight_optimal,
    init_network,
    read_price_csv,
    save_checkpoint,
    simulate,
    train_agent,
    write_price_csv,
)
from rtp_arb import cli
from rtp_arb.experiment import read_cross_test_csv
from rtp_arb.ingest import DEFAULT_ENDPOINT, FEED_TIMEZONE

from probe import SMALL_ARRAYS, Timing

UTC = timezone.utc
REL_TOL = 1e-9

TRAIN_STEPS = 20_000
TRAIN_EVAL_EVERY = 10_000
CROSS_YEARS = (2015, 2016, 2017, 2018, 2019)
YEAR_HOURS = 8_760
INGEST_YEAR = 2019
INGEST_DROPPED_HOURS = 6
INGEST_FAILED_CHUNKS = 6


def within(value: float, bound: float) -> bool:
    """value <= bound, allowing REL_TOL of |bound| for rounding."""
    return value <= bound + REL_TOL * abs(bound)


def square_wave_series(days: int = 365, low: float = 2.0, high: float = 6.0) -> PriceSeries:
    """12 h at ``low`` then 12 h at ``high``, repeated: 24 distinct windows."""
    day = np.concatenate([np.full(12, low), np.full(12, high)])
    return PriceSeries.from_prices(datetime(2021, 1, 1, tzinfo=UTC), np.tile(day, days))


def synthetic_prices(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hourly cents/kWh: daily sinusoid + mean-reverting random walk + noise."""
    h = np.arange(n)
    daily = 1.5 * np.sin(2.0 * np.pi * (h - 9) / 24.0)
    steps = rng.normal(0.0, 0.1, n)
    walk = np.empty(n)
    level = 0.0
    for i in range(n):
        level = 0.995 * level + steps[i]
        walk[i] = level
    return 3.0 + daily + walk + rng.normal(0.0, 0.3, n)


def cross_years(seed: int) -> dict[int, PriceSeries]:
    """Five seeded 8,760-hour years starting on 1 January of 2015..2019."""
    return {
        y: PriceSeries.from_prices(
            datetime(y, 1, 1, tzinfo=UTC), synthetic_prices(np.random.default_rng([seed, y]), YEAR_HOURS)
        )
        for y in CROSS_YEARS
    }


def feed_day_chunks(start: datetime, end: datetime) -> list[tuple[datetime, datetime]]:
    """The feed protocol's requests: one per feed-zone day, both ends in local wall time."""
    chunks = []
    cursor = start
    while cursor < end:
        local_day = cursor.astimezone(FEED_TIMEZONE).date()
        nxt = datetime.combine(local_day + timedelta(days=1), dtime(), tzinfo=FEED_TIMEZONE)
        chunks.append((cursor, min(nxt.astimezone(UTC), end)))
        cursor = nxt.astimezone(UTC)
    return chunks


def feed_url(chunk_start: datetime, chunk_end: datetime) -> str:
    fmt = "%Y%m%d%H%M"
    ds = chunk_start.astimezone(FEED_TIMEZONE).strftime(fmt)
    de = (chunk_end - timedelta(minutes=5)).astimezone(FEED_TIMEZONE).strftime(fmt)
    return f"{DEFAULT_ENDPOINT}?type=5minutefeed&datestart={ds}&dateend={de}"


@dataclass
class Feed:
    """One pre-generated year of the 5-minute feed, served from memory."""

    start: datetime
    end: datetime
    bodies: dict[str, str]
    failures: dict[str, int]
    dropped_hours: tuple[datetime, ...]
    samples: int

    @property
    def injected_failures(self) -> int:
        return sum(self.failures.values())


def ingest_feed(seed: int, year: int = INGEST_YEAR) -> Feed:
    """JSON bodies for every day chunk of ``year``.

    A few whole hours are left out (the aggregator must interpolate exactly
    those), each body repeats the first sample of the next chunk (the
    fetcher must deduplicate it), and a few chunks fail once or twice
    before they succeed (fewer than the fetcher's three attempts).
    """
    rng = np.random.default_rng([seed, year, 5])
    start = datetime(year, 1, 1, tzinfo=UTC)
    end = datetime(year + 1, 1, 1, tzinfo=UTC)
    n_hours = int((end - start) / HOUR)
    hourly = synthetic_prices(rng, n_hours)
    prices = np.repeat(hourly, 12) + rng.normal(0.0, 0.4, 12 * n_hours)
    text = [f"{p:.1f}" for p in prices]
    dropped = np.sort(rng.choice(np.arange(1, n_hours - 1), INGEST_DROPPED_HOURS, replace=False))
    keep = np.ones(12 * n_hours, dtype=bool)
    for h in dropped:
        keep[12 * h : 12 * h + 12] = False
    start_ms = int(start.timestamp() * 1000)
    millis = start_ms + 300_000 * np.arange(12 * n_hours, dtype=np.int64)
    kept = np.flatnonzero(keep)

    chunks = feed_day_chunks(start, end)
    bodies = {}
    for cs, ce in chunks:
        lo_ms, hi_ms = int(cs.timestamp() * 1000), int(ce.timestamp() * 1000)
        lo, hi = np.searchsorted(millis[kept], [lo_ms, hi_ms])
        idx = kept[lo : min(hi + 1, kept.size)]  # one extra: the next chunk's first sample
        bodies[feed_url(cs, ce)] = json.dumps(
            [{"millisUTC": str(millis[i]), "price": text[i]} for i in idx]
        )
    urls = list(bodies)
    failing = rng.choice(len(urls), INGEST_FAILED_CHUNKS, replace=False)
    failures = {urls[i]: int(rng.integers(1, 3)) for i in failing}
    return Feed(
        start,
        end,
        bodies,
        failures,
        tuple(start + int(h) * HOUR for h in dropped),
        int(kept.size),
    )


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def replay_failures(series: PriceSeries, config: BatteryConfig, plan) -> list[str]:
    """The oracle plan replayed through env.simulate must earn plan.value."""
    total = sum(t.reward for t in simulate(series, config, plan.actions))
    if abs(total - plan.value) > REL_TOL * max(1.0, abs(plan.value)):
        return [f"oracle plan for {series!r} replays to {total!r}, not {plan.value!r}"]
    return []


@dataclass
class PassResult:
    """What one timed pass did; ``check`` fills in the last three fields."""

    work: float  # units of the workload's throughput metric
    timing: Timing  # of the workload's main operation
    oracle_calls: list[tuple[int, float, float]]  # per hindsight_optimal call: hours, wall s, normalized s
    outputs: dict
    fingerprint: str = ""
    failures: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.timing.wall_s

    @property
    def normalized_s(self) -> float:
        return self.timing.normalized_s


def timed_oracle(tr, series: PriceSeries, config: BatteryConfig, calls: list, repeats: int):
    """``repeats`` calls of hindsight_optimal, each timed; the plans must agree.

    The repeats give a run some 40 timed calls (6 per ~5-s training pass,
    2 per year in a cross-test pass, 2 per ~1.5-s ingest pass) to take the
    median of.
    """
    plans = []
    for _ in range(repeats):
        with tr.timed(SMALL_ARRAYS) as timing, tr.span("oracle.hindsight_optimal"):
            plans.append(hindsight_optimal(series, config))
        calls.append((len(plans[-1].actions), timing.wall_s, timing.normalized_s))
    first = plans[0]
    if any((p.value, p.actions) != (first.value, first.actions) for p in plans[1:]):
        raise AssertionError(f"hindsight_optimal on {series!r} differs between calls")
    return first


class TrainSquareWave:
    """train_agent on the square-wave year, then the oracle on that year."""

    name = "train_square_wave"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = BatteryConfig()
        self.hyper = Hyperparams()

    def setup(self, tr) -> None:
        self.series = square_wave_series()

    def run_pass(self, tr) -> PassResult:
        with tr.timed() as timing, tr.span("experiment.train_agent"):
            curve, ckpt = train_agent(
                self.series, self.config, self.hyper, TRAIN_STEPS, TRAIN_EVAL_EVERY, self.seed
            )
        oracle_calls = []
        plan = timed_oracle(tr, self.series, self.config, oracle_calls, repeats=6)
        return PassResult(
            TRAIN_STEPS, timing, oracle_calls, {"curve": curve, "ckpt": ckpt, "plan": plan}
        )

    def check(self, res: PassResult, first: bool) -> None:
        curve, ckpt, plan = res.outputs["curve"], res.outputs["ckpt"], res.outputs["plan"]
        if first:
            res.failures += replay_failures(self.series, self.config, plan)
        best = curve.best()[1]
        again = evaluate_greedy(ckpt, self.series, self.config)
        if again != best:
            res.failures.append(f"checkpoint re-evaluates to {again!r}, curve best is {best!r}")
        if not within(best, plan.value):
            res.failures.append(f"greedy return {best!r} beats the oracle {plan.value!r}")
        res.fingerprint = digest(
            repr(curve.points).encode(),
            *(p.tobytes() for p in ckpt.net.parameters()),
            repr((plan.value, plan.actions)).encode(),
        )
        res.stats = {"train_oracle_fraction": best / plan.value, "best_return_cents": best}


class CrossTest5y:
    """The user's ``rtp-arb cross-test`` on five years, then the oracle per year."""

    name = "cross_test_5y"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = BatteryConfig()
        self.passes = 0

    def setup(self, tr) -> None:
        self.series = cross_years(self.seed)
        rows = ["year,checkpoint_path,prices_path"]
        for year, series in self.series.items():
            net = init_network(self.config.window_hours, [self.seed, year, 1])
            norm = ObservationNormalizer.from_series(series.prices, self.config.capacity_kwh)
            meta = {
                "year": year,
                "seed": self.seed,
                "capacity_kwh": self.config.capacity_kwh,
                "rate_kw": self.config.rate_kw,
                "window_hours": self.config.window_hours,
            }
            ckpt, prices = f"agent_{year}.ckpt", f"prices_{year}.csv"
            with tr.span("dqn.save_checkpoint"):
                save_checkpoint(net, AdamState.for_network(net), norm, meta, self.workdir / ckpt)
            with tr.span("ingest.write_price_csv"):
                write_price_csv(series, self.workdir / prices)
            rows.append(f"{year},{ckpt},{prices}")
        self.manifest = self.workdir / "manifest.csv"
        self.manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        self.checkpoint_bytes = (self.workdir / ckpt).stat().st_size

    def run_pass(self, tr) -> PassResult:
        self.passes += 1
        out_dir = self.workdir / f"out_{self.passes}"
        argv = ["cross-test", "--manifest", str(self.manifest), "--out-dir", str(out_dir)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), tr.timed() as timing, tr.span("cli.run"):
            code = cli.run(argv)
        oracle_calls = []
        plans = {y: timed_oracle(tr, s, self.config, oracle_calls, repeats=2) for y, s in self.series.items()}
        return PassResult(
            len(plans) ** 2 * (YEAR_HOURS - 1),
            timing,
            oracle_calls,
            {"code": code, "out_dir": out_dir, "plans": plans},
        )

    def check(self, res: PassResult, first: bool) -> None:
        code, out_dir, plans = res.outputs["code"], res.outputs["out_dir"], res.outputs["plans"]
        if first:
            for year, plan in plans.items():
                res.failures += replay_failures(self.series[year], self.config, plan)
        if code != 0:
            res.failures.append(f"cross-test exited {code}")
            return
        csv = out_dir / "cross_test.csv"
        matrix = read_cross_test_csv(csv)
        csv_bytes = csv.read_bytes()
        shutil.rmtree(out_dir)
        if matrix.years != tuple(self.series):
            res.failures.append(f"cross-test years {matrix.years} != {tuple(self.series)}")
            return
        for i, agent in enumerate(matrix.years):
            for j, test in enumerate(matrix.years):
                if not within(matrix.raw[i, j], plans[test].value):
                    res.failures.append(
                        f"agent {agent} on {test}: {matrix.raw[i, j]!r} beats the oracle {plans[test].value!r}"
                    )
        for j, test in enumerate(matrix.years):
            if test not in matrix.suppressed_years and matrix.normalized[j, j] != 1.0:
                res.failures.append(f"diagonal {test} normalizes to {matrix.normalized[j, j]!r}")
        res.fingerprint = digest(
            csv_bytes, *(repr((p.value, p.actions)).encode() for p in plans.values())
        )
        res.stats = {
            "unsuppressed_diagonal": len(matrix.years) - len(matrix.suppressed_years),
            "checkpoint_bytes": self.checkpoint_bytes,
        }


class IngestYear:
    """One year of the 5-minute feed: fetch, aggregate, write, read back; then the oracle."""

    name = "ingest_year"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = BatteryConfig()

    def setup(self, tr) -> None:
        self.feed = ingest_feed(self.seed)

    def run_pass(self, tr) -> PassResult:
        feed = self.feed
        pending = dict(feed.failures)
        calls = {"requests": 0, "retries": 0}

        def http_get(url: str) -> str:
            calls["requests"] += 1
            if pending.get(url, 0) > 0:
                pending[url] -= 1
                raise ConnectionError("injected transient failure")
            return feed.bodies[url]

        def sleep(seconds: float) -> None:
            calls["retries"] += 1

        csv = self.workdir / "ingest.csv"
        with tr.timed() as timing:
            with tr.span("ingest.fetch_five_minute_feed"):
                samples = fetch_five_minute_feed(
                    feed.start, feed.end, http_get=tr.wrap("ingest.transport", http_get), sleep=sleep
                )
            with tr.span("ingest.aggregate_hourly"):
                series, report = aggregate_hourly(samples)
            with tr.span("ingest.write_price_csv"):
                write_price_csv(series, csv)
            with tr.span("ingest.read_price_csv"):
                back = read_price_csv(csv)
        oracle_calls = []
        plan = timed_oracle(tr, series, self.config, oracle_calls, repeats=2)
        return PassResult(
            len(samples),
            timing,
            oracle_calls,
            {"series": series, "report": report, "back": back, "csv": csv, "plan": plan, **calls},
        )

    def check(self, res: PassResult, first: bool) -> None:
        out, feed = res.outputs, self.feed
        series, report = out["series"], out["report"]
        if first:
            res.failures += replay_failures(series, self.config, out["plan"])
        if not out["back"] == series:
            res.failures.append("price CSV read back differs from the aggregated series")
        if report.hours_interpolated != feed.dropped_hours:
            res.failures.append(
                f"interpolated {len(report.hours_interpolated)} hours, dropped {len(feed.dropped_hours)}"
            )
        if res.work != feed.samples:
            res.failures.append(f"fetched {res.work} samples, served {feed.samples}")
        if out["requests"] != len(feed.bodies) + feed.injected_failures:
            res.failures.append(
                f"{out['requests']} requests for {len(feed.bodies)} chunks "
                f"and {feed.injected_failures} injected failures"
            )
        res.fingerprint = digest(
            series.prices.tobytes(),
            repr(series.hours).encode(),
            repr((out["plan"].value, out["plan"].actions)).encode(),
        )
        res.stats = {
            "requests": out["requests"],
            "retries": out["retries"],
            "hours_interpolated": len(report.hours_interpolated),
            "csv_bytes": out["csv"].stat().st_size,
        }


WORKLOADS = {w.name: w for w in (TrainSquareWave, CrossTest5y, IngestYear)}
