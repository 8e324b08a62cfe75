"""Command-line entry point tying the pipeline together.

Subcommands: ``fetch`` (feed to cached CSV), ``train`` (one agent on one
year), ``eval`` (greedy return of a checkpoint, optional daily dispatch
trace), ``cross-test`` (all agents on all years from a manifest),
``oracle`` (hindsight-optimal value of a series), ``plot`` (re-render SVGs
from result CSVs).

Every setting follows the same precedence: command-line flag, then config
file, then built-in default. Settings are the leaf fields of
:class:`RunConfig` (``BatteryConfig``, ``Hyperparams`` and the run fields);
a field's config key is its name and its flag is ``--field-name``. A flag is
only on the subcommands that read its field; every key is valid in the config
file of every subcommand, so one file serves them all. The config file is
flat ``key = value`` UTF-8 text; a line whose first non-blank character is
``#`` or ``;`` is a comment, but a note after a value is part of the value
(``rate_kw = 5  # note`` is a bad value). Exit codes: 0 success, 1 runtime
or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, get_type_hints

from .dqn import load_checkpoint, save_checkpoint
from .env import Action, BatteryConfig
from .errors import ConfigError, RtpArbError, ValidationError
# write_cross_test_csv goes unused: benchmarks/tracing.py patches it by name (ROADMAP item 17)
from .experiment import (
    DEFAULT_EVAL_EVERY,
    DEFAULT_TOTAL_STEPS,
    RESULTS,
    TRAINING_CURVES_CSV,
    Hyperparams,
    checkpoint_config,
    cross_test,
    daily_policy_trace,
    emit_outputs,
    greedy_rollout,
    read_training_curves_csv,
    train_agent,
    write_cross_test_csv,
)
from .ingest import (
    DEFAULT_ENDPOINT,
    aggregate_hourly,
    default_data_dir,
    fetch_five_minute_feed,
    parse_timestamp,
    read_columns,
    read_price_csv,
    whole_number,
    write_price_csv,
    year_csv_path,
)
from .oracle import hindsight_optimal

DEFAULT_YEARS = (2015, 2016, 2017, 2018, 2019)
#: Year excluded by default: real-time prices that year had irregularities
#: (briefly negative and near-zero for long stretches), so it would distort
#: comparisons. Fetchable anyway with --force.
EXCLUDED_YEAR = 2020


def _year(text: str) -> int:
    """A year as the result files and the manifest write it."""
    try:
        return whole_number(text)
    except ValueError:
        raise ValueError(f"bad year {text!r}") from None


def _parse_years(text: str) -> tuple[int, ...]:
    try:
        parts = (part.strip(" ") for part in text.split(","))
        return tuple(_year(part) for part in parts if part)
    except ValueError as exc:
        raise ConfigError(f"years must be a comma-separated list of integers, got {text!r}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline with its effective value.

    The battery and learning knobs keep their defaults in their own
    dataclasses; the fields here are what only a run needs.
    """

    battery: BatteryConfig = field(default_factory=BatteryConfig)
    hyper: Hyperparams = field(default_factory=Hyperparams)
    steps: int = DEFAULT_TOTAL_STEPS
    eval_every: int = DEFAULT_EVAL_EVERY
    seed: int = 0
    years: tuple[int, ...] = DEFAULT_YEARS
    endpoint: str = DEFAULT_ENDPOINT
    data_dir: Path = field(default_factory=default_data_dir)
    out_dir: Path = Path("runs")


def _knobs(cls: type = RunConfig, path: tuple[str, ...] = ()) -> dict:
    """Config key -> (attribute path from RunConfig, converter) of every leaf."""
    out: dict[str, tuple[tuple[str, ...], Callable[[str], Any]]] = {}
    for name, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            out.update(_knobs(hint, path + (name,)))
        else:
            out[name] = (path + (name,), _parse_years if hint == tuple[int, ...] else hint)
    return out


_KNOBS = _knobs()


def _build(cls: type, values: dict[str, Any]) -> Any:
    """``cls`` from the keyed values; a key not in ``values`` keeps its default."""
    kwargs = {}
    for name, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            kwargs[name] = _build(hint, values)
        elif name in values:
            kwargs[name] = values[name]
    return cls(**kwargs)


def _parse_config_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file does not exist: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text: {exc}") from exc
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{p}: line {line_no}: expected 'key = value', got {line!r}")
        values[key.strip()] = val.strip()
    return values


def _assemble(args: argparse.Namespace) -> RunConfig:
    """Merge built-in defaults, config file, and flags (in rising precedence)."""
    values: dict[str, Any] = {}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key not in _KNOBS:
                raise ConfigError(f"{args.config}: unknown config key {key!r}")
            try:
                values[key] = _KNOBS[key][1](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{args.config}: bad value for {key!r}: {raw!r}") from exc
    # The cache dir has an extra layer: RTP_ARB_DATA_DIR, which the built-in
    # default reads, beats the config file.
    if os.environ.get("RTP_ARB_DATA_DIR"):
        values.pop("data_dir", None)
    for key in _KNOBS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    # Validate eagerly so bad settings fail before any work.
    return _build(RunConfig, values)


def _add_flags(parser: argparse.ArgumentParser, *fields: str) -> None:
    """One ``--field-name`` flag per knob under the RunConfig ``fields``."""
    defaults = RunConfig()
    for key, (path, convert) in _KNOBS.items():
        if path[0] in fields:
            default = defaults
            for name in path:
                default = getattr(default, name)
            flag = "--" + key.replace("_", "-")
            help_text = f"default: {default}".replace("%", "%%")
            parser.add_argument(flag, dest=key, type=convert, help=help_text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key = value settings file")

    parser = argparse.ArgumentParser(
        prog="rtp-arb",
        description="Battery arbitrage on hourly real-time prices: data, training, baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("fetch", parents=[common], help="download a year of prices into the cache")
    p.set_defaults(run=_cmd_fetch)
    p.add_argument("--year", type=_year, help="calendar year (default: every configured year)")
    p.add_argument("--force", action="store_true", help="allow the excluded year 2020")
    _add_flags(p, "endpoint", "data_dir")  # years is config-file only

    p = sub.add_parser("train", parents=[common], help="train one agent on a price CSV")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--prices", required=True, help="hourly price CSV")
    _add_flags(p, "battery", "hyper", "steps", "eval_every", "seed", "out_dir")

    # eval and cross-test take the battery from checkpoint metadata
    p = sub.add_parser("eval", parents=[common], help="greedy return of a checkpoint on a series")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prices", required=True, help="hourly price CSV")
    p.add_argument("--day", help="also write the dispatch trace of this UTC day (YYYY-MM-DD)")
    _add_flags(p, "out_dir")

    p = sub.add_parser("cross-test", parents=[common], help="evaluate all agents on all years")
    p.set_defaults(run=_cmd_cross_test)
    p.add_argument(
        "--manifest",
        required=True,
        help="CSV with header year,checkpoint_path,prices_path; paths relative to it",
    )
    _add_flags(p, "out_dir")

    p = sub.add_parser("oracle", parents=[common], help="hindsight-optimal value of a series")
    p.set_defaults(run=_cmd_oracle)
    p.add_argument("--prices", required=True, help="hourly price CSV")
    _add_flags(p, "battery")

    p = sub.add_parser("plot", parents=[common], help="re-render SVGs from result CSVs")
    p.set_defaults(run=_cmd_plot)
    p.add_argument("--in", dest="in_dir", required=True, help="directory holding result CSVs")
    return parser


def _cmd_fetch(cfg: RunConfig, args: argparse.Namespace) -> int:
    years = (args.year,) if args.year is not None else cfg.years
    if not years:
        raise ConfigError("nothing to fetch: pass --year or set years in the config")
    for year in years:
        # the feed's zone is behind UTC, so a year's first local hour and its
        # end must both be datetimes
        if not 2 <= year <= 9998:
            raise ConfigError(f"year {year} is outside the years 2-9998 that can be fetched")
        if year == EXCLUDED_YEAR and not args.force:
            raise ConfigError(
                f"year {EXCLUDED_YEAR} is excluded by default (known price irregularities); "
                "pass --force to fetch it anyway"
            )
    cfg.data_dir.mkdir(parents=True, exist_ok=True)
    for year in years:
        start = datetime(year, 1, 1, tzinfo=timezone.utc)
        end = datetime(year + 1, 1, 1, tzinfo=timezone.utc)
        samples = fetch_five_minute_feed(start, end, endpoint=cfg.endpoint)
        series, report = aggregate_hourly(samples)
        path = year_csv_path(cfg.data_dir, year)
        write_price_csv(series, path)
        print(
            f"{year}: {report.hours_emitted} hours -> {path} "
            f"({len(report.hours_interpolated)} interpolated, "
            f"min {report.samples_per_hour_min} samples/hour)"
        )
    return 0


def _cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    series = read_price_csv(args.prices)
    # Merge with curves from earlier runs in the same output directory so a
    # year-by-year workflow accumulates one combined file. Read it before
    # training, so a malformed file fails the command before the run, not after.
    curves_path = cfg.out_dir / TRAINING_CURVES_CSV
    earlier = read_training_curves_csv(curves_path) if curves_path.exists() else []
    curve, ckpt = train_agent(series, cfg.battery, cfg.hyper, cfg.steps, cfg.eval_every, cfg.seed)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = cfg.out_dir / f"agent_{curve.year}.ckpt"
    save_checkpoint(ckpt.net, ckpt.opt, ckpt.norm, ckpt.metadata, ckpt_path)

    curves = sorted([curve, *(c for c in earlier if c.year != curve.year)], key=lambda c: c.year)
    emit_outputs(curves, None, cfg.out_dir)

    best_step, best_ret = curve.best()
    print(f"trained on {curve.year}: best greedy return {best_ret:.1f} cents at step {best_step}")
    print(f"checkpoint: {ckpt_path}")
    print(f"curves: {curves_path}")
    return 0


def _cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    series = read_price_csv(args.prices)
    config = checkpoint_config(ckpt)
    rollout = greedy_rollout(ckpt.net, ckpt.norm, series, config)
    print(
        f"greedy return on {args.prices}: {rollout[0]:.1f} cents "
        f"(battery {config.capacity_kwh:g} kWh at {config.rate_kw:g} kW)"
    )
    if args.day is not None:
        try:
            # the stamp reader checks the shape: date.fromisoformat also reads 20210102 and 2020-W53-6
            day = parse_timestamp(args.day + "T00:00:00Z").date()
        except ValueError as exc:
            raise ConfigError(f"--day must be YYYY-MM-DD, got {args.day!r}") from exc
        trace = daily_policy_trace(series, day, rollout)
        csv_path, svg_path = emit_outputs(None, None, cfg.out_dir, trace)
        print(f"daily dispatch: {csv_path} and {svg_path}")
    return 0


def _read_manifest(path) -> list[tuple[int, Path, Path]]:
    _, columns = read_columns(path, "year,checkpoint_path,prices_path", (_year, str, str))
    base = Path(path).parent
    rows = {}
    for row_no, (year, ckpt, prices) in enumerate(zip(*columns), start=2):
        if year in rows:
            raise ValidationError(f"{path}: row {row_no}: year {year} is listed twice")
        rows[year] = (year, base / ckpt, base / prices)
    return list(rows.values())


def _cmd_cross_test(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = _read_manifest(args.manifest)
    checkpoints = {}
    series = {}
    for year, ckpt_path, prices_path in rows:
        checkpoints[year] = load_checkpoint(ckpt_path)
        series[year] = read_price_csv(prices_path)
    matrix = cross_test(checkpoints, series)
    csv_path, svg_path = emit_outputs(None, matrix, cfg.out_dir)
    means = matrix.off_diagonal_means()

    head = "agent\\test" + "".join(f"{y:>12}" for y in matrix.years)
    print("raw returns (cents):")
    print(head)
    for i, agent_year in enumerate(matrix.years):
        cells = "".join(f"{matrix.raw[i, j]:12.1f}" for j in range(len(matrix.years)))
        print(f"{agent_year:>10}{cells}")
    for year in matrix.years:
        mean = means[year]
        print(f"agent {year}: mean normalized return in other years = {mean:.3f}")
    if matrix.suppressed_years:
        print(
            "normalization suppressed for "
            + ", ".join(str(y) for y in matrix.suppressed_years)
            + " (same-year return not positive)"
        )
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> int:
    series = read_price_csv(args.prices)
    plan = hindsight_optimal(series, cfg.battery)
    counts = Counter(plan.actions)
    print(f"hindsight optimal value: {plan.value!r} cents over {len(plan.actions)} hours")
    print(
        f"plan: {counts[Action.CHARGE]} charge, {counts[Action.DISCHARGE]} discharge, "
        f"{counts[Action.IDLE]} idle"
    )
    return 0


def _cmd_plot(cfg: RunConfig, args: argparse.Namespace) -> int:
    d = Path(args.in_dir)
    if not d.is_dir():
        raise ConfigError(f"--in directory does not exist: {d}")
    # read every CSV before rendering any, so a bad one leaves no new chart
    results = [
        (read(d / name), render, d / name) for name, _, read, render in RESULTS if (d / name).exists()
    ]
    if not results:
        names = ", ".join(name for name, *_ in RESULTS)
        raise ConfigError(f"no result CSVs found in {d} (looked for {names})")
    for result, render, csv in results:
        print(f"wrote {render(result, csv.with_suffix('.svg'))}")
    return 0


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code) if exc.code else 0
    try:
        cfg = _assemble(args)
        return args.run(cfg, args)
    except RtpArbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
