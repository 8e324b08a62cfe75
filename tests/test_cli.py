"""Command-line behavior: exit codes, precedence, and the full workflow."""

import argparse
import dataclasses
import functools
import json
import struct
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from conftest import feed_columns
from rtp_arb import (
    AdamState,
    BatteryConfig,
    Hyperparams,
    ObservationNormalizer,
    PriceSeries,
    QNetwork,
    ValidationError,
    checkpoint_config,
    cli,
    daily_policy_trace,
    emit_outputs,
    evaluate_greedy,
    experiment,
    fetch_five_minute_feed,
    init_network,
    load_checkpoint,
    read_price_csv,
    save_checkpoint,
    write_price_csv,
)
from rtp_arb.cli import _KNOBS, RunConfig, _assemble, _build_parser, _read_manifest, run
from rtp_arb.dqn import CHECKPOINT_MAGIC

UTC = timezone.utc


def write_series_csv(path, prices, year=2021):
    write_price_csv(PriceSeries(datetime(year, 1, 1, tzinfo=UTC), prices), path)
    return str(path)


def wave_csv(path, year=2021, days=6):
    return write_series_csv(path, ([1.0] * 12 + [5.0] * 12) * days, year)


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("RTP_ARB_DATA_DIR", raising=False)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_subcommand_is_usage_error(self):
        assert run([]) == 2

    def test_missing_required_flag_is_usage_error(self):
        assert run(["train"]) == 2

    def test_missing_prices_file_is_runtime_error(self, tmp_path, capsys, clean_env):
        code = run(["train", "--prices", str(tmp_path / "missing.csv")])
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_invalid_battery_setting_is_runtime_error(self, tmp_path, capsys, clean_env):
        prices = wave_csv(tmp_path / "p.csv")
        code = run(["oracle", "--prices", prices, "--capacity-kwh", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestOracleCommand:
    def test_worked_example(self, tmp_path, capsys, clean_env):
        prices = write_series_csv(tmp_path / "three.csv", [3.0, 1.0, 5.0])
        cfg = tmp_path / "unit.cfg"
        cfg.write_text("capacity_kwh = 1\nrate_kw = 1\nwindow_hours = 1\n")
        code = run(["oracle", "--prices", prices, "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "4.0" in out
        assert "2 hours" in out

    def test_flat_prices_worth_nothing(self, tmp_path, capsys, clean_env):
        prices = write_series_csv(tmp_path / "flat.csv", [2.0] * 30)
        assert run(["oracle", "--prices", prices]) == 0
        assert "0.0" in capsys.readouterr().out

    @pytest.mark.parametrize("values", [[1e308, -1e308, 1e308, 1.0], [0.0, 1e308, 0.0, 1e308, 0.0]])
    def test_overflowing_prices_are_an_error(self, values, tmp_path, capsys, clean_env):
        prices = write_series_csv(tmp_path / "huge.csv", values)
        assert run(["oracle", "--prices", prices]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: hindsight value at hour")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["oracle", "train"])
    def test_too_many_charge_levels_is_an_error(self, command, tmp_path, capsys, clean_env):
        # the level closure once gave up with a RuntimeError and a traceback
        prices = write_series_csv(tmp_path / "p.csv", [1.0, 2.0, 3.0] * 8)
        out_dir = ["--out-dir", str(tmp_path)] if command == "train" else []
        assert run([command, "--prices", prices, "--capacity-kwh", "100000", "--rate-kw", "1", *out_dir]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: a 100000 kWh battery at 1 kW has more than 10,000 charge levels\n"


class TestTrainCommand:
    def test_overflowing_prices_are_an_error(self, tmp_path, capsys, clean_env):
        # the mean of these prices overflows, so no normalizer fits them
        prices = write_series_csv(tmp_path / "huge.csv", [1e308, -1e308, 1e308, 1.0] * 12)
        assert run(["train", "--prices", prices, "--out-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: price mean is not finite")
        assert "Traceback" not in captured.err

    def test_overflowing_price_spread_is_an_error(self, tmp_path, capsys, clean_env):
        # the mean is 0, but the squared deviations overflow; once the spread
        # fell back to 1.0 and the loss overflowed with RuntimeWarnings
        prices = write_series_csv(tmp_path / "wide.csv", [1e307, -1e307] * 24)
        assert run(["train", "--prices", prices, "--out-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: price spread is not finite")
        assert "RuntimeWarning" not in captured.err
        assert "Traceback" not in captured.err

    def test_huge_prices_train_without_warnings(self, tmp_path, capsys, clean_env):
        # once the Huber loss squared every TD error, also those it discarded,
        # and overflowed with a RuntimeWarning
        prices = write_series_csv(tmp_path / "huge.csv", [1e153, -1e153] * 24)
        flags = ["--steps", "300", "--eval-every", "100", "--learning-starts", "32", "--update-every", "1"]
        assert run(["train", "--prices", prices, "--out-dir", str(tmp_path / "out"), *flags]) == 0
        assert capsys.readouterr().err == ""


class TestPriceCsvErrors:
    @pytest.mark.parametrize(
        "rows, cited",
        [
            (["2021-01-01T00:00:00Z,1.0", "2021-01-01T02:00:00Z,2.0"], "row 3: 2021-01-01T02:00:00Z"),
            # no stamp after the last hour of year 9999 can be written
            (["9999-12-31T23:00:00Z,1.0", "0001-01-01T00:00:00Z,2.0"], "row 3: 0001-01-01T00:00:00Z"),
        ],
        ids=["gap", "past-year-9999"],
    )
    def test_hours_that_do_not_step_by_one_are_an_error(self, rows, cited, tmp_path, capsys, clean_env):
        path = tmp_path / "prices.csv"
        path.write_text("hour_start_utc,price_cents_per_kwh\n" + "".join(r + "\n" for r in rows))
        assert run(["oracle", "--prices", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert cited in captured.err
        assert "Traceback" not in captured.err


class TestConfigPrecedence:
    def parse(self, argv):
        return _build_parser().parse_args(argv)

    def test_flag_beats_file_beats_default(self, tmp_path, clean_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("capacity_kwh = 7.5\nseed = 4\n# a comment\n; another\n")
        args = self.parse(
            ["train", "--prices", "x.csv", "--config", str(cfg), "--capacity-kwh", "9.0"]
        )
        merged = _assemble(args)
        assert merged.battery.capacity_kwh == 9.0
        assert merged.seed == 4
        assert merged.battery.rate_kw == 5.0

    def test_defaults_without_file(self, clean_env):
        merged = _assemble(self.parse(["train", "--prices", "x.csv"]))
        assert merged.battery.capacity_kwh == 13.5
        assert merged.battery.window_hours == 48
        assert merged.steps == 200_000
        assert merged.years == (2015, 2016, 2017, 2018, 2019)

    def test_years_parsed_from_file(self, tmp_path, clean_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("years = 2016,2017\n")
        merged = _assemble(self.parse(["fetch", "--config", str(cfg)]))
        assert merged.years == (2016, 2017)

    def test_unknown_key_rejected(self, tmp_path, capsys, clean_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("capacity = 7\n")
        code = run(["oracle", "--prices", "x.csv", "--config", str(cfg)])
        assert code == 1
        assert "capacity" in capsys.readouterr().err

    def test_malformed_line_cites_number(self, tmp_path, capsys, clean_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("capacity_kwh = 7\njust words\n")
        assert run(["oracle", "--prices", "x.csv", "--config", str(cfg)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys, clean_env):
        assert run(["oracle", "--prices", "x.csv", "--config", str(tmp_path / "no.cfg")]) == 1
        assert "no.cfg" in capsys.readouterr().err


#: Every config key with its attribute path in RunConfig, a non-default value
#: as written in a config file or on the command line, that value parsed, and
#: the subcommand whose parser has its flag (None: the key has no flag).
KNOBS = {
    "capacity_kwh": ("battery.capacity_kwh", "7.5", 7.5, "oracle"),
    "rate_kw": ("battery.rate_kw", "2.5", 2.5, "oracle"),
    "window_hours": ("battery.window_hours", "6", 6, "oracle"),
    "gamma": ("hyper.gamma", "0.5", 0.5, "train"),
    "learning_rate": ("hyper.learning_rate", "0.002", 0.002, "train"),
    "batch_size": ("hyper.batch_size", "16", 16, "train"),
    "buffer_capacity": ("hyper.buffer_capacity", "500", 500, "train"),
    "learning_starts": ("hyper.learning_starts", "7", 7, "train"),
    "update_every": ("hyper.update_every", "3", 3, "train"),
    "target_sync_every": ("hyper.target_sync_every", "50", 50, "train"),
    "epsilon_start": ("hyper.epsilon_start", "0.5", 0.5, "train"),
    "epsilon_end": ("hyper.epsilon_end", "0.01", 0.01, "train"),
    "epsilon_decay_fraction": ("hyper.epsilon_decay_fraction", "0.3", 0.3, "train"),
    "steps": ("steps", "400", 400, "train"),
    "eval_every": ("eval_every", "40", 40, "train"),
    "seed": ("seed", "9", 9, "train"),
    "years": ("years", "2016,2018", (2016, 2018), None),
    "endpoint": ("endpoint", "https://feed.test/api", "https://feed.test/api", "fetch"),
    "data_dir": ("data_dir", "cache-dir", Path("cache-dir"), "fetch"),
    "out_dir": ("out_dir", "results", Path("results"), "train"),
}

#: The options of each subcommand: a flag is on the subcommands that read its
#: field. The battery flags are on train and oracle; eval and cross-test take
#: the battery from checkpoint metadata.
COMMON_FLAGS = {"-h", "--help", "--config"}
BATTERY_FLAGS = {"--capacity-kwh", "--rate-kw", "--window-hours"}
SUBCOMMAND_FLAGS = {
    "fetch": COMMON_FLAGS | {"--data-dir", "--year", "--force", "--endpoint"},
    "train": COMMON_FLAGS | BATTERY_FLAGS | {
        "--out-dir", "--prices", "--steps", "--eval-every", "--seed", "--gamma", "--learning-rate",
        "--batch-size", "--buffer-capacity", "--learning-starts", "--update-every",
        "--target-sync-every", "--epsilon-start", "--epsilon-end", "--epsilon-decay-fraction",
    },
    "eval": COMMON_FLAGS | {"--out-dir", "--checkpoint", "--prices", "--day"},
    "cross-test": COMMON_FLAGS | {"--out-dir", "--manifest"},
    "oracle": COMMON_FLAGS | BATTERY_FLAGS | {"--prices"},
    "plot": COMMON_FLAGS | {"--in"},
}

#: Required arguments of the subcommands the knob tests parse.
REQUIRED = {"fetch": [], "train": ["--prices", "x.csv"], "oracle": ["--prices", "x.csv"]}


def subcommand_parsers():
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def resolve(obj, dotted):
    for name in dotted.split("."):
        obj = getattr(obj, name)
    return obj


def leaf_paths(cls, prefix=""):
    out = []
    for f in dataclasses.fields(cls):
        default = getattr(cls(), f.name)
        if dataclasses.is_dataclass(default):
            out += leaf_paths(type(default), f"{prefix}{f.name}.")
        else:
            out.append(prefix + f.name)
    return out


class TestKnobs:
    """Each knob is declared once, in its dataclass; keys and flags follow from it."""

    def test_table_covers_every_leaf_field(self):
        expected = (
            [f"battery.{p}" for p in leaf_paths(BatteryConfig)]
            + [f"hyper.{p}" for p in leaf_paths(Hyperparams)]
            + [f.name for f in dataclasses.fields(RunConfig) if f.name not in ("battery", "hyper")]
        )
        assert sorted(path for path, *_ in KNOBS.values()) == sorted(expected)
        assert set(_KNOBS) == set(KNOBS)

    def test_each_key_is_its_field_name(self):
        for key, (path, *_) in _KNOBS.items():
            assert key == path[-1]

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_flag_set_of_each_subcommand(self, command):
        flags = {s for a in subcommand_parsers()[command]._actions for s in a.option_strings}
        assert flags == SUBCOMMAND_FLAGS[command]

    @pytest.mark.parametrize("key", sorted(KNOBS))
    def test_default_comes_from_the_dataclass(self, key, clean_env):
        path = KNOBS[key][0]
        section, _, rest = path.partition(".")
        owner = {"battery": BatteryConfig(), "hyper": Hyperparams()}.get(section)
        default = resolve(owner, rest) if owner is not None else getattr(RunConfig(), path)
        merged = _assemble(_build_parser().parse_args(["train"] + REQUIRED["train"]))
        assert resolve(merged, path) == default
        assert default != KNOBS[key][2]

    @pytest.mark.parametrize("key", sorted(KNOBS))
    def test_config_key_sets_the_field(self, key, tmp_path, clean_env):
        path, text, value, _ = KNOBS[key]
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"{key} = {text}\n")
        args = _build_parser().parse_args(["train"] + REQUIRED["train"] + ["--config", str(cfg)])
        assert resolve(_assemble(args), path) == value

    @pytest.mark.parametrize("key", sorted(k for k, knob in KNOBS.items() if knob[3]))
    def test_flag_sets_the_field(self, key, clean_env):
        path, text, value, command = KNOBS[key]
        flag = "--" + key.replace("_", "-")
        args = _build_parser().parse_args([command] + REQUIRED[command] + [flag, text])
        assert resolve(_assemble(args), path) == value


class TestKnobErrors:
    """Bad exploration or learning-rate settings exit 1 before any training."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon-end", "2"],
            ["--epsilon-decay-fraction", "0"],
            ["--epsilon-start", "2"],  # once accepted, then failed in select_action
            ["--epsilon-end", "-0.5"],
            ["--learning-rate", "nan"],  # once exited 0 when no update ran
            ["--batch-size", "64", "--buffer-capacity", "32"],  # once exited 0 with no update
        ],
    )
    def test_train_flag(self, tmp_path, capsys, clean_env, flags):
        prices = wave_csv(tmp_path / "p.csv")
        out_dir = tmp_path / "out"
        argv = ["train", "--prices", prices, "--out-dir", str(out_dir), "--steps", "48"]
        code = run(argv + ["--eval-every", "24", "--learning-starts", "100"] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_config_epsilon_start_on_oracle(self, tmp_path, capsys, clean_env):
        prices = wave_csv(tmp_path / "p.csv")
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("epsilon_start = 0.01\n")
        code = run(["oracle", "--prices", prices, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "epsilon" in captured.err
        assert captured.out == ""

    def test_config_that_is_not_utf8(self, tmp_path, capsys, clean_env):
        # read_text raised UnicodeDecodeError out of run, a traceback
        prices = write_series_csv(tmp_path / "p.csv", [1.0, 2.0])
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# caf\xe9\ncapacity_kwh = 4\n")
        code = run(["oracle", "--prices", prices, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {cfg}: not UTF-8 text")
        assert captured.out == ""


class TestFlagsWhereRead:
    """A flag exists only on the subcommands that read its field; the file keys stay everywhere."""

    #: arguments that fail before any work if a flag is wrongly accepted (2020 needs --force)
    ARGS = {
        "fetch": ["--year", "2020"],
        "train": ["--prices", "x.csv"],
        "eval": ["--checkpoint", "a.ckpt", "--prices", "x.csv"],
        "cross-test": ["--manifest", "m.csv"],
        "oracle": ["--prices", "x.csv"],
        "plot": ["--in", "results"],
    }
    #: each flag with the subcommands that lack it
    LACKING = {
        **dict.fromkeys(sorted(BATTERY_FLAGS), ("fetch", "eval", "cross-test", "plot")),
        "--data-dir": ("train", "eval", "cross-test", "oracle", "plot"),
        "--out-dir": ("fetch", "oracle", "plot"),
    }

    @pytest.mark.parametrize("flag, command", [(f, c) for f, commands in LACKING.items() for c in commands])
    def test_flag_is_a_usage_error(self, command, flag, capsys, clean_env):
        assert run([command, *self.ARGS[command], flag, "99"]) == 2
        assert f"unrecognized arguments: {flag} 99" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_config_keys_still_accepted(self, command, tmp_path, clean_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("capacity_kwh = 99\nrate_kw = 9\nwindow_hours = 7\ndata_dir = cache\nout_dir = results\n")
        merged = _assemble(_build_parser().parse_args([command, *self.ARGS[command], "--config", str(cfg)]))
        assert merged.battery == BatteryConfig(99.0, 9.0, 7)
        assert (merged.data_dir, merged.out_dir) == (Path("cache"), Path("results"))


class TestDataDirPrecedence:
    def parse(self, argv):
        return _build_parser().parse_args(argv)

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTP_ARB_DATA_DIR", str(tmp_path / "env"))
        args = self.parse(["fetch", "--data-dir", str(tmp_path / "flag")])
        assert _assemble(args).data_dir == tmp_path / "flag"

    def test_env_beats_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RTP_ARB_DATA_DIR", str(tmp_path / "env"))
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'file'}\n")
        args = self.parse(["fetch", "--config", str(cfg)])
        assert _assemble(args).data_dir == tmp_path / "env"

    def test_file_beats_default(self, tmp_path, clean_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'file'}\n")
        args = self.parse(["fetch", "--config", str(cfg)])
        assert _assemble(args).data_dir == tmp_path / "file"

    def test_builtin_default(self, clean_env):
        args = self.parse(["fetch"])
        assert _assemble(args).data_dir == Path.home() / ".local" / "share" / "rtp-arb"


class TestFetchCommand:
    def test_excluded_year_needs_force(self, tmp_path, capsys, clean_env):
        code = run(["fetch", "--year", "2020", "--data-dir", str(tmp_path)])
        assert code == 1
        assert "--force" in capsys.readouterr().err

    def test_no_years_configured(self, tmp_path, capsys, clean_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("years =\n")
        assert run(["fetch", "--config", str(cfg), "--data-dir", str(tmp_path)]) == 1
        assert "nothing to fetch" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("year", [-5, 0, 1, 9999, 10**20])
    def test_year_out_of_range(self, how, year, tmp_path, capsys, clean_env, monkeypatch):
        # datetime(year, ...) or the feed zone's first local hour raised
        # ValueError or OverflowError, after the cache dir was made
        monkeypatch.setattr("rtp_arb.cli.fetch_five_minute_feed", None)  # never reached
        cache = tmp_path / "cache"
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"years = 2019, {year}\n")
        argv = ["--year", str(year)] if how == "flag" else ["--config", str(cfg)]
        assert run(["fetch", *argv, "--data-dir", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: year {year} is outside the years 2-9998 that can be fetched\n"
        assert not cache.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("year", ["1_0", "\u0662\u0660\u0662\u0661", "2021.0", "0x7e5", "\t2021"])
    def test_year_as_no_writer_writes_it(self, how, year, tmp_path, capsys, clean_env, monkeypatch):
        # int() read 1_0 as year 10 and the Arabic-Indic digits as 2021
        monkeypatch.setattr("rtp_arb.cli.fetch_five_minute_feed", None)  # never reached
        cache = tmp_path / "cache"
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"years = 2019, {year}\n", encoding="utf-8")
        argv = ["--year", year] if how == "flag" else ["--config", str(cfg)]
        code = run(["fetch", *argv, "--data-dir", str(cache)])
        err = capsys.readouterr().err
        assert code == (2 if how == "flag" else 1)
        assert "error:" in err and "Traceback" not in err
        assert repr(year) in err
        assert not cache.exists()

    @pytest.mark.parametrize("text", ["2019, 2020", "2019,2020", " 2019 ,  2020 ", "2019,2020,", ",2019,,2020"])
    def test_years_key_as_written_by_hand(self, text, tmp_path, clean_env):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"years = {text}\n")
        args = _build_parser().parse_args(["fetch", "--config", str(cfg)])
        assert _assemble(args).years == (2019, 2020)

    @pytest.mark.parametrize("year", [2, 9998])
    def test_first_and_last_fetchable_years(self, year, tmp_path, capsys, clean_env, monkeypatch):
        # the real fetch and its day chunks, on a transport with no records
        feed = functools.partial(fetch_five_minute_feed, http_get=lambda url: "[]")
        monkeypatch.setattr("rtp_arb.cli.fetch_five_minute_feed", feed)
        assert run(["fetch", "--year", str(year), "--data-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: no samples to aggregate\n"

    def test_fetch_writes_cache(self, tmp_path, capsys, clean_env, monkeypatch):
        def fake_feed(start, end, endpoint):
            assert endpoint == "https://feed.test/api"
            pairs = [(start + timedelta(minutes=5 * i), float(i // 12 % 24)) for i in range(48 * 12)]
            return feed_columns(pairs)

        monkeypatch.setattr("rtp_arb.cli.fetch_five_minute_feed", fake_feed)
        code = run(
            [
                "fetch",
                "--year",
                "2018",
                "--data-dir",
                str(tmp_path / "cache"),
                "--endpoint",
                "https://feed.test/api",
            ]
        )
        assert code == 0
        out_path = tmp_path / "cache" / "comed_2018.csv"
        assert out_path.exists()
        assert "2018: 48 hours" in capsys.readouterr().out
        from rtp_arb import read_price_csv

        series = read_price_csv(out_path)
        assert len(series) == 48
        assert series.prices[3] == 3.0

    @pytest.mark.parametrize("millis", ["253402300800000", "-99999999999999", "99999999999999999999"])
    def test_feed_stamp_out_of_range_is_an_error(self, millis, tmp_path, capsys, clean_env, monkeypatch):
        # the real fetch, on a transport that answers every day with one record
        body = json.dumps([{"millisUTC": millis, "price": "3.0"}])
        feed = functools.partial(fetch_five_minute_feed, http_get=lambda url: body)
        monkeypatch.setattr("rtp_arb.cli.fetch_five_minute_feed", feed)
        assert run(["fetch", "--year", "2019", "--data-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "comed_2019.csv").exists()


class TestWorkflow:
    TRAIN_FLAGS = [
        "--window-hours", "4",
        "--capacity-kwh", "4",
        "--rate-kw", "2",
        "--steps", "60",
        "--eval-every", "30",
        "--learning-starts", "8",
        "--update-every", "2",
        "--batch-size", "8",
        "--buffer-capacity", "64",
    ]

    def train(self, tmp_path, year, out_dir):
        prices = wave_csv(tmp_path / f"y{year}.csv", year=year)
        code = run(
            ["train", "--prices", prices, "--out-dir", str(out_dir), "--seed", "1"]
            + self.TRAIN_FLAGS
        )
        return code, prices

    def test_train_eval_cross_test_plot(self, tmp_path, capsys, clean_env):
        out_dir = tmp_path / "out"
        code, prices_2021 = self.train(tmp_path, 2021, out_dir)
        assert code == 0
        out = capsys.readouterr().out
        assert "trained on 2021" in out
        assert (out_dir / "agent_2021.ckpt").exists()
        assert (out_dir / "training_curves.csv").exists()
        assert (out_dir / "training_curves.svg").exists()

        code, prices_2022 = self.train(tmp_path, 2022, out_dir)
        assert code == 0
        capsys.readouterr()
        merged = (out_dir / "training_curves.csv").read_text()
        assert "2021," in merged and "2022," in merged

        code = run(
            [
                "eval",
                "--checkpoint",
                str(out_dir / "agent_2021.ckpt"),
                "--prices",
                prices_2021,
                "--day",
                "2021-01-02",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy return" in out
        daily = (out_dir / "daily_policy.csv").read_text().rstrip("\n").split("\n")
        assert len(daily) == 25
        assert (out_dir / "daily_policy.svg").exists()

        manifest = out_dir / "manifest.csv"
        manifest.write_text(
            "year,checkpoint_path,prices_path\n"
            f"2021,agent_2021.ckpt,{Path(prices_2021).name}\n"
            f"2022,agent_2022.ckpt,{Path(prices_2022).name}\n"
        )
        (out_dir / Path(prices_2021).name).write_text(Path(prices_2021).read_text())
        (out_dir / Path(prices_2022).name).write_text(Path(prices_2022).read_text())
        code = run(["cross-test", "--manifest", str(manifest), "--out-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "raw returns" in out
        ct = (out_dir / "cross_test.csv").read_text().rstrip("\n").split("\n")
        assert len(ct) == 1 + 4

        # plot re-renders each chart from its CSV alone, byte for byte
        names = ("training_curves.svg", "cross_test.svg", "daily_policy.svg")
        svgs = {name: (out_dir / name).read_bytes() for name in names}
        for name in names:
            (out_dir / name).unlink()
        code = run(["plot", "--in", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "".join(f"wrote {out_dir / name}\n" for name in svgs)
        for name, before in svgs.items():
            assert (out_dir / name).read_bytes() == before, name

    def test_train_reads_earlier_curves_before_training(self, tmp_path, capsys, clean_env):
        # a malformed curves file in the output directory once failed the
        # command only after the whole run, throwing the new curve away
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        curves = out_dir / "training_curves.csv"
        curves.write_text("year,step,greedy_return_cents\n2020,0,nan\n")
        code, _ = self.train(tmp_path, 2021, out_dir)
        captured = capsys.readouterr()
        assert code == 1
        assert f"{curves}: row 2" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in out_dir.iterdir()) == ["training_curves.csv"]
        assert curves.read_text() == "year,step,greedy_return_cents\n2020,0,nan\n"

    def test_eval_day_rolls_the_year_out_once(self, tmp_path, capsys, clean_env, monkeypatch):
        out_dir, ref_dir = tmp_path / "out", tmp_path / "ref"
        code, prices = self.train(tmp_path, 2021, out_dir)
        assert code == 0
        ckpt = load_checkpoint(out_dir / "agent_2021.ckpt")
        series = read_price_csv(prices)
        config = checkpoint_config(ckpt)
        ret = evaluate_greedy(ckpt, series, config)
        trace = daily_policy_trace(series, date(2021, 1, 2), experiment.greedy_rollout(ckpt.net, ckpt.norm, series, config))
        emit_outputs(None, None, ref_dir, trace)

        calls = []
        rollout = experiment.greedy_rollout

        def counted(*args):
            calls.append(args)
            return rollout(*args)

        monkeypatch.setattr(experiment, "greedy_rollout", counted)
        monkeypatch.setattr(cli, "greedy_rollout", counted)
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(out_dir / "agent_2021.ckpt"), "--prices", prices]
        assert run(argv + ["--day", "2021-01-02", "--out-dir", str(out_dir)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith(f"greedy return on {prices}: {ret:.1f} cents (")
        for name in ("daily_policy.csv", "daily_policy.svg"):
            assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name

    def test_eval_rejects_bad_day(self, tmp_path, capsys, clean_env):
        out_dir = tmp_path / "out"
        code, prices = self.train(tmp_path, 2021, out_dir)
        assert code == 0
        argv = ["eval", "--checkpoint", str(out_dir / "agent_2021.ckpt"), "--prices", prices, "--out-dir", str(out_dir)]
        # then 2021-01-02, a day of the series, in the spellings that Python
        # 3.11's date.fromisoformat also reads, and with Arabic-Indic digits
        for day in ["January 2", "20210102", "2020W536", "2020-W53-6", "\u0662\u0660\u0662\u0661-01-02"]:
            capsys.readouterr()
            assert run(argv + ["--day", day]) == 1
            assert capsys.readouterr().err == f"error: --day must be YYYY-MM-DD, got {day!r}\n"
            assert not (out_dir / "daily_policy.csv").exists()


class TestManifestAndPlotErrors:
    def test_missing_manifest(self, tmp_path, capsys, clean_env):
        assert run(["cross-test", "--manifest", str(tmp_path / "m.csv")]) == 1
        assert "m.csv" in capsys.readouterr().err

    def test_manifest_bad_header(self, tmp_path, capsys, clean_env):
        m = tmp_path / "m.csv"
        m.write_text("year,ckpt,prices\n")
        assert run(["cross-test", "--manifest", str(m)]) == 1
        assert "row 1" in capsys.readouterr().err

    def test_manifest_bad_year(self, tmp_path, capsys, clean_env):
        m = tmp_path / "m.csv"
        m.write_text("year,checkpoint_path,prices_path\ntwenty,a.ckpt,p.csv\n")
        with pytest.raises(ValidationError, match="row 2: bad year"):
            _read_manifest(m)
        assert run(["cross-test", "--manifest", str(m)]) == 1
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("year", ["1_0", " 2021 ", "\u0662\u0660\u0662\u0661", "2021.0", ""])
    def test_manifest_year_as_no_writer_writes_it(self, year, tmp_path, capsys, clean_env):
        # int() read 1_0 as year 10, and " 2021 " and the Arabic-Indic digits as 2021
        m = tmp_path / "m.csv"
        m.write_text(f"year,checkpoint_path,prices_path\n{year},a.ckpt,p.csv\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"row 2: bad year {year!r}"):
            _read_manifest(m)
        assert run(["cross-test", "--manifest", str(m)]) == 1
        assert f"row 2: bad year {year!r}" in capsys.readouterr().err

    def test_manifest_duplicate_year(self, tmp_path, capsys, clean_env):
        # a later row for 2017 once replaced the first, so agent 2018 was
        # cross-tested against itself under the name 2017
        m = tmp_path / "m.csv"
        m.write_text(
            "year,checkpoint_path,prices_path\n"
            "2017,a2017.ckpt,p2017.csv\n"
            "2018,a2018.ckpt,p2018.csv\n"
            "2017,a2018.ckpt,p2018.csv\n"
        )
        with pytest.raises(ValidationError, match="row 4: year 2017 is listed twice"):
            _read_manifest(m)
        assert run(["cross-test", "--manifest", str(m)]) == 1
        assert "row 4: year 2017" in capsys.readouterr().err

    def test_plot_missing_dir(self, tmp_path, capsys, clean_env):
        assert run(["plot", "--in", str(tmp_path / "nope")]) == 1
        assert "nope" in capsys.readouterr().err

    def test_plot_empty_dir(self, tmp_path, capsys, clean_env):
        d = tmp_path / "empty"
        d.mkdir()
        assert run(["plot", "--in", str(d)]) == 1
        assert "no result CSVs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text",
        [
            # header only: once a traceback from charts (nothing to plot)
            pytest.param("training_curves.csv", "year,step,greedy_return_cents\n", id="curves-header-only"),
            pytest.param("cross_test.csv", "agent_year,test_year,raw_return_cents,normalized\n", id="cross-header-only"),
            # once drawn as points="70.0,nan 610.0,nan" with exit 0
            pytest.param("training_curves.csv", "year,step,greedy_return_cents\n2017,0,nan\n", id="curves-nan"),
            # once cited neither the file nor the row
            pytest.param("training_curves.csv", "year,step,greedy_return_cents\n2017,10,1.0\n2017,0,2.0\n", id="curves-wrong-start"),
        ],
    )
    def test_plot_rejects_rows_no_writer_writes(self, tmp_path, capsys, clean_env, name, text):
        (tmp_path / name).write_text(text)
        assert run(["plot", "--in", str(tmp_path)]) == 1
        assert "row 2" in capsys.readouterr().err
        assert not (tmp_path / name).with_suffix(".svg").exists()

    @pytest.mark.parametrize(
        "name, rows",
        [
            # once rendered with exit 0: hours of two days, out of order
            pytest.param(
                "daily_policy.csv",
                ["hour_start_utc,price_cents_per_kwh,action,charge_kwh_after"]
                + [f"2021-01-0{1 + h // 12}T{(h + 12) % 24:02d}:00:00Z,2.0,idle,0.0" for h in (0, 2, 1, *range(3, 24))],
                id="daily-shuffled-hours",
            ),
            # once rendered with exit 0: 7.5 where raw over diagonal is 0.5
            pytest.param(
                "cross_test.csv",
                ["agent_year,test_year,raw_return_cents,normalized", "2016,2016,10.0,1.0",
                 "2016,2017,5.0,7.5", "2017,2016,8.0,0.8", "2017,2017,10.0,1.0"],
                id="cross-normalized-not-derived",
            ),
        ],
    )
    def test_plot_rejects_rows_that_contradict_the_others(self, tmp_path, capsys, clean_env, name, rows):
        (tmp_path / name).write_text("".join(r + "\n" for r in rows))
        assert run(["plot", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / name).with_suffix(".svg").exists()

    @pytest.mark.parametrize("existing", [None, b"<svg>an older chart</svg>\n"], ids=["no-chart", "old-chart"])
    def test_plot_reads_every_csv_before_writing_a_chart(self, tmp_path, capsys, clean_env, existing):
        (tmp_path / "training_curves.csv").write_text(
            "year,step,greedy_return_cents\n2017,0,1.0\n2017,10,2.0\n"
        )
        (tmp_path / "cross_test.csv").write_text("agent_year,test_year,raw_return_cents,normalized\n")
        chart = tmp_path / "training_curves.svg"
        if existing is not None:
            chart.write_bytes(existing)
        assert run(["plot", "--in", str(tmp_path)]) == 1
        assert "row 2" in capsys.readouterr().err
        if existing is None:
            assert not chart.exists()
        else:
            assert chart.read_bytes() == existing


class TestGreedyReturnOverflow:
    """Prices whose rewards leave the float range while every Q-value stays
    finite: greedy evaluation once returned NaN or inf, which ``eval``
    printed as "nan cents" and ``cross-test`` wrote into its CSV, exiting 0."""

    @staticmethod
    def always_charging_checkpoint(path):
        # an agent trained at a price scale of 1e150, whose zero output
        # weights and biases pick the first action, charge, at every hour
        net = init_network(4, seed=0, hidden_dims=(8,))
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = [1.0, 0.0, 0.0]
        norm = ObservationNormalizer(0.0, 1e150, 4.0)
        save_checkpoint(net, AdamState.for_network(net), norm, TestMalformedCheckpoints.BATTERY, path)
        return str(path)

    # the first step is past the float range, so the empty level's reward is
    # 0.0 * -inf; the second has finite steps, but the full level's rewards
    # overflow
    SERIES = pytest.mark.parametrize("values", [[1e308, -1e308] * 24, [8e307, -8e307] * 24], ids=["inf-step", "finite-step"])
    MESSAGE = "error: greedy return is not finite: prices beyond float range\n"

    @SERIES
    def test_eval(self, values, tmp_path, capsys, clean_env):
        ckpt = self.always_charging_checkpoint(tmp_path / "agent.ckpt")
        prices = write_series_csv(tmp_path / "p.csv", values)
        assert run(["eval", "--checkpoint", ckpt, "--prices", prices]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.MESSAGE

    @SERIES
    def test_cross_test(self, values, tmp_path, capsys, clean_env):
        self.always_charging_checkpoint(tmp_path / "agent.ckpt")
        rows = ["year,checkpoint_path,prices_path"]
        for year in (2021, 2022):
            write_series_csv(tmp_path / f"p{year}.csv", values, year)
            rows.append(f"{year},agent.ckpt,p{year}.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "out"
        assert run(["cross-test", "--manifest", str(manifest), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.MESSAGE
        assert not (out_dir / "cross_test.csv").exists()


class TestMalformedCheckpoints:
    """Hand-made checkpoints that once escaped as tracebacks exit 1 with a message."""

    BATTERY = {"capacity_kwh": 4.0, "rate_kw": 2.0, "window_hours": 4}

    def eval_checkpoint(self, tmp_path, capsys, net, metadata=None, layer_dims=None):
        path = tmp_path / "agent.ckpt"
        norm = ObservationNormalizer(0.0, 1.0, 1.0)
        save_checkpoint(net, AdamState.for_network(net), norm, metadata or self.BATTERY, path)
        if layer_dims is not None:
            blob = path.read_bytes()
            off = len(CHECKPOINT_MAGIC)
            version, header_len = struct.unpack_from("<II", blob, off)
            header = json.loads(blob[off + 8 : off + 8 + header_len])
            header["layer_dims"] = layer_dims
            new = json.dumps(header).encode("utf-8")
            path.write_bytes(
                blob[:off] + struct.pack("<II", version, len(new)) + new
                + blob[off + 8 + header_len :]
            )
        prices = wave_csv(tmp_path / "p.csv")
        code = run(["eval", "--checkpoint", str(path), "--prices", prices])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("dims", [[], [5], [5, -64, 3], [5, 0, 3], [5, 8, 2]])
    def test_bad_layer_dims(self, tmp_path, capsys, clean_env, dims):
        net = init_network(4, seed=0, hidden_dims=(8,))
        code, err = self.eval_checkpoint(tmp_path, capsys, net, layer_dims=dims)
        assert code == 1
        assert "error:" in err and "layer dims" in err

    def test_output_width_must_match_actions(self, tmp_path, capsys, clean_env):
        # an argmax of 3 has no action; such a file must not load at all
        net = QNetwork([np.zeros((5, 4))], [np.array([0.0, 0.0, 0.0, 1.0])])
        code, err = self.eval_checkpoint(tmp_path, capsys, net)
        assert code == 1
        assert "layer dims [5, 4]" in err

    @pytest.mark.parametrize("window", ["x", None, [4]])
    def test_malformed_battery_metadata(self, tmp_path, capsys, clean_env, window):
        net = init_network(4, seed=0, hidden_dims=(8,))
        metadata = dict(self.BATTERY, window_hours=window)
        code, err = self.eval_checkpoint(tmp_path, capsys, net, metadata=metadata)
        assert code == 1
        assert "error: checkpoint metadata has a malformed battery field" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacity_kwh", True),  # float() would read a 1 kWh battery
            ("capacity_kwh", "4.0"),
            ("rate_kw", 10**400),  # float() would raise OverflowError
            ("window_hours", 4.9),  # int() would read 4
            ("window_hours", 4.0),
            ("window_hours", True),
        ],
    )
    def test_battery_numbers_only_as_the_writer_writes_them(self, tmp_path, capsys, clean_env, field, value):
        net = init_network(4, seed=0, hidden_dims=(8,))
        metadata = dict(self.BATTERY, **{field: value})
        code, err = self.eval_checkpoint(tmp_path, capsys, net, metadata=metadata)
        assert code == 1
        assert err.startswith(f"error: checkpoint metadata has a malformed battery field: {field} ")

    def test_battery_floats_may_be_json_integers(self, tmp_path, capsys, clean_env):
        net = init_network(4, seed=0, hidden_dims=(8,))
        metadata = dict(self.BATTERY, capacity_kwh=4, rate_kw=2)
        code, _ = self.eval_checkpoint(tmp_path, capsys, net, metadata=metadata)
        assert code == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter(self, tmp_path, capsys, clean_env, value):
        # a NaN weight once evaluated to "greedy return ... cents" with exit 0
        net = init_network(4, seed=0, hidden_dims=(8,))
        net.weights[0][2, 5] = value
        code, err = self.eval_checkpoint(tmp_path, capsys, net)
        assert code == 1
        assert err.startswith("error: ") and "non-finite parameter" in err

    def test_parameter_that_overflows_the_forward(self, tmp_path, capsys, clean_env):
        # a finite weight near the float limit once printed a RuntimeWarning
        # from the matmul and a greedy return from inf and NaN Q-values
        net = init_network(4, seed=0, hidden_dims=(8,))
        net.weights[0][:, :] = 1.7e308
        code, err = self.eval_checkpoint(tmp_path, capsys, net)
        assert code == 1
        assert err == "error: greedy evaluation left the float range: overflow encountered in multiply\n"
