"""Every subcommand end to end on drawn inputs.

Corrupted checkpoints (header bytes, payload bytes, NaN and inf
parameters), manifests with bad paths and years, short price series, config
files with bad keys, values and bytes, corrupted result CSVs, training knobs
(oversized ones among them) on extreme prices, and feed bodies on a stubbed
transport go through ``cli.run``. The only outcomes allowed are exit 0, or
exit 1 or 2 with an ``error:`` line and no traceback: an exception that
escapes ``run`` fails the test as it would end the command in a traceback.
"""

import functools
import itertools
import json
import math
import re
import struct
import xml.etree.ElementTree as ET
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, currently_in_test_context, event, given, settings
from hypothesis import strategies as st

from rtp_arb import (
    AdamState,
    CrossTestMatrix,
    DailyPolicyTrace,
    ObservationNormalizer,
    PriceSeries,
    RtpArbError,
    TrainingCurve,
    charts,
    fetch_five_minute_feed,
    init_network,
    load_checkpoint,
    save_checkpoint,
    write_price_csv,
)
from rtp_arb.cli import _KNOBS, run
from rtp_arb.dqn import CHECKPOINT_MAGIC
from rtp_arb.env import ACTIONS
from rtp_arb.experiment import (
    RESULTS,
    TRAINING_CURVES_CSV,
    checkpoint_config,
    write_cross_test_csv,
    write_training_curves_csv,
)

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

BATTERY = {"capacity_kwh": 4.0, "rate_kw": 2.0, "window_hours": 4}
HEADER_START = len(CHECKPOINT_MAGIC) + 8
#: levels a corrupted header may leave the battery with: a grid of thousands
#: of levels is valid but costs seconds per evaluation
MAX_LEVELS = 64


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("RTP_ARB_DATA_DIR", raising=False)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory) -> bytes:
    net = init_network(BATTERY["window_hours"], seed=0, hidden_dims=(8,))
    opt = AdamState.for_network(net)
    opt.step_count = 7
    path = tmp_path_factory.mktemp("ckpt") / "agent.ckpt"
    save_checkpoint(net, opt, ObservationNormalizer(3.0, 2.0, 4.0), {"year": 2021, **BATTERY}, path)
    return path.read_bytes()


def assert_clean_exit(argv, capsys) -> int:
    code = run(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (code, err)
    if code != 0:
        assert "error:" in err, err
    assert "Traceback" not in err, err
    if currently_in_test_context():  # --hypothesis-show-statistics lists the outcomes
        event(f"exit {code}" + (": " + re.sub(r"\S*/", "", err)[7:47] if code else ""))
    return code


def payload_floats(blob: bytes) -> int:
    return (len(blob) - HEADER_START - struct.unpack_from("<I", blob, HEADER_START - 4)[0]) // 8


def cheap_to_evaluate(path) -> bool:
    """Whether a checkpoint that loads has a battery of a few levels, or does not load."""
    try:
        config = checkpoint_config(load_checkpoint(path))
    except RtpArbError:
        return True
    return config.capacity_kwh / config.rate_kw <= MAX_LEVELS


FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def corrupt_checkpoints(draw, blob: bytes) -> bytes:
    """Byte flips in the header or the payload, payload floats set to drawn
    values (NaN and inf among them), or a cut."""
    header_end = HEADER_START + struct.unpack_from("<I", blob, HEADER_START - 4)[0]
    out = bytearray(blob)
    how = draw(st.sampled_from(["header", "payload", "float", "cut"]))
    if how == "cut":
        return bytes(out[: draw(st.integers(0, len(out) - 1))])
    if how == "float":
        for _ in range(draw(st.integers(1, 4))):
            k = draw(st.integers(0, payload_floats(blob) - 1))
            struct.pack_into("<d", out, header_end + 8 * k, draw(FLOATS))
        return bytes(out)
    lo, hi = (0, header_end) if how == "header" else (header_end, len(out))
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(lo, hi - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


def short_series(year: int = 2021):
    """2 to 200 hourly prices, some of them extreme, from a drawn hour of ``year``."""
    prices = st.lists(
        st.one_of(
            st.floats(-50.0, 50.0),
            st.sampled_from([0.0, -0.0, 1e-300, 1e6, -1e6, 1e150]),
        ),
        min_size=2,
        max_size=200,
    )
    hour = st.integers(0, 364 * 24).map(lambda h: datetime(year, 1, 1, tzinfo=timezone.utc).timestamp() + 3600 * h)
    return st.builds(
        lambda t, p: PriceSeries(datetime.fromtimestamp(t, timezone.utc), p), hour, prices
    )


@FUZZ
@given(data=st.data())
def test_eval_on_a_corrupt_checkpoint(tmp_path, checkpoint_bytes, capsys, data):
    path = tmp_path / "agent.ckpt"
    path.write_bytes(data.draw(corrupt_checkpoints(checkpoint_bytes)))
    assume(cheap_to_evaluate(path))
    prices = tmp_path / "p.csv"
    series = data.draw(short_series())
    write_price_csv(series, prices)
    argv = ["eval", "--checkpoint", str(path), "--prices", str(prices)]
    if data.draw(st.booleans()):
        day = data.draw(st.sampled_from([series.start.date(), datetime(2021, 1, 2).date()]))
        argv += ["--day", day.isoformat(), "--out-dir", str(tmp_path / "out")]
    assert_clean_exit(argv, capsys)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["parameter", "first moment", "second moment"])
def test_eval_on_a_non_finite_payload(tmp_path, checkpoint_bytes, capsys, value, field):
    # a non-finite parameter is an error; a non-finite moment does not touch
    # what eval computes, and a long run can save v = inf
    n = payload_floats(checkpoint_bytes) // 3
    header_end = len(checkpoint_bytes) - 8 * 3 * n
    k = ["parameter", "first moment", "second moment"].index(field) * n + 5
    blob = bytearray(checkpoint_bytes)
    struct.pack_into("<d", blob, header_end + 8 * k, value)
    path = tmp_path / "agent.ckpt"
    path.write_bytes(bytes(blob))
    prices = tmp_path / "p.csv"
    write_price_csv(PriceSeries(datetime(2021, 1, 1, tzinfo=timezone.utc), [1.0, 5.0] * 24), prices)
    code = assert_clean_exit(["eval", "--checkpoint", str(path), "--prices", str(prices)], capsys)
    assert code == (1 if field == "parameter" else 0)


def mostly(good, bad):
    """``good`` about four times in five, else ``bad``."""
    return st.sampled_from([True, True, True, True, False]).flatmap(lambda ok: good if ok else bad)


BAD_YEARS = st.sampled_from(["", "twenty", "1_0", " 2021", "2021 ", "-1", "0", "99999", "2021.0", "\u0662\u0660\u0662\u0661"])
BAD_PATHS = st.sampled_from(["", ".", "missing.ckpt", "sub", "/", "p1.csv/x", "a.ckpt\r", "m.csv"])
CHECKPOINT_PATHS = mostly(st.sampled_from(["a.ckpt", "b.ckpt", "sub/../a.ckpt"]), st.one_of(BAD_PATHS, st.just("p1.csv")))
PRICE_PATHS = mostly(st.sampled_from(["p1.csv", "p2.csv"]), st.one_of(BAD_PATHS, st.just("a.ckpt")))


@st.composite
def manifests(draw) -> str:
    """A header, then 0-4 rows of a year, a checkpoint path and a prices path."""
    header = draw(mostly(st.just("year,checkpoint_path,prices_path"), st.just("year,checkpoint,prices")))
    years = draw(st.permutations(["2021", "2022", "2023", "2021"]))[: draw(st.sampled_from([2, 3, 2, 4, 0, 1]))]
    rows = [(draw(mostly(st.just(y), BAD_YEARS)), draw(CHECKPOINT_PATHS), draw(PRICE_PATHS)) for y in years]
    lines = [header] + [",".join(row) for row in rows]
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(["2021,a.ckpt", "2021,a.ckpt,p1.csv,extra", ""])))
    return "".join(line + "\n" for line in lines)


@FUZZ
@given(data=st.data())
def test_cross_test_on_a_drawn_manifest(tmp_path_factory, checkpoint_bytes, capsys, data):
    d = tmp_path_factory.mktemp("cross")
    (d / "sub").mkdir()
    (d / "a.ckpt").write_bytes(checkpoint_bytes)
    (d / "b.ckpt").write_bytes(data.draw(corrupt_checkpoints(checkpoint_bytes)))
    assume(cheap_to_evaluate(d / "b.ckpt"))
    for name in ("p1.csv", "p2.csv"):
        write_price_csv(data.draw(short_series()), d / name)
    (d / "m.csv").write_text(data.draw(manifests()), encoding="utf-8", newline="")
    assert_clean_exit(["cross-test", "--manifest", str(d / "m.csv"), "--out-dir", str(d / "out")], capsys)


def test_cross_test_of_two_good_years_runs(tmp_path, checkpoint_bytes, capsys):
    # the drawn manifests above reach this case too; here it is certain
    (tmp_path / "a.ckpt").write_bytes(checkpoint_bytes)
    for year in (2021, 2022):
        write_price_csv(PriceSeries(datetime(year, 1, 1, tzinfo=timezone.utc), [1.0, 5.0, 2.0] * 20), tmp_path / f"p{year}.csv")
    (tmp_path / "m.csv").write_text(
        "year,checkpoint_path,prices_path\n2021,a.ckpt,p2021.csv\n2022,a.ckpt,p2022.csv\n", encoding="utf-8"
    )
    assert assert_clean_exit(["cross-test", "--manifest", str(tmp_path / "m.csv"), "--out-dir", str(tmp_path)], capsys) == 0
    assert (tmp_path / "cross_test.csv").exists()


# mostly the battery keys the oracle reads, with values it takes
CONFIG_KEYS = mostly(
    st.sampled_from(["capacity_kwh", "rate_kw", "window_hours"]),
    st.one_of(st.sampled_from(sorted(_KNOBS)), st.sampled_from(["", "capacity", "rate-kw", "CAPACITY_KWH", "years x", "[battery]"])),
)
CONFIG_VALUES = mostly(
    st.sampled_from(["1", "2", "4", "0.5", "9999", "1e-3"]),
    st.sampled_from(["", "0", "-1", "nan", "inf", "1e999", "5e-324", "1e308", "1_0", "\u0663", "9" * 30, "abc", "1,,2", "4  # note"]),
)
#: bytes that are no UTF-8 text where they stand
NOT_UTF8 = st.sampled_from([b"\xe9", b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])


@st.composite
def config_files(draw) -> bytes:
    """0-5 ``key = value`` lines, a comment or a line with no ``=``, maybe a byte that is no UTF-8."""
    lines = [f"{draw(CONFIG_KEYS)} = {draw(CONFIG_VALUES)}" for _ in range(draw(st.integers(0, 5)))]
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# caf", "; x", "capacity_kwh 4", "  "])))
    blob = "\n".join(lines).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(NOT_UTF8) + blob[at:]
    return blob


@FUZZ
@given(data=st.data())
def test_oracle_with_a_drawn_config(tmp_path, capsys, data):
    prices = tmp_path / "p.csv"
    write_price_csv(PriceSeries(datetime(2021, 1, 1, tzinfo=timezone.utc), [1.0, 5.0]), prices)
    cfg = tmp_path / "settings.cfg"
    cfg.write_bytes(data.draw(config_files()))
    assert_clean_exit(["oracle", "--prices", str(prices), "--config", str(cfg)], capsys)


#: returns, steps' values and charges as the writers may write them, extremes among them
RESULT_FLOATS = st.one_of(
    st.floats(-1e4, 1e4),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308]),
)
RESULT_YEARS = st.lists(st.integers(2015, 2024), min_size=1, max_size=3, unique=True)


@st.composite
def training_curves(draw) -> list:
    curves = []
    for year in draw(RESULT_YEARS):
        steps = draw(st.lists(st.integers(1, 10**6) | st.integers(1, 10**400), max_size=4, unique=True))
        curves.append(TrainingCurve(year, tuple((s, draw(RESULT_FLOATS)) for s in [0, *sorted(steps)])))
    return curves


@st.composite
def cross_test_matrices(draw) -> CrossTestMatrix:
    years = tuple(sorted(draw(RESULT_YEARS)))
    raw = draw(st.lists(RESULT_FLOATS, min_size=len(years) ** 2, max_size=len(years) ** 2))
    return CrossTestMatrix(years, np.array(raw).reshape(len(years), len(years)))


@st.composite
def daily_policy_traces(draw) -> DailyPolicyTrace:
    rows = 24 * draw(st.integers(1, 2))
    start = datetime.fromtimestamp(draw(st.integers(0, 10**6)) * 3600, timezone.utc)
    column = st.lists(RESULT_FLOATS, min_size=rows, max_size=rows).map(tuple)
    actions = st.lists(st.sampled_from(ACTIONS), min_size=rows, max_size=rows).map(tuple)
    return DailyPolicyTrace(start, draw(column), draw(actions), draw(column))


#: fields no writer writes, or writes in another column
BAD_FIELDS = st.sampled_from(
    ["", " 1", "1_0", "nan", "inf", "1e999", "0x10", "\u0663", "idle", "CHARGE", "2021-01-01T00:00:00Z", "1,2", "\r"]
)


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """``blob`` as written, or with flipped bytes, a cut, a field or a line replaced, a line repeated or dropped."""
    how = draw(st.sampled_from(["none", "flip", "cut", "field", "repeat", "drop"]))
    if how == "flip":
        out = bytearray(blob)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if how == "cut":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    lines = blob.decode().split("\n")[:-1]
    at = draw(st.integers(0, len(lines) - 1))
    if how == "field":
        fields = lines[at].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(BAD_FIELDS)
        lines[at] = ",".join(fields)
    elif how == "repeat":
        lines.insert(at, lines[at])
    elif how == "drop":
        del lines[at]
    return "".join(line + "\n" for line in lines).encode()


@FUZZ
@given(data=st.data())
def test_plot_on_drawn_result_files(tmp_path_factory, capsys, data):
    d = tmp_path_factory.mktemp("plot")
    results = (training_curves(), cross_test_matrices(), daily_policy_traces())
    for (name, write, _, _), result in zip(RESULTS, results):
        if data.draw(st.booleans(), label=f"with {name}"):
            write(data.draw(result), d / name)
            (d / name).write_bytes(data.draw(corrupted((d / name).read_bytes())))
    if assert_clean_exit(["plot", "--in", str(d)], capsys) == 0:
        for svg in d.glob("*.svg"):
            assert not re.search(rb"\b(nan|inf)\b", svg.read_bytes()), svg.name


def test_plot_of_a_step_beyond_the_float_range(tmp_path, capsys):
    # the fixed case of the fuzz above, whose steps reach past the float range:
    # the charts' float axis once raised OverflowError on it
    curves = [TrainingCurve(2020, ((0, 1.0), (10**400, 2.0)))]
    write_training_curves_csv(curves, tmp_path / TRAINING_CURVES_CSV)
    assert run(["plot", "--in", str(tmp_path)]) == 1
    assert capsys.readouterr().err.endswith("training_curves.csv: row 3: step is beyond the float range\n")
    assert not list(tmp_path.glob("*.svg"))


def test_plot_of_a_constant_subnormal_curve(tmp_path, capsys):
    # found by the test above: the padding of a one-value axis rounded to 0,
    # and the scale divided by the empty span
    write_training_curves_csv([TrainingCurve(2015, ((0, 5e-324),))], tmp_path / TRAINING_CURVES_CSV)
    assert assert_clean_exit(["plot", "--in", str(tmp_path)], capsys) == 0


def assert_inside_the_box(svg_path):
    """Every coordinate of the chart is a finite number inside its WIDTH x HEIGHT box."""
    for el in ET.parse(svg_path).iter():
        xs = [el.get(a) for a in ("x", "x1", "x2") if el.get(a) is not None]
        ys = [el.get(a) for a in ("y", "y1", "y2") if el.get(a) is not None]
        for pair in (el.get("points") or "").split():
            xs.append(pair.split(",")[0])
            ys.append(pair.split(",")[1])
        if el.tag.endswith("rect"):
            xs.append(float(el.get("x")) + float(el.get("width")))
            ys.append(float(el.get("y")) + float(el.get("height")))
        assert all(0.0 <= float(v) <= charts.WIDTH for v in xs), (el.tag, xs)
        assert all(0.0 <= float(v) <= charts.HEIGHT for v in ys), (el.tag, ys)


@pytest.mark.parametrize(
    "render",
    [
        # spans below the float range's resolution and past its end, and a
        # one-value axis whose padding would leave it
        functools.partial(charts.line_chart, [charts.Series("a", [0, 1], [0.0, 5e-324])], "t", "x", "y"),
        functools.partial(charts.line_chart, [charts.Series("a", [0, 1], [2.3e-308, 2.4e-308])], "t", "x", "y"),
        functools.partial(charts.line_chart, [charts.Series("a", [0, 1], [-1.7e308, 1.7e308])], "t", "x", "y"),
        functools.partial(charts.line_chart, [charts.Series("a", [0, 1], [1.7e308, 1.7e308])], "t", "x", "y"),
        functools.partial(charts.bar_chart, ["a", "b"], [1e308, -1e308], "t", "y"),
    ],
)
def test_charts_of_spans_beyond_the_float_range(tmp_path, render):
    render(tmp_path / "c.svg")
    assert_inside_the_box(tmp_path / "c.svg")
    assert not re.search(rb"\b(nan|inf)\b", (tmp_path / "c.svg").read_bytes())


@pytest.mark.parametrize(
    "raw",
    [
        [[5e-324, 1.0], [1.7e308, 1.0]],  # a ratio past the float range: was inf, written blank, read back as NaN
        [[1.0, 1e308, 1e308], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],  # finite cells whose mean overflows
    ],
)
def test_plot_of_normalized_returns_past_the_float_range(tmp_path, capsys, raw):
    write_cross_test_csv(CrossTestMatrix((2021, 2022, 2023)[: len(raw)], np.array(raw)), tmp_path / "cross_test.csv")
    assert assert_clean_exit(["plot", "--in", str(tmp_path)], capsys) == 0


#: 2**60: numpy refuses arrays of that many entries at once, touching no memory
HUGE = str(2**60)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--buffer-capacity", HUGE, f"buffer_capacity {HUGE} is too large: "),
        ("--window-hours", HUGE, f"window_hours {HUGE} is too large: "),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        # the first update sends the net past the float range (found by the fuzz below)
        ("--learning-rate", "1e300", "training left the float range at step 2: overflow"),
    ],
)
def test_train_with_a_knob_out_of_range(tmp_path, capsys, flag, value, message):
    prices = tmp_path / "p.csv"
    write_price_csv(PriceSeries(datetime(2021, 1, 1, tzinfo=timezone.utc), [1.0, 5.0, 2.0]), prices)
    argv = ["train", "--prices", str(prices), "--out-dir", str(tmp_path), "--steps", "10", "--eval-every", "5"]
    code = run(argv + ["--learning-starts", "1", "--update-every", "1", "--batch-size", "1", flag, value])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err, err
    assert err.startswith(f"error: {message}"), err
    assert not list(tmp_path.glob("*.ckpt"))


#: per training knob: cheap working values, and values each of which is
#: wrong or extreme on its own
TRAIN_KNOBS = {
    "--steps": (["64", "128", "16"], ["2", "0", "-5", "1_0"]),
    "--eval-every": (["16", "32", "64"], ["1", "3", "0"]),
    "--window-hours": (["1", "4", "24"], ["0", "200", HUGE]),
    "--buffer-capacity": (["64", "16"], ["1", "0", HUGE]),
    "--batch-size": (["8", "4"], ["1", "0", "65"]),
    "--learning-starts": (["8", "1"], ["1000"]),
    "--update-every": (["1", "2"], ["1000", "0"]),
    "--target-sync-every": (["1", "10"], ["0"]),
    "--gamma": (["0.99", "0.5"], ["0", "1", "1.5", "nan"]),
    "--learning-rate": (["1e-4", "1e-2"], ["1", "1e300", "inf", "0"]),
    "--epsilon-start": (["1.0", "0.5"], ["0", "2", "nan"]),
    "--epsilon-decay-fraction": (["0.1", "1"], ["0", "1e-300"]),
    "--capacity-kwh": (["4", "2"], ["1e-3", "1e300", "nan", "5e-324"]),
    "--rate-kw": (["2", "1"], ["1e-300", "1e300"]),
    "--seed": (["0", "7"], ["-1", str(2**64), str(2**200)]),
}
#: prices past the float range's square root and near its ends, and tiny ones
EXTREME_PRICES = [0.0, -0.0, 5e-324, 1e-300, 1e153, -1e153, 1e307, -1e307, 1e308, -1e308]
TRAIN_PRICES = st.one_of(
    st.lists(st.one_of(st.floats(-50.0, 50.0), st.sampled_from(EXTREME_PRICES)), min_size=2, max_size=48),
    st.builds(lambda p, n: [p] * n, st.one_of(st.floats(-50.0, 50.0), st.sampled_from(EXTREME_PRICES)), st.integers(2, 48)),
    st.lists(st.sampled_from(EXTREME_PRICES), min_size=2, max_size=2),
)


@FUZZ
@given(data=st.data())
def test_train_on_drawn_prices_and_knobs(tmp_path_factory, capsys, data):
    d = tmp_path_factory.mktemp("train")
    write_price_csv(PriceSeries(datetime(2021, 1, 1, tzinfo=timezone.utc), data.draw(TRAIN_PRICES)), d / "p.csv")
    argv = ["train", "--prices", str(d / "p.csv"), "--out-dir", str(d / "out")]
    # at most two knobs out of the working values, so most runs train
    wrong = data.draw(st.sets(st.sampled_from(sorted(TRAIN_KNOBS)), max_size=2), label="wrong knobs")
    for flag, (good, bad) in TRAIN_KNOBS.items():
        argv += [flag, data.draw(st.sampled_from(bad if flag in wrong else good), label=flag)]
    assert_clean_exit(argv, capsys)


#: the first, a usual and the last year that fetch takes
YEARS = ["2", "2019", "9998"]
#: record fields no feed writes: off-grid, out of range, fractional, boolean, not numbers
BAD_MILLIS = st.sampled_from([1, -1, 1.5, True, None, "soon", "", "1e3", 2**64, -(2**63) - 1, "99999999999999999999"])
BAD_PRICES = st.sampled_from(["abc", "NaN", "inf", "1e999", True, None, "", [1.0]])


@st.composite
def feed_bodies(draw, year: int) -> str | None:
    """One chunk body: mostly a JSON array of 0-30 records on the year's
    5-minute grid with prices extreme among them, else malformed JSON, a
    non-array, a record with a bad field, or None for a failed request."""
    how = draw(mostly(st.just("records"), st.sampled_from(["json", "shape", "field", "fail"])))
    if how == "json":
        return draw(st.sampled_from(["", "[", "{]", "[1,]", "\x00"]))
    if how == "shape":
        return json.dumps(draw(st.sampled_from([{}, 1, "x", None, [1], [[]], [{"price": "1"}]])))
    if how == "fail":
        return None
    base = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp()) * 1000
    # a few hours at the start of the year, a little before it too
    steps = st.integers(-24, 24 * 12 * 3)
    price = st.one_of(st.floats(-50.0, 50.0), st.sampled_from(EXTREME_PRICES))
    records = [
        {"millisUTC": str(base + 300_000 * k), "price": draw(st.sampled_from([str, float]))(p)}
        for k, p in draw(st.lists(st.tuples(steps, price), max_size=30))
    ]
    if how == "field":
        bad = {"millisUTC": draw(BAD_MILLIS), "price": "1.0"} if draw(st.booleans()) else {"millisUTC": str(base), "price": draw(BAD_PRICES)}
        records.insert(draw(st.integers(0, len(records))), bad)
    return json.dumps(records)


def cycling(bodies):
    """A transport answering requests with ``bodies`` in turn; None fails the request."""
    it = itertools.cycle(bodies)

    def http_get(url: str) -> str:
        body = next(it)
        if body is None:
            raise OSError("connection reset")
        return body

    return http_get


@FUZZ
@given(data=st.data())
def test_fetch_on_drawn_feed_bodies(tmp_path_factory, capsys, monkeypatch, data):
    d = tmp_path_factory.mktemp("fetch")
    year = data.draw(st.sampled_from(YEARS), label="year")
    bodies = data.draw(st.lists(feed_bodies(int(year)), min_size=1, max_size=3), label="bodies")
    feed = functools.partial(fetch_five_minute_feed, http_get=cycling(bodies), sleep=lambda s: None)
    monkeypatch.setattr("rtp_arb.cli.fetch_five_minute_feed", feed)
    if assert_clean_exit(["fetch", "--year", year, "--data-dir", str(d)], capsys) == 0:
        assert (d / f"comed_{year}.csv").exists()
