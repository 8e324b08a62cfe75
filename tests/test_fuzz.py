"""Malformed files fail with the documented error, never another exception.

A saved checkpoint with flipped or cut bytes may load (a flipped parameter
is still a parameter) or fail with ``CheckpointError``; a mutated price CSV
may read or fail with ``ValidationError``. Anything else would reach the
CLI as a traceback instead of an exit-1 message.
"""

import json
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_series
from rtp_arb import (
    AdamState,
    CheckpointError,
    ObservationNormalizer,
    ValidationError,
    init_network,
    load_checkpoint,
    read_price_csv,
    save_checkpoint,
    write_price_csv,
)

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory) -> bytes:
    net = init_network(2, seed=0, hidden_dims=(3,))
    opt = AdamState.for_network(net)
    opt.step_count = 12
    path = tmp_path_factory.mktemp("ckpt") / "agent.ckpt"
    save_checkpoint(net, opt, ObservationNormalizer(4.0, 1.5, 13.5), {"year": 2019, "seed": 0}, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def csv_text(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("csv") / "prices.csv"
    write_price_csv(make_series([3.5, -1.25, 7.0, 2.0], datetime(2019, 3, 10, 6, tzinfo=timezone.utc)), path)
    return path.read_text(encoding="utf-8")


def flips(size: int):
    """A list of (offset, xor mask) byte flips within ``size`` bytes."""
    return st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)), min_size=1, max_size=6)


def load_or_checkpoint_error(path) -> None:
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def read_or_validation_error(path) -> None:
    try:
        read_price_csv(path)
    except ValidationError:
        pass


@FUZZ
@given(data=st.data())
def test_flipped_checkpoint_bytes(tmp_path, checkpoint_bytes, data):
    blob = bytearray(checkpoint_bytes)
    for offset, mask in data.draw(flips(len(blob))):
        blob[offset] ^= mask
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(blob))
    load_or_checkpoint_error(path)


@FUZZ
@given(data=st.data())
def test_flipped_checkpoint_header_bytes(tmp_path, checkpoint_bytes, data):
    """Flips aimed at the magic, version, length and JSON header."""
    header_end = 16 + int.from_bytes(checkpoint_bytes[12:16], "little")
    blob = bytearray(checkpoint_bytes)
    for offset, mask in data.draw(flips(header_end)):
        blob[offset] ^= mask
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(blob))
    load_or_checkpoint_error(path)


@FUZZ
@given(data=st.data())
def test_truncated_checkpoint(tmp_path, checkpoint_bytes, data):
    cut = data.draw(st.integers(0, len(checkpoint_bytes) - 1))
    path = tmp_path / "cut.ckpt"
    path.write_bytes(checkpoint_bytes[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("layer_dims", "[4294967296, 4294967296, 3]"),  # element count wraps int64
        ("layer_dims", "[1e400, 3]"),  # JSON infinity
        ("price_mean", "1" + "0" * 400),  # too large for a float
        ("step_count", "1e400"),
        # normalizers that load without error but turn inputs into inf/NaN or flip their sign
        ("price_mean", "NaN"),
        ("price_mean", "-Infinity"),
        ("price_std", "0"),
        ("price_std", "-1.5"),
        ("price_std", "NaN"),
        ("price_std", "Infinity"),
        ("charge_scale", "0"),
        ("charge_scale", "-13.5"),
        ("charge_scale", "NaN"),
    ],
)
def test_extreme_header_numbers(tmp_path, checkpoint_bytes, field, value):
    """Header values a few flips cannot reach, but a hand-edited file can."""
    header_len = int.from_bytes(checkpoint_bytes[12:16], "little")
    header = json.loads(checkpoint_bytes[16 : 16 + header_len])
    text = json.dumps(header, sort_keys=True)
    old = {
        "layer_dims": json.dumps(header["layer_dims"]),
        "step_count": json.dumps(header["optimizer"]["step_count"]),
        **{name: json.dumps(v) for name, v in header["normalizer"].items()},
    }[field]
    text = text.replace(f'"{field}": {old}', f'"{field}": {value}')
    assert value in text
    encoded = text.encode("utf-8")
    path = tmp_path / "edited.ckpt"
    path.write_bytes(
        checkpoint_bytes[:12] + len(encoded).to_bytes(4, "little") + encoded + checkpoint_bytes[16 + header_len :]
    )
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# printable text and the characters a CSV row is made of, no surrogates
CSV_CHARS = st.one_of(
    st.sampled_from(list("0123456789-:TZ,.\n\r eE+naif")),
    st.characters(blacklist_categories=("Cs",)),
)


@st.composite
def csv_mutations(draw, text: str):
    """Up to 6 edits, each a replacement, an insertion or a deletion."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(chars)))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "insert" or at == len(chars):
            chars.insert(at, draw(CSV_CHARS))
        elif kind == "replace":
            chars[at] = draw(CSV_CHARS)
        else:
            del chars[at]
    return "".join(chars)


@FUZZ
@given(data=st.data())
def test_mutated_price_csv_text(tmp_path, csv_text, data):
    mutated = data.draw(csv_mutations(csv_text))
    path = tmp_path / "mutated.csv"
    path.write_text(mutated, encoding="utf-8", newline="")
    read_or_validation_error(path)


@FUZZ
@given(data=st.data())
def test_flipped_or_cut_price_csv_bytes(tmp_path, csv_text, data):
    blob = bytearray(csv_text.encode("utf-8"))
    for offset, mask in data.draw(flips(len(blob))):
        blob[offset] ^= mask
    cut = data.draw(st.integers(0, len(blob)))
    path = tmp_path / "flipped.csv"
    path.write_bytes(bytes(blob[:cut]))
    read_or_validation_error(path)


def test_price_csv_that_is_not_utf8(tmp_path, csv_text):
    path = tmp_path / "latin1.csv"
    path.write_bytes(csv_text.encode("utf-8") + "3,\xe9\n".encode("latin-1"))
    with pytest.raises(ValidationError, match="UTF-8"):
        read_price_csv(path)


def test_price_csv_with_one_row_is_a_validation_error(tmp_path, csv_text):
    path = tmp_path / "short.csv"
    path.write_text("\n".join(csv_text.split("\n")[:2]) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="fewer than 2"):
        read_price_csv(path)
