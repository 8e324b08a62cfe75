"""Outputs are replaced whole: a failed write leaves the old file and no debris."""

import hashlib
import os
from datetime import datetime, timezone

import pytest

import rtp_arb.atomic
from rtp_arb import (
    AdamState,
    ObservationNormalizer,
    PriceSeries,
    TrainingCurve,
    init_network,
    save_checkpoint,
    write_price_csv,
)
from rtp_arb.atomic import atomic_write
from rtp_arb.experiment import render_training_curves_svg, write_training_curves_csv


def series():
    return PriceSeries.from_prices(datetime(2021, 1, 1, tzinfo=timezone.utc), [1.0, 2.5, 0.125])


def checkpoint(path):
    net = init_network(2, seed=0, hidden_dims=(3,))
    save_checkpoint(net, AdamState.for_network(net), ObservationNormalizer(0.0, 1.0, 1.0), {}, path)


WRITERS = {
    "checkpoint": checkpoint,
    "price_csv": lambda path: write_price_csv(series(), path),
    "curves_csv": lambda path: write_training_curves_csv([TrainingCurve(2021, ((0, 1.5),))], path),
    "svg": lambda path: render_training_curves_svg([TrainingCurve(2021, ((0, 1.5), (5, 2.0)))], path),
}

#: SHA-256 of each writer's output, recorded when the writers still wrote in place.
DIGESTS = {
    "checkpoint": "92f0ece680fad627f35aaff2c8735dd1bb66cdd153a98c3f0730221523881919",
    "price_csv": "91ad9bc16d5914d8cd1084bf9ca82e72946efc7ea348e2dfeaf5722922dbfb88",
    "curves_csv": "fdbe0b31a8db395649c2936b9a0f3b3a69f1c0c8d2886fcd42055f73acb2d8e5",
    "svg": "dc11f0811ec09a8b3da4b89455932cebb8d89c18947b5ffb7d5f79114b0911e0",
}


def test_failure_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"previous\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"half a fi")
            raise RuntimeError("disk went away")
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_success_replaces_with_plain_open_permissions(tmp_path):
    path = tmp_path / "out.bin"
    with atomic_write(path) as fh:
        fh.write(b"new")
    plain = tmp_path / "plain.bin"
    plain.write_bytes(b"new")
    assert path.read_bytes() == b"new"
    assert os.stat(path).st_mode == os.stat(plain).st_mode
    assert sorted(os.listdir(tmp_path)) == ["out.bin", "plain.bin"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_each_writer_is_atomic(writer, tmp_path, monkeypatch):
    path = tmp_path / "target"
    WRITERS[writer](path)
    first = path.read_bytes()
    assert hashlib.sha256(first).hexdigest() == DIGESTS[writer]
    assert os.listdir(tmp_path) == ["target"]

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(rtp_arb.atomic.os, "replace", fail)
    path.write_bytes(b"previous")
    with pytest.raises(OSError, match="rename failed"):
        WRITERS[writer](path)
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["target"]

    monkeypatch.undo()
    WRITERS[writer](path)
    assert path.read_bytes() == first


def test_missing_directory_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_price_csv(series(), tmp_path / "nope" / "p.csv")
    assert not (tmp_path / "nope").exists()
