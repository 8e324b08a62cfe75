"""Whole-file writes: a reader sees the old file or the new one, never a part.

Every output of the package (checkpoints, CSVs, SVGs) goes through
:func:`atomic_write`. There is no fsync: this guards against the program
failing mid-write, not against a power cut.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence


@contextmanager
def atomic_write(path) -> Iterator[BinaryIO]:
    """Binary file handle whose content replaces ``path`` when the block ends.

    Writes go to a new temporary file beside ``path``, created with the
    permissions a plain ``open`` would give; a clean exit renames it over
    ``path`` with ``os.replace``. On an error the temporary file is removed
    and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines: Sequence[str]) -> None:
    """Write UTF-8 text lines, each ending in LF, atomically."""
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
