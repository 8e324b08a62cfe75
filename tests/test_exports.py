"""The package's public names: what ``__all__`` holds, where each name comes
from, and that the demos and benchmarks import nothing outside it."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import rtp_arb

ROOT = Path(__file__).resolve().parent.parent
MISSING = object()


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rtp_arb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rtp_arb.__all__)
    assert len(rtp_arb.__all__) == len(set(rtp_arb.__all__))


def test_each_export_comes_from_a_submodule():
    # a helper imported into the package namespace, such as the module types
    # or a name from typing, is no submodule's own definition
    submodules = [
        importlib.import_module(f"rtp_arb.{info.name}") for info in pkgutil.iter_modules(rtp_arb.__path__)
    ]
    for name in rtp_arb.__all__:
        value = getattr(rtp_arb, name)
        assert not inspect.ismodule(value), name
        assert any(getattr(m, name, MISSING) is value for m in submodules), name
        if inspect.isclass(value) or inspect.isroutine(value):
            assert value.__module__.startswith("rtp_arb."), (name, value.__module__)


def imported_from_package(path: Path) -> list[str]:
    """The names ``path`` imports with ``from rtp_arb import ...``, read from
    its syntax tree without running it; submodules are left out."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "rtp_arb" and node.level == 0:
            names += [a.name for a in node.names]
    submodules = {info.name for info in pkgutil.iter_modules(rtp_arb.__path__)}
    return [name for name in names if name not in submodules]


SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_scripts_import_only_exported_names(path):
    assert set(imported_from_package(path)) <= set(rtp_arb.__all__)


def test_scripts_are_scanned():
    # the scan finds the demos' imports at all, so an empty result above is no pass by default
    assert imported_from_package(ROOT / "demos" / "ingest_pipeline.py")


def test_version_matches_pyproject():
    # tier-1 runs from the source tree without an install, so the version
    # cannot come from package metadata; tomllib is missing on Python 3.10
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert rtp_arb.__version__ == re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
