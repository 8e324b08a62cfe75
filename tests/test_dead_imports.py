"""No module of ``rtp_arb`` imports a name that it never uses.

No linter ships with the project, so this reads each module's source with
``ast``: every name that a module-level import binds must appear as a name
somewhere else in the module (an attribute chain starts with one). The
exceptions are the imports that only the benchmark's tracing patches read,
:data:`test_benchmark_hooks.TRACING_ONLY`, which their own test keeps hooked.
``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

from test_benchmark_hooks import TRACING_ONLY

SRC = Path(__file__).resolve().parents[1] / "src" / "rtp_arb"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
EXEMPT = {(module.__name__.rpartition(".")[2], attr) for module, attr in TRACING_ONLY}


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that no other node names."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    stem = module.removesuffix(".py")
    unused = [name for name in unused_imports((SRC / module).read_text()) if (stem, name) not in EXEMPT]
    assert unused == [], f"{module} imports {unused} without using them"


def test_the_scan_sees_an_unused_import():
    assert "oracle.py" in MODULES
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nx = np.zeros(1)\ny = path.join\n"
    assert unused_imports(source) == ["math", "sep"]
