"""The package imports nothing beyond the standard library and numpy, its one
runtime dependency in pyproject.toml; a faster loop must not bring in, say,
numba or threadpoolctl. Each module also uses every name it imports."""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctcx"
SOURCES = sorted(PACKAGE.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ctcx"}
# perfbench's tracer test checks that a wrapped function is seen under ctcx.cli.resample
UNUSED_ALLOWED = {"cli.py": {"resample"}}


def imported_roots(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports absolutely."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def unused_imports(source: str) -> set[str]:
    """Names ``source`` imports (``__future__`` features aside) that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_the_scan_sees_the_package_and_flags_an_outside_import():
    assert PACKAGE / "network.py" in SOURCES
    source = "import json\nimport numpy as np\nfrom .ctc import x\ndef f():\n    import numba\n"
    assert imported_roots(source) - ALLOWED == {"numba"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    outside = sorted(imported_roots(path.read_text(encoding="utf-8")) - ALLOWED)
    assert not outside, f"{path.name} imports {outside}"


def test_the_unused_import_scan_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .ctc import a, b as c\nx: np.ndarray = os.path.join(a)\n")
    assert unused_imports(source) == {"c"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    unused -= UNUSED_ALLOWED.get(path.name, set())
    assert not unused, f"{path.name} never uses {sorted(unused)}"


def test_the_allowed_unused_imports_are_still_unused():
    for name, allowed in UNUSED_ALLOWED.items():
        assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) >= allowed
