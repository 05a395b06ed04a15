"""The package imports nothing beyond the standard library and numpy, its one
runtime dependency in pyproject.toml; a faster loop must not bring in, say,
numba or threadpoolctl."""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctcx"
SOURCES = sorted(PACKAGE.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ctcx"}


def imported_roots(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports absolutely."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_the_scan_sees_the_package_and_flags_an_outside_import():
    assert PACKAGE / "network.py" in SOURCES
    source = "import json\nimport numpy as np\nfrom .ctc import x\ndef f():\n    import numba\n"
    assert imported_roots(source) - ALLOWED == {"numba"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    outside = sorted(imported_roots(path.read_text(encoding="utf-8")) - ALLOWED)
    assert not outside, f"{path.name} imports {outside}"
