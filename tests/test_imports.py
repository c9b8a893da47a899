"""No module in the package or the test suite imports a name it never uses.

A standard-library stand-in for a linter's unused-import rule: every
name bound by an import must be referenced somewhere in the same file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "qaroute").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = node.lineno
    return out


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in used)


def test_scanner_flags_only_unused_names():
    src = ("import os\nimport numpy as np\nfrom x import (a, b as c)\n"
           "def f(v: a) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(src) == [("c", 3), ("os", 1)]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES for name, line in unused_imports(path.read_text())]
    assert not found, "\n".join(found)
