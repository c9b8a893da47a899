"""No module in the package or the test suite imports a name it never
uses, the package's modules import each other without a cycle, and the
package runs with numpy as its only dependency.

A standard-library stand-in for a linter's unused-import rule: every
name bound by an import must be referenced somewhere in the same file.
"""

import ast
import os
import subprocess
import sys
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


def relative_imports(source: str) -> set[str]:
    """The sibling modules a package module's relative imports name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from .x import y`` names x; ``from . import x, y`` names x and y.
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` (module -> the modules it imports), as the
    modules along it with the first repeated at the end, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(mod: str) -> list[str] | None:
        if mod in path:
            return path[path.index(mod):] + [mod]
        if mod in done:
            return None
        path.append(mod)
        for dep in sorted(graph.get(mod, ())):
            found = visit(dep)
            if found:
                return found
        path.pop()
        done.add(mod)
        return None

    for mod in sorted(graph):
        found = visit(mod)
        if found:
            return found
    return None


def test_scanner_finds_relative_imports_and_cycles():
    src = ("import os\nfrom .a import x\nfrom . import b, c\nfrom qaroute.d import y\n"
           "def f():\n    from .e import z\n")
    assert relative_imports(src) == {"a", "b", "c", "e"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"a"}}) == ["a", "a"]


def test_package_imports_form_no_cycle():
    # modelio imports solver one way: a cycle would make the import order
    # of the package decide which names exist.
    package = {path.stem: relative_imports(path.read_text())
               for path in sorted((ROOT / "src" / "qaroute").glob("*.py"))}
    assert "solver" in package["modelio"]
    assert import_cycle(package) is None


# Imports every package module and runs two commands in a process where
# scipy and hypothesis, the test extra's packages, cannot be imported.
NUMPY_ONLY = """
import importlib, sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None
for name in sys.argv[1:]:
    importlib.import_module("qaroute." + name)
from qaroute import cli
assert cli.main(["transpile", "--builtin", "line,4", "--qv", "4,1", "--variant", "bip"]) == 0
assert cli.main(["export", "--builtin", "line,4", "--qv", "4,1", "--format", "mps"]) == 0
"""


def test_package_runs_on_numpy_alone():
    modules = [path.stem for path in sorted((ROOT / "src" / "qaroute").glob("*.py"))
               if path.stem != "__init__"]
    assert "cli" in modules and "solver" in modules
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY, *modules], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "unitary: ok" in proc.stdout and "ENDATA" in proc.stdout
