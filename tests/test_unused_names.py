"""Every module-level name of the package is used somewhere.

A function, class or constant that a module of ``src/qaroute`` defines
at its top level must be referenced in ``src/``, ``tests/`` or
``perfbench/*.py``: as a loaded name, an attribute, an imported name,
or a part of a dotted target in ``perfbench/tracer.py``'s ``TRACED``
table, which the benchmark resolves from strings. Matching is by name
alone, so a use anywhere counts.
"""

import ast
from pathlib import Path

from test_traced_names import traced_targets

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qaroute").glob("*.py"))
REFERRERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                    *(ROOT / "perfbench").glob("*.py")])


def defined(tree: ast.Module) -> dict[str, int]:
    """Module-level name (imports and dunders aside) -> line defining it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                out[name.id] = node.lineno
    return {k: v for k, v in out.items() if not (k.startswith("__") and k.endswith("__"))}


def referenced(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(part for a in node.names for part in a.name.split("."))
    return out


def unused_names(modules: dict[str, str], referrers: list[str],
                 dotted: list[str]) -> list[str]:
    """``module:line: name`` for each module-level name of ``modules``
    that no source in ``referrers`` and no dotted path references."""
    used = {part for path in dotted for part in path.split(".")}
    for source in referrers:
        used |= referenced(ast.parse(source))
    return sorted(f"{mod}:{line}: {name}" for mod, source in modules.items()
                  for name, line in defined(ast.parse(source)).items() if name not in used)


def test_scanner_flags_only_unused_names():
    module = ("import os\nLIMIT, _SPARE = 3, 4\nclass Shape:\n    pass\n"
              "def area(s):\n    return LIMIT\ndef traced():\n    pass\n"
              "def orphan():\n    pass\n__all__ = []\n")
    user = "from mod import Shape\nimport mod\nmod.area(1)\n"
    assert unused_names({"mod": module}, [module, user], ["traced"]) == [
        "mod:2: _SPARE", "mod:9: orphan"]


def test_every_module_level_name_is_used():
    modules = {str(path.relative_to(ROOT)): path.read_text() for path in PACKAGE}
    referrers = [path.read_text() for path in REFERRERS]
    dotted = [f"{layer}.{path}" for layer, path in traced_targets()]
    found = unused_names(modules, referrers, dotted)
    assert not found, "\n".join(found)
