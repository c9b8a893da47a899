"""Every name a package function assigns is read.

A name that a function of ``src/qaroute`` binds (by assignment, as a
loop, ``with`` or comprehension target, or by ``:=``) must be loaded
somewhere in that function; a load in a nested function counts. Names
that start with ``_`` are exempt, and so are names the function declares
``global`` or ``nonlocal``: those are read in another scope.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qaroute").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(func: ast.AST):
    """The nodes of ``func``'s body that no nested scope holds."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source: str) -> list[str]:
    """``line: name in function`` for each name a function binds and no
    code of that function, nested functions included, reads."""
    out = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        for node in own_nodes(func):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and not node.id.startswith("_") and node.id not in read):
                out.add(f"{node.lineno}: {node.id} in {func.name}")
    return sorted(out, key=lambda s: int(s.split(":")[0]))


def test_scanner_flags_only_unread_locals():
    module = ("def f(xs):\n"
              "    a, b = xs\n"
              "    _, c = xs\n"
              "    total = 0\n"
              "    for i, x in enumerate(xs):\n"
              "        total += x\n"
              "    def inner():\n"
              "        nonlocal total\n"
              "        total = a\n"
              "        spare = 1\n"
              "    return [y for y in xs], inner, c\n")
    assert unread_locals(module) == ["2: b in f", "4: total in f", "5: i in f",
                                     "6: total in f", "10: spare in inner"]


def test_every_assigned_local_is_read():
    found = [f"{path.relative_to(ROOT)}:{hit}" for path in PACKAGE
             for hit in unread_locals(path.read_text())]
    assert not found, "\n".join(found)
