"""Every field a package dataclass declares is read.

A field that a ``@dataclass`` class of ``src/qaroute`` declares must be
read as an attribute (``obj.field`` in a load) somewhere in ``src/``,
``tests/`` or the benchmark's own modules (``perfbench/*.py``, not its
run outputs). A field that is only ever set is a second copy of
something, or of nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qaroute").glob("*.py"))
READERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def declared_fields(source: str) -> list[tuple[int, str, str]]:
    """``(line, class, field)`` for each field of each dataclass."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    out.append((stmt.lineno, cls.name, stmt.target.id))
    return out


def attributes_read(source: str) -> set[str]:
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_fields(source: str, read: set[str]) -> list[str]:
    """``line: Class.field`` for each dataclass field of ``source`` whose
    name is not in ``read``, the attribute loads of the readers."""
    return [f"{line}: {cls}.{name}" for line, cls, name in declared_fields(source)
            if name not in read]


def test_scanner_flags_only_unread_fields():
    module = ("from dataclasses import dataclass\n"
              "import dataclasses\n"
              "@dataclass(frozen=True)\n"
              "class A:\n"
              "    kept: int\n"
              "    written: int = 0\n"
              "    NOTE = 'not a field'\n"
              "@dataclasses.dataclass\n"
              "class B:\n"
              "    other: str\n"
              "class Plain:\n"
              "    ignored: int\n"
              "def f(a, b):\n"
              "    b.written = a.kept\n")
    assert unread_fields(module, attributes_read(module)) == ["6: A.written", "10: B.other"]
    read = attributes_read(module) | attributes_read("print(x.other, x.written)\n")
    assert unread_fields(module, read) == []


def test_every_dataclass_field_is_read():
    read = set().union(*(attributes_read(path.read_text()) for path in READERS))
    found = [f"{path.relative_to(ROOT)}:{hit}" for path in PACKAGE
             for hit in unread_fields(path.read_text(), read)]
    assert not found, "\n".join(found)
