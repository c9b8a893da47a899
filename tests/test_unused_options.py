"""Every default a package function declares is set by the program.

A parameter with a default, of a function of ``src/qaroute``, must be
set by some call of the program: in ``src/``, or in the benchmark's own
modules (``perfbench/*.py`` but its tests), which drive the command line
through ``cli.main(argv)``. A call sets it by keyword, or by position (a
call that passes that many positional arguments). A call with ``*args``
sets every positional parameter, and one with ``**kwargs`` every
parameter. Calls are matched to a function by its name only; a method's
positions start after ``self`` or ``cls``, and a call of a class sets
the parameters of its ``__init__``. A default that only tests set is a
switch the program never turns: a second form of the code that only the
tests run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qaroute").glob("*.py"))
CALLERS = sorted([*(ROOT / "src").rglob("*.py"),
                  *(p for p in (ROOT / "perfbench").glob("*.py")
                    if not p.name.startswith("test_"))])
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defaulted(source: str) -> list[tuple[int, str, str, str, int | None]]:
    """``(line, function, called as, parameter, position)`` for each
    parameter with a default. ``position`` counts the positional
    arguments a call passes before it, and is None for a keyword-only
    parameter."""
    tree = ast.parse(source)
    called_as = {func: func.name for func in ast.walk(tree) if isinstance(func, FUNCTIONS)}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for func in cls.body:
                if isinstance(func, FUNCTIONS) and func.name == "__init__":
                    called_as[func] = cls.name
    out = []
    for func, name in called_as.items():
        args = func.args
        positional = args.posonlyargs + args.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        for k in range(first, len(positional)):
            out.append((func.lineno, func.name, name, positional[k].arg, k - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((func.lineno, func.name, name, arg.arg, None))
    return sorted(out)


def calls(source: str) -> dict[str, list[tuple[float, set[str]]]]:
    """Per called name, one ``(positional count, keywords)`` per call; a
    ``*args`` call passes any count, and a ``**kwargs`` call every
    keyword (``"**"``)."""
    out: dict[str, list] = {}
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call):
            continue
        target = call.func
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        count = float("inf") if starred else len(call.args)
        out.setdefault(name, []).append((count, {kw.arg or "**" for kw in call.keywords}))
    return out


def unset_defaults(source: str, made: dict[str, list]) -> list[str]:
    """``line: function(parameter)`` for each defaulted parameter of
    ``source`` that no call of ``made`` sets."""
    return [f"{line}: {func}({param})"
            for line, func, name, param, position in defaulted(source)
            if not any(param in keywords or "**" in keywords
                       or (position is not None and count > position)
                       for count, keywords in made.get(name, []))]


def test_scanner_flags_only_unset_defaults():
    module = ("def f(a, b=1, c=2, *, d=3, e=4):\n"
              "    return a\n"
              "class K:\n"
              "    def __init__(self, p, q=0):\n"
              "        self.p = p\n"
              "    def m(self, r=0, s=0):\n"
              "        return r\n"
              "    @classmethod\n"
              "    def build(cls, t=0):\n"
              "        return cls(t)\n"
              "def g(u=0, v=0, *, w=0):\n"
              "    return u\n"
              "def h(x=0):\n"
              "    return f(0, 1, d=2), K(1), K(1).m(2), g(*[1, 2]), g(**{'w': 1})\n")
    assert unset_defaults(module, calls(module)) == [
        "1: f(c)", "1: f(e)", "4: __init__(q)", "6: m(s)", "9: build(t)", "13: h(x)"]
    more = calls("K(1, 2)\nK.build(t=1)\nh(0)\nf(0, 1, 2, e=0)\nk.m(1, s=2)\n")
    made = {name: calls(module).get(name, []) + more.get(name, []) for name in {*more, "f", "K"}}
    assert unset_defaults(module, made) == ["11: g(u)", "11: g(v)", "11: g(w)"]


def test_every_default_is_set_by_the_program():
    made: dict[str, list] = {}
    for path in CALLERS:
        for name, found in calls(path.read_text()).items():
            made.setdefault(name, []).extend(found)
    found = [f"{path.relative_to(ROOT)}:{hit}" for path in PACKAGE
             for hit in unset_defaults(path.read_text(), made)]
    assert not found, "\n".join(found)
