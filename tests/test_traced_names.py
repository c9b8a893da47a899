"""Every function the benchmark's tracer wraps still exists in qaroute.

``perfbench/tracer.py`` lists its targets in ``TRACED`` as (module,
attribute path) pairs and patches them in place for a ``--trace 1`` run,
so deleting or renaming one breaks that run only. The table is read here
with ``ast``, without importing the benchmark, and each entry resolved.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{TRACER} defines no TRACED table")


def unresolved(layer: str, path: str) -> str | None:
    """Why ``qaroute.<layer>.<path>`` cannot be traced, or None."""
    owner = importlib.import_module(f"qaroute.{layer}")
    *cls_path, name = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return f"no {part}"
    found = vars(owner).get(name)
    if found is None:
        return f"no {name}"
    # A dotted path is wrapped as the classmethod it must be.
    if cls_path and not isinstance(found, classmethod):
        return f"{name} is not a classmethod"
    if not cls_path and not callable(found):
        return f"{name} is not callable"
    return None


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    broken = [f"{layer}.{path}: {why}" for layer, path in targets
              if (why := unresolved(layer, path)) is not None]
    assert not broken, "\n".join(broken)
