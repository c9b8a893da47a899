"""Only ``qaroute.documents`` decodes JSON.

Every reader of an outside document decodes it through
``documents.parsed`` and reads it under ``documents.reading``, so each
fails with its own error and the same message form. A module that calls
``json.loads`` or names ``JSONDecodeError`` itself opens a second door
with its own fault mapping; this scan, with ``ast`` in the manner of
``test_imports.py``, finds one.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qaroute"
DOOR = "documents.py"


def json_decoding(source: str) -> list[int]:
    """Lines that call ``json.loads``, import ``loads`` from ``json``, or
    name ``JSONDecodeError``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr == "JSONDecodeError"
                or node.attr == "loads" and isinstance(node.value, ast.Name)
                and node.value.id == "json"):
            out.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "JSONDecodeError":
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                a.name in ("loads", "JSONDecodeError") for a in node.names):
            out.append(node.lineno)
    return sorted(out)


def test_scanner_flags_each_way_to_decode():
    src = ("import json\nfrom json import loads\nx = json.loads('1')\n"
           "y = json.dumps(x)\ntry:\n    pass\nexcept json.JSONDecodeError:\n    pass\n")
    assert json_decoding(src) == [2, 3, 7]


def test_only_the_documents_module_decodes_json():
    assert (PACKAGE / DOOR).exists()
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != DOOR for line in json_decoding(path.read_text())]
    assert not found, "\n".join(found)
