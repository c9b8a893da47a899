"""One door for the documents a user brings in: topologies, circuits,
fidelity tables, routed circuits, models and solutions. Each reader
decodes JSON with ``parsed`` and reads under ``reading``, so a document
that does not parse fails with the reader's own error, in one form."""

import json
from contextlib import contextmanager

# A missing key or index, a value of the wrong type or form (a JSON syntax
# error among them), a number out of range, or nesting past the recursion limit.
_FAULTS = (LookupError, TypeError, ValueError, ArithmeticError, RecursionError)


@contextmanager
def reading(error: type[Exception], what: str):
    """Raise any fault in ``_FAULTS`` as ``error("malformed <what>: <cause>")``.
    An ``error`` raised inside, such as a check that names a field or a
    line, passes unchanged."""
    try:
        yield
    except error:
        raise
    except _FAULTS as exc:
        cause = f"key {exc} not found" if isinstance(exc, KeyError) else exc
        raise error(f"malformed {what}: {cause}") from exc


def parsed(source: str | dict):
    """The JSON value of a document given as text, or the dict itself."""
    return source if isinstance(source, dict) else json.loads(source)
