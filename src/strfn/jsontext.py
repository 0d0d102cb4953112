"""The report format: the bytes of ``json.dumps(obj, indent=2)``, in pieces.

With an indent, ``json`` encodes in pure Python, one generator step per
token.  This writer builds the same text from C calls instead: strings go
through ``encode_basestring_ascii``, ints through ``int.__repr__``, and a
container becomes one ``str.join`` of its encoded items.  Every other
scalar, every empty container and every non-``str`` dict key goes through
``json.dumps``, so bools, ``None``, floats, NaN and subclasses keep the
text ``json`` gives them.  A cycle raises ``RecursionError``, where
``json`` raises ``ValueError``.

:func:`chunks` yields the text in pieces: a dict key by key, an array of
more than :data:`ROWS` items :data:`ROWS` rows at a time, and anything
else as one string.  So a long table is never held as one string.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Iterator

# Rows of a long array per piece: about 55 KB of an extended table's text.
ROWS = 1024


def chunks(obj: Any, indent: str = "") -> Iterator[str]:
    """Yield the pieces of ``obj``'s text, its first line at ``indent``."""
    if isinstance(obj, dict) and obj:
        inner = indent + "  "
        head = "{\n" + inner
        for key, value in obj.items():
            yield head + _key(key) + ": "
            yield from chunks(value, inner)
            head = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(obj, (list, tuple)) and len(obj) > ROWS:
        inner = indent + "  "
        head = "[\n" + inner
        for start in range(0, len(obj), ROWS):
            yield head + _rows(obj[start:start + ROWS], inner)
            head = ",\n" + inner
        yield "\n" + indent + "]"
    else:
        yield _text(obj, indent)


def _rows(rows: list[Any] | tuple[Any, ...], indent: str) -> str:
    """The items of an array at ``indent``, joined by its separator.

    A run of ``[str, str]`` rows (every string-valued table's) is encoded
    by ``map`` and ``str.join`` alone.
    """
    sep = ",\n" + indent
    if (set(map(type, rows)) == {list} and set(map(len, rows)) == {2}
            and set(map(type, chain.from_iterable(rows))) == {str}):
        inner = indent + "  "
        cells = map(_string, chain.from_iterable(rows))
        pairs = map((",\n" + inner).join, zip(cells, cells))
        return ("[\n" + inner + ("\n" + indent + "]" + sep + "[\n" + inner).join(pairs)
                + "\n" + indent + "]")
    return sep.join([_text(item, indent) for item in rows])


def _text(obj: Any, indent: str) -> str:
    """``obj``'s whole text, its first line at ``indent``."""
    if isinstance(obj, str):
        return _string(obj)
    if obj.__class__ is int:
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        return "[\n" + inner + _rows(obj, inner) + "\n" + indent + "]"
    if isinstance(obj, dict) and obj:
        inner = indent + "  "
        return ("{\n" + inner + (",\n" + inner).join([
            _key(key) + ": " + _text(value, inner) for key, value in obj.items()
        ]) + "\n" + indent + "}")
    return json.dumps(obj)


def _key(key: Any) -> str:
    """A dict key as ``json`` writes it: a string, or a scalar's text quoted."""
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):
        return _string(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")
