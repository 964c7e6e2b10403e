"""Indented JSON text, the layout of every report, trace and ``--json`` output.

``dumps_indented(obj)`` returns exactly ``json.dumps(obj, indent=2)``.  The
standard library writes any indented JSON with its pure-Python encoder, a
chain of generators that yields each part on its own; this writes the same
parts in one recursive pass into one list.  Strings go through the C string
encoder that ``json`` itself uses; finite floats are ``float.__repr__``, and
nan and the infinities are written as ``json.dumps`` writes them.

What ``json.dumps`` accepts is accepted the same way: ``str``, ``int`` and
``float`` subclasses (a str-valued ``Enum``, say) through ``isinstance``,
list and tuple subclasses as arrays, dict subclasses as objects, and float,
int, bool and ``None`` keys converted to their JSON text.  Anything else
raises ``TypeError`` with ``json``'s message.  A structure that contains
itself raises ``RecursionError`` where ``json`` raises ``ValueError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "
_INFINITY = float("inf")


def dumps_indented(obj: object) -> str:
    """``json.dumps(obj, indent=2)``, written in one pass."""
    parts: list[str] = []
    _write(obj, "\n", parts)
    return "".join(parts)


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _scalar(value: object) -> str:
    """A JSON scalar's text; the order of the tests is ``json``'s."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key(key: object) -> str:
    if isinstance(key, str):
        return _string(key)
    if isinstance(key, float):
        return _string(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _string(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value: object, newline: str, parts: list[str]) -> None:
    """Append ``value``'s text to ``parts``; ``newline`` is the line break
    and indentation of ``value``'s own level."""
    if type(value) is str:
        parts.append(_string(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + _INDENT
        separator = "," + inner
        start = len(parts)
        for key, item in value.items():
            parts.append(separator)
            parts.append((_string(key) if type(key) is str else _key(key)) + ": ")
            if type(item) is str:
                parts.append(_string(item))
            else:
                _write(item, inner, parts)
        parts[start] = "{" + inner  # the first item's separator
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + _INDENT
        separator = "," + inner
        start = len(parts)
        for item in value:
            parts.append(separator)
            if type(item) is str:
                parts.append(_string(item))
            else:
                _write(item, inner, parts)
        parts[start] = "[" + inner
        parts.append(newline + "]")
    else:
        parts.append(_scalar(value))
