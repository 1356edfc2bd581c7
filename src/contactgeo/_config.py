"""Shared ``key = value`` config parsing (blocks separated by blank lines).

Values are JSON where possible (``coords = ["S","V"]``, ``domain = [[0.5,2]]``,
``wbar = "exp(S)*V^(-2/3)"``); bare words fall back to plain strings.
Lines starting with ``#`` are comments.  A key may be set once per mapping: a
repeated key is one ``ValueError`` that names it and both of its lines.
Readers check each value they use with :func:`typed`, so a value of the wrong
type is one ``ValueError`` that names its key.
"""

from __future__ import annotations

import json

__all__ = ["parse_blocks", "parse_flat", "typed"]


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _entries(text: str) -> list[list[tuple[int, str, object]]]:
    """The ``(line number, key, value)`` entries of each blank-line-separated block."""
    blocks: list[list] = [[]]
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            blocks.append([])
        elif not stripped.startswith("#"):
            if "=" not in stripped:
                raise ValueError(f"line {lineno}: expected 'key = value', got {stripped!r}")
            key, _, raw = stripped.partition("=")
            blocks[-1].append((lineno, key.strip(), _parse_value(raw)))
    return [block for block in blocks if block]


def _mapping(entries) -> dict:
    """The entries as one mapping; a key given twice is a ValueError."""
    values: dict = {}
    lines: dict = {}
    for lineno, key, value in entries:
        if key in lines:
            raise ValueError(f"line {lineno}: key '{key}' is already set on line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def parse_blocks(text: str) -> list[dict]:
    """Parse blank-line-separated blocks of ``key = value`` lines."""
    return [_mapping(block) for block in _entries(text)]


def parse_flat(text: str) -> dict:
    """Parse a config file as a single flat mapping (blocks merged in order)."""
    return _mapping(entry for block in _entries(text) for entry in block)


# JSON types by the words an error message uses for them; the checks test type(),
# so a bool (a subclass of int) is neither an integer nor a number
_TYPES = {
    "an integer": lambda v: type(v) is int,
    "a string": lambda v: type(v) is str,
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "a list of [lo, hi] number pairs": lambda v: type(v) is list and all(
        type(x) is list and len(x) == 2 and all(type(y) in (int, float) for y in x) for x in v),
}


def typed(mapping: dict, key: str, kind: str):
    """``mapping[key]`` if it is ``kind`` (a key of ``_TYPES``), else a ValueError naming ``key``."""
    value = mapping[key]
    if not _TYPES[kind](value):
        raise ValueError(f"'{key}' must be {kind}, got {json.dumps(value)}")
    return value
