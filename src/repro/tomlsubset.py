"""The dependency-free TOML loader behind the committed config files.

Python 3.11+ parses TOML with :mod:`tomllib`; older interpreters fall back to
:func:`parse_toml_subset`, which reads exactly the subset the repository's
TOML files use (``analysis/layers.toml`` and the fault plans):

* tables, including dotted and quoted names (``[fault.crash]``,
  ``[layers."<root>"]``),
* string, bool, int and float scalars,
* arrays of strings, which may span several lines,
* ``#`` comments, also after a value (a ``#`` inside a string is kept).

Anything else — an array of numbers, an inline table — is rejected rather
than guessed at.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Union

__all__ = ["load_toml", "parse_toml_subset"]

_TABLE = re.compile(r"^\[(?P<name>[^\]]+)\]$")
_KEY_VALUE = re.compile(r"^(?P<key>[A-Za-z0-9_\-]+)\s*=\s*(?P<value>.+)$")


def _strip_comment(line: str) -> str:
    """Drop a trailing comment, keeping any '#' inside a string."""
    in_string = False
    for index, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:index]
    return line


def _parse_string(text: str) -> str:
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    raise ValueError(f"unsupported TOML value: {text!r}")


def _parse_value(text: str) -> object:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated TOML array: {text!r}")
        items = [item.strip() for item in text[1:-1].split(",") if item.strip()]
        try:
            return [_parse_string(item) for item in items]
        except ValueError:
            raise ValueError(f"unsupported TOML value: {text!r}") from None
    if text.startswith('"'):
        return _parse_string(text)
    if text in ("true", "false"):
        return text == "true"
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    raise ValueError(f"unsupported TOML value: {text!r}")


def parse_toml_subset(text: str) -> Dict[str, object]:
    """Parse the TOML subset described in the module docstring."""
    document: Dict[str, object] = {}
    table: Dict[str, object] = document
    pending = ""
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if pending:
            # Continuation of a multi-line array value.
            line = pending + " " + line
            pending = ""
        value = line.partition("=")[2].strip()
        if value.startswith("[") and not value.endswith("]"):
            pending = line
            continue
        match = _TABLE.match(line)
        if match is not None:
            table = document
            for part in match.group("name").split("."):
                # Quoted names like [layers."<root>"] carry no dots here, so
                # stripping the quotes after the split is sufficient.
                key = part.strip().strip('"')
                table = table.setdefault(key, {})  # type: ignore[assignment]
            continue
        match = _KEY_VALUE.match(line)
        if match is None:
            raise ValueError(f"unparseable TOML line: {raw!r}")
        table[match.group("key")] = _parse_value(match.group("value"))
    if pending:
        raise ValueError(f"unterminated TOML array: {pending!r}")
    return document


def load_toml(path: Union[str, Path]) -> Dict[str, object]:
    """Load a TOML file with :mod:`tomllib`, or the subset parser before 3.11."""
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        return parse_toml_subset(Path(path).read_text())
    with open(path, "rb") as handle:
        return tomllib.load(handle)
