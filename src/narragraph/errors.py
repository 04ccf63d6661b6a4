"""Exception types shared across the package, and the JSON reader that
raises them."""

import json
import re
from typing import Any, Optional


class NarragraphError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(NarragraphError):
    """A JSON document does not match the expected structure.

    ``path`` addresses the offending element, e.g. ``panels[3].shot_type``.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class DuplicateNodeError(NarragraphError):
    """A node id was added to the same graph twice."""


class MissingNodeError(NarragraphError):
    """An edge or traversal referenced a node id absent from the graph."""


class UnknownUnitError(NarragraphError):
    """A macro-event or event label resolved to nothing."""


_SURROGATE = re.compile("[\ud800-\udfff]")
# The JSON escapes \ud800-\udfff. The backslash test in front of the search
# is a memchr, so a text without escapes pays nothing for the check.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _lone_surrogate(doc: Any) -> Optional[str]:
    """A lone surrogate in some key or string of ``doc``, else None."""
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str) and (found := _SURROGATE.search(item)):
            return found.group()
    return None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """:func:`parse_json`'s ``object_pairs_hook``: a key repeated within one object is refused."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError("$", f"repeated key {key!r} in one object")
            seen.add(key)
    return obj


def parse_json(text: str) -> Any:
    """``json.loads``, raising ``SchemaError("$", "not valid JSON: …")`` for
    any text it cannot decode: malformed JSON, an integer literal longer
    than ``sys.get_int_max_str_digits()``, nesting too deep to parse, or a
    ``\\ud800``-``\\udfff`` escape that is not half of a surrogate pair
    (no UTF-8 text can hold it, so no output could be written).

    A key repeated within one object raises ``SchemaError("$", "repeated
    key … in one object")``, where ``json.loads`` would keep its last value
    unseen; the check costs a Python call per object."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        lone = _lone_surrogate(doc)
        if lone is not None:
            raise SchemaError("$", f"not valid JSON: lone surrogate {lone!r} in a string")
    return doc
