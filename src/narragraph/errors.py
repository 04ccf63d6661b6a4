"""Exception types shared across the package, and the JSON reader that
raises them."""

import json
from typing import Any


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


def parse_json(text: str) -> Any:
    """``json.loads``, raising ``SchemaError("$", "not valid JSON: …")`` for
    any text it cannot decode: malformed JSON, an integer literal longer
    than ``sys.get_int_max_str_digits()`` or nesting too deep to parse."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
