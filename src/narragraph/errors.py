"""Exception types shared across the package."""


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


class CycleError(NarragraphError):
    """A temporal ordering would contain a directed cycle."""


class UnknownUnitError(NarragraphError):
    """A macro-event or event label resolved to nothing."""
