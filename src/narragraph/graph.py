"""Typed directed multigraph underlying every tier of the story model.

Nodes carry a kind and a flat string-to-string attribute map; edges are
``(src, relation, dst)`` triples with set semantics, remembered in
insertion order so that traversals and serialized output are
deterministic. ``follows`` is a view, not stored: ``(a, follows, b)`` is
stored, found and traversed as ``(b, precedes, a)``.

Stored as read: node id -> kind and -> attrs, the edge set, and adjacency
keyed by relation then node, so one traversal step reads one stored list.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, Optional

from .errors import DuplicateNodeError, MissingNodeError, SchemaError, parse_json


class NodeKind(str, Enum):
    PANEL = "panel"
    PANEL_VISUAL = "panel_visual"
    PANEL_TEXTUAL = "panel_textual"
    CHARACTER_MENTION = "character_mention"
    CHARACTER = "character"
    ACTION = "action"
    SCENE_OBJECT = "scene_object"
    DIALOGUE = "dialogue"
    DIALOGUE_CONTENT = "dialogue_content"
    CAPTION = "caption"
    EVENT_SEGMENT = "event_segment"
    EVENT = "event"
    MACRO_EVENT = "macro_event"


class RelationKind(str, Enum):
    HAS_VISUAL = "has_visual"
    HAS_TEXTUAL = "has_textual"
    HAS_CHARACTER = "has_character"
    HAS_ACTION = "has_action"
    HAS_OBJECT = "has_object"
    AGENT_OF = "agent_of"
    PART_OF = "part_of"
    CONTENT_OF = "content_of"
    INSTANTIATES = "instantiates"
    SUBEVENT_OF = "subevent_of"
    PRECEDES = "precedes"
    FOLLOWS = "follows"
    CO_OCCURS = "co_occurs"
    REFERS_TO = "refers_to"


class Tier(str, Enum):
    PANEL = "panel"
    TEMPORAL = "temporal"
    EVENT = "event"
    UNIFIED = "unified"


class NarrativeGraph:
    """Single-writer graph; call :meth:`freeze` before sharing for reads."""

    def __init__(self, tier: Tier):
        self.tier = tier
        self._kinds: dict[str, NodeKind] = {}
        self._attrs: dict[str, dict[str, str]] = {}
        self._edges: dict[tuple[str, RelationKind, str], None] = {}
        # relation -> node id -> adjacent ids, in edge insertion order
        self._out: dict[RelationKind, dict[str, list[str]]] = {rel: {} for rel in RelationKind}
        self._in: dict[RelationKind, dict[str, list[str]]] = {rel: {} for rel in RelationKind}
        self._frozen = False

    # -- mutation --------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError("graph is frozen")

    def add_node(self, node_id: str, kind: NodeKind, attrs: Optional[dict[str, str]] = None) -> None:
        self._check_mutable()
        if node_id in self._kinds:
            held = self._kinds[node_id]
            clash = "" if held is kind else f" with kind {held.value!r}, not {kind.value!r}"
            raise DuplicateNodeError(f"node {node_id!r} already exists{clash}")
        attrs = dict(attrs) if attrs else {}
        for key, value in attrs.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise TypeError("node attributes must map strings to strings")
        self._kinds[node_id] = kind
        self._attrs[node_id] = attrs

    def add_edge(self, src: str, rel: RelationKind, dst: str) -> None:
        """Insert ``(src, rel, dst)``; re-adding is a no-op. A ``follows``
        edge is stored as its ``precedes`` inverse."""
        self._check_mutable()
        for endpoint in (src, dst):
            if endpoint not in self._kinds:
                raise MissingNodeError(f"node {endpoint!r} is not in the graph")
        if rel is RelationKind.FOLLOWS:
            src, rel, dst = dst, RelationKind.PRECEDES, src
        key = (src, rel, dst)
        if key in self._edges:
            return
        self._edges[key] = None
        self._out[rel].setdefault(src, []).append(dst)
        self._in[rel].setdefault(dst, []).append(src)

    def freeze(self) -> None:
        """Mark construction finished; later mutations raise."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- queries ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._kinds)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._kinds

    def node_kind(self, node_id: str) -> NodeKind:
        try:
            return self._kinds[node_id]
        except KeyError:
            raise MissingNodeError(f"node {node_id!r} is not in the graph") from None

    def node_attrs(self, node_id: str) -> dict[str, str]:
        """Attribute map of a node. Treat the result as read-only."""
        try:
            return self._attrs[node_id]
        except KeyError:
            raise MissingNodeError(f"node {node_id!r} is not in the graph") from None

    def node_ids(self) -> list[str]:
        return list(self._kinds)

    def nodes(self) -> Iterator[tuple[str, NodeKind, dict[str, str]]]:
        for node_id, kind in self._kinds.items():
            yield node_id, kind, self._attrs[node_id]

    def nodes_of_kind(self, kind: NodeKind) -> list[str]:
        return [node_id for node_id, held in self._kinds.items() if held is kind]

    def edges(self) -> Iterator[tuple[str, RelationKind, str]]:
        return iter(self._edges)

    def has_edge(self, src: str, rel: RelationKind, dst: str) -> bool:
        if rel is RelationKind.FOLLOWS:
            src, rel, dst = dst, RelationKind.PRECEDES, src
        return (src, rel, dst) in self._edges

    def neighbors(self, node_id: str, rel: RelationKind, direction: str = "out") -> list[str]:
        """Adjacent node ids over ``rel``, in edge insertion order.

        ``direction="out"`` follows edges from the node, ``"in"`` follows
        edges into it. ``follows`` answers from ``precedes`` the other way.
        """
        if node_id not in self._kinds:
            raise MissingNodeError(f"node {node_id!r} is not in the graph")
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        if rel is RelationKind.FOLLOWS:
            rel, direction = RelationKind.PRECEDES, "in" if direction == "out" else "out"
        adjacency = self._out[rel] if direction == "out" else self._in[rel]
        return list(adjacency.get(node_id, ()))

    def is_acyclic(self, rels: Iterable[RelationKind]) -> bool:
        """True iff the subgraph restricted to ``rels`` has no directed cycle.
        ``follows`` counts as ``precedes``: its cycles are theirs reversed."""
        keep = {RelationKind.PRECEDES if rel is RelationKind.FOLLOWS else rel for rel in rels}
        # Only nodes on a kept edge can lie on a cycle.
        indegree: dict[str, int] = {}
        for rel in keep:
            for src, dsts in self._out[rel].items():
                indegree.setdefault(src, 0)
                for dst in dsts:
                    indegree[dst] = indegree.get(dst, 0) + 1
        queue = deque(node_id for node_id, deg in indegree.items() if deg == 0)
        visited = 0
        while queue:
            node_id = queue.popleft()
            visited += 1
            for rel in keep:
                for dst in self._out[rel].get(node_id, ()):
                    indegree[dst] -= 1
                    if indegree[dst] == 0:
                        queue.append(dst)
        return visited == len(indegree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NarrativeGraph):
            return NotImplemented
        return (
            self.tier is other.tier
            and list(self.nodes()) == list(other.nodes())
            and list(self._edges) == list(other._edges)
        )

    def __repr__(self) -> str:
        return (
            f"NarrativeGraph(tier={self.tier.value!r}, "
            f"nodes={self.node_count}, edges={self.edge_count})"
        )


# --- serialization -----------------------------------------------------

def _json_list(records: list[str]) -> str:
    return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"


def serialize_graph(graph: NarrativeGraph) -> str:
    """Node-link JSON form, nodes and edges in insertion order.

    The text is exactly ``json.dumps(obj, indent=2, ensure_ascii=False) +
    "\\n"`` of ``{"tier", "nodes": [{"id", "kind", "attrs"}], "edges":
    [{"src", "rel", "dst"}]}``. It is written here directly because
    ``json.dumps`` with ``indent`` runs the pure-Python encoder; every string
    goes through the same C string encoder that ``json.dumps`` uses.
    """
    quote = encode_basestring
    kinds = {kind: quote(kind.value) for kind in NodeKind}
    rels = {rel: quote(rel.value) for rel in RelationKind}
    nodes = []
    for node_id, kind, attrs in graph.nodes():
        if attrs:
            attrs_text = (
                "{\n"
                + ",\n".join(f"        {quote(k)}: {quote(v)}" for k, v in attrs.items())
                + "\n      }"
            )
        else:
            attrs_text = "{}"
        nodes.append(
            f'    {{\n      "id": {quote(node_id)},\n      "kind": {kinds[kind]},\n'
            f'      "attrs": {attrs_text}\n    }}'
        )
    edges = [
        f'    {{\n      "src": {quote(src)},\n      "rel": {rels[rel]},\n      "dst": {quote(dst)}\n    }}'
        for src, rel, dst in graph.edges()
    ]
    return (
        f'{{\n  "tier": {quote(graph.tier.value)},\n  "nodes": {_json_list(nodes)},\n'
        f'  "edges": {_json_list(edges)}\n}}\n'
    )


def _is_reading_order(value: str) -> bool:
    # int() also refuses more digits than sys.get_int_max_str_digits().
    try:
        return value.isdecimal() and int(value) >= 0
    except ValueError:
        return False


#: Attributes the queries read, per node kind, with a format test where one applies.
_REQUIRED_ATTRS: dict[NodeKind, dict[str, Optional[tuple[Callable[[str], bool], str]]]] = {
    NodeKind.PANEL: {"reading_order": (_is_reading_order, "a non-negative decimal integer")},
    NodeKind.ACTION: {"verb": None},
    NodeKind.DIALOGUE_CONTENT: {"text": None},
    NodeKind.CHARACTER: {"label": None},
    NodeKind.EVENT: {"label": None},
    NodeKind.MACRO_EVENT: {"label": None},
}

# Reading order and narrative order chain nodes of one kind.
_ORDERED = {
    (kind, kind)
    for kind in (NodeKind.PANEL, NodeKind.EVENT_SEGMENT, NodeKind.EVENT, NodeKind.MACRO_EVENT)
}

#: (source kind, target kind) pairs each relation may join; ``follows``,
#: the view of ``precedes``, joins the same pairs.
_ENDPOINTS: dict[RelationKind, set[tuple[NodeKind, NodeKind]]] = {
    RelationKind.HAS_VISUAL: {(NodeKind.PANEL, NodeKind.PANEL_VISUAL)},
    RelationKind.HAS_TEXTUAL: {(NodeKind.PANEL, NodeKind.PANEL_TEXTUAL)},
    RelationKind.HAS_CHARACTER: {(NodeKind.PANEL_VISUAL, NodeKind.CHARACTER_MENTION)},
    RelationKind.HAS_ACTION: {(NodeKind.PANEL_VISUAL, NodeKind.ACTION)},
    RelationKind.HAS_OBJECT: {(NodeKind.PANEL_VISUAL, NodeKind.SCENE_OBJECT)},
    RelationKind.AGENT_OF: {(NodeKind.ACTION, NodeKind.CHARACTER_MENTION)},
    RelationKind.PART_OF: {
        (NodeKind.DIALOGUE, NodeKind.PANEL_TEXTUAL),
        (NodeKind.CAPTION, NodeKind.PANEL_TEXTUAL),
    },
    RelationKind.CONTENT_OF: {
        (NodeKind.DIALOGUE_CONTENT, NodeKind.DIALOGUE),
        (NodeKind.DIALOGUE_CONTENT, NodeKind.CAPTION),
    },
    RelationKind.INSTANTIATES: {(NodeKind.PANEL, NodeKind.EVENT_SEGMENT)},
    RelationKind.SUBEVENT_OF: {
        (NodeKind.EVENT_SEGMENT, NodeKind.EVENT),
        (NodeKind.EVENT, NodeKind.MACRO_EVENT),
    },
    RelationKind.PRECEDES: _ORDERED,
    RelationKind.FOLLOWS: _ORDERED,
    RelationKind.CO_OCCURS: {(NodeKind.EVENT, NodeKind.EVENT)},
    RelationKind.REFERS_TO: {(NodeKind.CHARACTER_MENTION, NodeKind.CHARACTER)},
}


def deserialize_graph(text: str) -> NarrativeGraph:
    """Inverse of :func:`serialize_graph`; raises ``SchemaError`` on any
    malformed record: nodes without their ``_REQUIRED_ATTRS``, edges that
    reference unknown nodes or join kinds outside their relation's
    ``_ENDPOINTS``, and ``precedes`` edges that form a cycle. A repeated
    edge record is a no-op, and a ``follows`` record (older files) loads as
    its ``precedes`` edge. How the records fit together as a story is
    checked by ``UnifiedGraph.from_graph``, so tier graphs and filtered
    exports load too."""
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")

    tier_raw = doc.get("tier")
    if not isinstance(tier_raw, str):
        raise SchemaError("tier", "missing or non-string tier")
    try:
        tier = Tier(tier_raw)
    except ValueError:
        raise SchemaError("tier", f"unknown tier {tier_raw!r}") from None

    graph = NarrativeGraph(tier)
    kinds = graph._kinds

    nodes = doc.get("nodes")
    if not isinstance(nodes, list):
        raise SchemaError("nodes", "missing or non-list nodes")
    for i, entry in enumerate(nodes):
        path = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        node_id = entry.get("id")
        if not isinstance(node_id, str):
            raise SchemaError(f"{path}.id", "missing or non-string id")
        kind_raw = entry.get("kind")
        try:
            kind = NodeKind(kind_raw)
        except ValueError:
            raise SchemaError(f"{path}.kind", f"unknown node kind {kind_raw!r}") from None
        attrs = entry.get("attrs", {})
        if not isinstance(attrs, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in attrs.items()
        ):
            raise SchemaError(f"{path}.attrs", "attrs must map strings to strings")
        for key, form in _REQUIRED_ATTRS.get(kind, {}).items():
            if key not in attrs:
                raise SchemaError(f"{path}.attrs", f"{kind.value} node lacks attribute {key!r}")
            if form is not None and not form[0](attrs[key]):
                raise SchemaError(f"{path}.attrs", f"{key} must be {form[1]}, got {attrs[key]!r}")
        try:
            graph.add_node(node_id, kind, attrs)
        except DuplicateNodeError:
            raise SchemaError(f"{path}.id", f"duplicate node id {node_id!r}") from None

    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise SchemaError("edges", "missing or non-list edges")
    for i, entry in enumerate(edges):
        path = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        rel_raw = entry.get("rel")
        try:
            rel = RelationKind(rel_raw)
        except ValueError:
            raise SchemaError(f"{path}.rel", f"unknown relation {rel_raw!r}") from None
        src, dst = entry.get("src"), entry.get("dst")
        for key, endpoint in (("src", src), ("dst", dst)):
            if not isinstance(endpoint, str):
                raise SchemaError(f"{path}.{key}", "missing or non-string node id")
            if endpoint not in kinds:
                raise SchemaError(f"{path}.{key}", f"edge references unknown node {endpoint!r}")
        if (kinds[src], kinds[dst]) not in _ENDPOINTS[rel]:
            raise SchemaError(
                path, f"{rel.value} cannot join {kinds[src].value} to {kinds[dst].value}"
            )
        graph.add_edge(src, rel, dst)

    if not graph.is_acyclic({RelationKind.PRECEDES}):
        raise SchemaError("edges", "precedes edges form a cycle")
    return graph
