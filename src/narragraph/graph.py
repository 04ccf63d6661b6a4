"""Typed directed multigraph underlying every tier of the story model.

Nodes carry a kind and a flat string-to-string attribute map; edges are
``(src, relation, dst)`` triples with set semantics, remembered in
insertion order so that traversals and serialized output are
deterministic. ``follows`` is a view, not stored: ``(a, follows, b)`` is
stored, found and traversed as ``(b, precedes, a)``.

Stored as read: node id -> kind and -> attrs, the edge set, and adjacency
keyed by relation then node, so one traversal step reads one stored entry.
The store is laid out so that the cyclic GC can skip almost all of it: an
edge key ``(src, relation value, dst)`` holds only strings, so the GC
untracks it after one pass, and an adjacency entry is a bare id at degree 1,
becoming a list only at the second neighbour.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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


# Read once for the per-edge paths: ``rel.value`` is a property call, and
# reading ``RelationKind.FOLLOWS`` through the class is slow too before
# Python 3.12; a dict lookup or a module global costs several times less.
_VALUE = {rel: rel.value for rel in RelationKind}
_RELATION_OF = {rel.value: rel for rel in RelationKind}
_FOLLOWS, _PRECEDES = RelationKind.FOLLOWS, RelationKind.PRECEDES

#: Adjacency of one relation: node id -> one adjacent id, or a list of two or more.
_Adjacency = dict[str, Union[str, list[str]]]


def _link(adjacency: _Adjacency, node: str, other: str) -> None:
    """Append ``other`` to ``node``'s entry: a bare id at degree 1, a list
    from the second neighbour on."""
    held = adjacency.get(node)
    if held is None:
        adjacency[node] = other
    elif type(held) is list:
        held.append(other)
    else:
        adjacency[node] = [held, other]


def _ids(held: Optional[Union[str, list[str]]]) -> Sequence[str]:
    """An adjacency entry, or ``None`` for none, read as a sequence of ids."""
    if held is None:
        return ()
    return held if type(held) is list else (held,)


class NarrativeGraph:
    """Single-writer graph: build it in one thread, then share it for reads."""

    def __init__(self, tier: Tier):
        self.tier = tier
        self._kinds: dict[str, NodeKind] = {}
        self._attrs: dict[str, dict[str, str]] = {}
        # (src, relation value, dst), in insertion order
        self._edges: dict[tuple[str, str, str], None] = {}
        # relation -> node id -> adjacent ids, in edge insertion order
        self._out: dict[RelationKind, _Adjacency] = {rel: {} for rel in RelationKind}
        self._in: dict[RelationKind, _Adjacency] = {rel: {} for rel in RelationKind}

    # -- mutation --------------------------------------------------------

    def add_node(self, node_id: str, kind: NodeKind, attrs: Optional[dict[str, str]] = None) -> None:
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
        kinds = self._kinds
        if src not in kinds or dst not in kinds:
            missing = dst if src in kinds else src
            raise MissingNodeError(f"node {missing!r} is not in the graph")
        if rel is _FOLLOWS:
            src, rel, dst = dst, _PRECEDES, src
        self._insert(src, rel, dst)

    def _insert(self, src: str, rel: RelationKind, dst: str) -> None:
        """Store ``(src, rel, dst)`` between known nodes unless it is held;
        ``rel`` is not ``follows``."""
        key = (src, _VALUE[rel], dst)
        if key not in self._edges:
            self._edges[key] = None
            _link(self._out[rel], src, dst)
            _link(self._in[rel], dst, src)

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
        return ((src, _RELATION_OF[value], dst) for src, value, dst in self._edges)

    def has_edge(self, src: str, rel: RelationKind, dst: str) -> bool:
        if rel is _FOLLOWS:
            src, rel, dst = dst, _PRECEDES, src
        return (src, _VALUE.get(rel), dst) in self._edges

    def _adjacent(self, node_id: str, rel: RelationKind, direction: str) -> Sequence[str]:
        """The stored adjacency behind :meth:`neighbors`, not a copy."""
        if node_id not in self._kinds:
            raise MissingNodeError(f"node {node_id!r} is not in the graph")
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        if rel is _FOLLOWS:
            rel, direction = _PRECEDES, "in" if direction == "out" else "out"
        adjacency = self._out[rel] if direction == "out" else self._in[rel]
        return _ids(adjacency.get(node_id))

    def neighbors(self, node_id: str, rel: RelationKind, direction: str = "out") -> list[str]:
        """Adjacent node ids over ``rel``, in edge insertion order.

        ``direction="out"`` follows edges from the node, ``"in"`` follows
        edges into it. ``follows`` answers from ``precedes`` the other way.
        """
        return list(self._adjacent(node_id, rel, direction))

    def degree(self, node_id: str, rel: RelationKind, direction: str = "out") -> int:
        """``len(self.neighbors(node_id, rel, direction))``, without the copy."""
        return len(self._adjacent(node_id, rel, direction))

    def is_acyclic(self, rels: Iterable[RelationKind]) -> bool:
        """True iff the subgraph restricted to ``rels`` has no directed cycle.
        ``follows`` counts as ``precedes``: its cycles are theirs reversed."""
        keep = {_PRECEDES if rel is _FOLLOWS else rel for rel in rels}
        # Only nodes on a kept edge can lie on a cycle.
        indegree: dict[str, int] = {}
        for rel in keep:
            for src, held in self._out[rel].items():
                indegree.setdefault(src, 0)
                for dst in _ids(held):
                    indegree[dst] = indegree.get(dst, 0) + 1
        queue = deque(node_id for node_id, deg in indegree.items() if deg == 0)
        visited = 0
        while queue:
            node_id = queue.popleft()
            visited += 1
            for rel in keep:
                for dst in _ids(self._out[rel].get(node_id)):
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
    rels = {value: quote(value) for value in _RELATION_OF}
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
        for src, rel, dst in graph._edges
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


# deserialize_graph's lookup tables, derived once from the enums,
# _REQUIRED_ATTRS and _ENDPOINTS, which stay the one home of the rules.
_KIND_OF = {kind.value: kind for kind in NodeKind}
_REQUIRED = {kind: tuple(forms.items()) for kind, forms in _REQUIRED_ATTRS.items()}
#: Allowed (relation, source kind, target kind) triples.
_JOINS = frozenset((rel, src, dst) for rel, pairs in _ENDPOINTS.items() for src, dst in pairs)
# isinstance(value, str) as a one-argument function, for all(map(...)).
_is_str = str.__instancecheck__


def deserialize_graph(text: str) -> NarrativeGraph:
    """Inverse of :func:`serialize_graph`; raises ``SchemaError`` on any
    malformed record: nodes without their ``_REQUIRED_ATTRS``, edges that
    reference unknown nodes or join kinds outside their relation's
    ``_ENDPOINTS``, and ``precedes`` edges that form a cycle. Records are
    checked in file order and the first fault is reported. A repeated
    edge record is a no-op, and a ``follows`` record (older files) loads as
    its ``precedes`` edge. How the records fit together as a story is
    checked by ``UnifiedGraph.from_graph``, so tier graphs and filtered
    exports load too.

    Each record is checked once here and written straight into the store,
    an edge through ``add_edge``'s own writer: a checked record needs none
    of ``add_node``'s or ``add_edge``'s checks."""
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
    kinds, node_attrs = graph._kinds, graph._attrs

    nodes = doc.get("nodes")
    if not isinstance(nodes, list):
        raise SchemaError("nodes", "missing or non-list nodes")
    for i, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise SchemaError(f"nodes[{i}]", "expected an object")
        node_id = entry.get("id")
        if not isinstance(node_id, str):
            raise SchemaError(f"nodes[{i}].id", "missing or non-string id")
        kind_raw = entry.get("kind")
        kind = _KIND_OF.get(kind_raw) if isinstance(kind_raw, str) else None
        if kind is None:
            raise SchemaError(f"nodes[{i}].kind", f"unknown node kind {kind_raw!r}")
        attrs = entry.get("attrs", {})
        # JSON object keys are always strings; only the values need a look.
        if not isinstance(attrs, dict) or not all(map(_is_str, attrs.values())):
            raise SchemaError(f"nodes[{i}].attrs", "attrs must map strings to strings")
        for key, form in _REQUIRED.get(kind, ()):
            if key not in attrs:
                raise SchemaError(f"nodes[{i}].attrs", f"{kind_raw} node lacks attribute {key!r}")
            if form is not None and not form[0](attrs[key]):
                raise SchemaError(f"nodes[{i}].attrs", f"{key} must be {form[1]}, got {attrs[key]!r}")
        if node_id in kinds:
            raise SchemaError(f"nodes[{i}].id", f"duplicate node id {node_id!r}")
        kinds[node_id] = kind
        node_attrs[node_id] = attrs

    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise SchemaError("edges", "missing or non-list edges")
    insert = graph._insert
    for i, entry in enumerate(edges):
        if not isinstance(entry, dict):
            raise SchemaError(f"edges[{i}]", "expected an object")
        rel_raw = entry.get("rel")
        rel = _RELATION_OF.get(rel_raw) if isinstance(rel_raw, str) else None
        if rel is None:
            raise SchemaError(f"edges[{i}].rel", f"unknown relation {rel_raw!r}")
        src, dst = entry.get("src"), entry.get("dst")
        if not isinstance(src, str):
            raise SchemaError(f"edges[{i}].src", "missing or non-string node id")
        src_kind = kinds.get(src)
        if src_kind is None:
            raise SchemaError(f"edges[{i}].src", f"edge references unknown node {src!r}")
        if not isinstance(dst, str):
            raise SchemaError(f"edges[{i}].dst", "missing or non-string node id")
        dst_kind = kinds.get(dst)
        if dst_kind is None:
            raise SchemaError(f"edges[{i}].dst", f"edge references unknown node {dst!r}")
        if (rel, src_kind, dst_kind) not in _JOINS:
            reason = f"{rel_raw} cannot join {src_kind.value} to {dst_kind.value}"
            raise SchemaError(f"edges[{i}]", reason)
        if rel is _FOLLOWS:
            src, rel, dst = dst, _PRECEDES, src
        insert(src, rel, dst)

    if not graph.is_acyclic({_PRECEDES}):
        raise SchemaError("edges", "precedes edges form a cycle")
    return graph
