"""Typed directed multigraph underlying every tier of the story model.

Nodes carry a kind and a flat string-to-string attribute map; edges are
``(src, relation, dst)`` triples with set semantics, remembered in
insertion order so that traversals and serialized output are
deterministic. Story order is one relation, ``precedes``, written from
each panel, segment, event or macro-event to the next; the one before a
node is its ``precedes`` neighbour in the ``"in"`` direction.

Stored as written: node id -> kind and -> attrs, and the edge set, each
edge once. Adjacency, keyed by direction, relation and node so that one
traversal step reads one entry, is an index over the edge set. Its public
readers are ``neighbors``, the one traversal step, and ``is_acyclic``, the
load's check that ``precedes`` has no cycle. The first read builds the
maps of the pairs the commands read, ``_READ``, in one pass and publishes
them by one assignment, as the first read of any other pair does its map;
every later write keeps them current. A built graph's first read is a
query's; a loaded graph's is the load's own cycle check.

Graph files are written by one generator, ``graph_chunks``, the one home
of their layout: it yields the text in chunks of ``_CHUNK`` records, which
``serialize_graph`` joins and ``build`` writes as they come, so a build never
holds the whole text. Graph files load in one walk: each node and edge check
runs once, in order, and raises its own fault, as each field check of
``parse_corpus`` does.

The store is laid out so that the cyclic GC can skip almost all of it: an
edge key ``(src, relation value, dst)`` holds only strings, so the GC
untracks it after one pass, and an adjacency entry is a bare id at degree 1,
becoming a list only at the second neighbour.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring
from typing import Any, Callable, Iterator, NoReturn, Optional, Sequence, Union

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
    CO_OCCURS = "co_occurs"
    REFERS_TO = "refers_to"


class Tier(str, Enum):
    PANEL = "panel"
    TEMPORAL = "temporal"
    EVENT = "event"
    UNIFIED = "unified"


# Read once for the per-edge paths: ``rel.value`` is a property call, and
# reading a member through the class is slow too before Python 3.12; a
# dict lookup or a module global costs several times less.
_VALUE = {rel: rel.value for rel in RelationKind}
# A str enum member hashes and compares as its value, so these also map it to itself.
_RELATION_OF = {rel.value: rel for rel in RelationKind}
_KIND_OF = {kind.value: kind for kind in NodeKind}
_PRECEDES = RelationKind.PRECEDES

#: Direction -> the relations the queries, ``from_graph`` and ``is_acyclic`` read that way.
_READ = {
    "out": (RelationKind.HAS_VISUAL, RelationKind.HAS_TEXTUAL, RelationKind.INSTANTIATES, RelationKind.SUBEVENT_OF,
            RelationKind.REFERS_TO, RelationKind.HAS_ACTION, RelationKind.HAS_CHARACTER, _PRECEDES),
    "in": (RelationKind.SUBEVENT_OF, RelationKind.INSTANTIATES, RelationKind.PART_OF, RelationKind.CONTENT_OF),
}

#: Adjacency of one relation: node id -> one adjacent id, or a list of two or more.
_Adjacency = dict[str, Union[str, list[str]]]
_Index = dict[str, dict[RelationKind, _Adjacency]]


def _unknown(what: str, value: Any) -> NoReturn:
    raise ValueError(f"unknown {what} {value!r}")


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
    """Single-writer graph: build it in one thread, then share it for reads.

    The index, and each pair's map outside ``_READ``, is published by one
    assignment once built, so threads sharing a graph for reads may each build
    one but never see half of one. Kinds and relations are members or values."""

    def __init__(self, tier: Tier):
        self.tier = tier
        self._kinds: dict[str, NodeKind] = {}
        self._attrs: dict[str, dict[str, str]] = {}
        # (src, relation value, dst), in insertion order
        self._edges: dict[tuple[str, str, str], None] = {}
        # "out"/"in" -> relation -> node id -> adjacent ids, in edge
        # insertion order; None until the first adjacency read
        self._adjacency: Optional[_Index] = None

    # -- mutation --------------------------------------------------------

    def add_node(self, node_id: str, kind: NodeKind, attrs: Optional[dict[str, str]] = None) -> None:
        kind = _KIND_OF.get(kind) or _unknown("node kind", kind)
        if not isinstance(node_id, str):
            raise TypeError(f"node ids must be strings, not {type(node_id).__name__}")
        # A held id raises in _put_node before the attributes are read.
        if node_id not in self._kinds:
            attrs = dict(attrs) if attrs else {}
            for key, value in attrs.items():
                if not isinstance(key, str) or not isinstance(value, str):
                    raise TypeError("node attributes must map strings to strings")
        self._put_node(node_id, kind, attrs)

    def _put_node(self, node_id: str, kind: NodeKind, attrs: dict[str, str]) -> None:
        """Store a new node and take ``attrs``, which must map strings to
        strings, as its own map, uncopied; a held id raises
        ``DuplicateNodeError``."""
        kinds = self._kinds
        if node_id in kinds:
            held = kinds[node_id]
            clash = "" if held is kind else f" with kind {held.value!r}, not {kind.value!r}"
            raise DuplicateNodeError(f"node {node_id!r} already exists{clash}")
        kinds[node_id] = kind
        self._attrs[node_id] = attrs

    def add_edge(self, src: str, rel: RelationKind, dst: str) -> None:
        """Insert ``(src, rel, dst)``; re-adding is a no-op."""
        kinds = self._kinds
        if src not in kinds or dst not in kinds:
            missing = dst if src in kinds else src
            raise MissingNodeError(f"node {missing!r} is not in the graph")
        self._insert(src, rel if rel in _VALUE else _unknown("relation", rel), dst)

    def _insert(self, src: str, rel: RelationKind, dst: str) -> None:
        """Store ``(src, rel, dst)`` between known nodes unless it is held,
        and keep the adjacency index current once it is built."""
        key = (src, _VALUE[rel], dst)
        edges = self._edges
        if key not in edges:
            edges[key] = None
            adjacency = self._adjacency
            if adjacency is not None:
                for direction, node, other in (("out", src, dst), ("in", dst, src)):
                    if rel in adjacency[direction]:
                        _link(adjacency[direction][rel], node, other)

    def _build_index(self) -> _Index:
        """Build the index, the ``_READ`` maps, in one pass over the edges and
        publish and return it, on the first read. Any other pair is built and
        published alone."""
        adjacency = self._adjacency = self._fill({d: {rel: {} for rel in rels} for d, rels in _READ.items()})
        return adjacency

    def _fill(self, adjacency: _Index) -> _Index:
        """Link each stored edge into the maps ``adjacency`` holds, in one
        pass, and return it."""
        out, into = adjacency.get("out", {}), adjacency.get("in", {})
        # Relation value -> (its out map or None, its in map or None).
        maps = {value: (out.get(rel), into.get(rel)) for rel, value in _VALUE.items()}
        for src, value, dst in self._edges:
            out_map, in_map = maps[value]
            if out_map is not None:
                _link(out_map, src, dst)
            if in_map is not None:
                _link(in_map, dst, src)
        return adjacency

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

    def nodes(self) -> Iterator[tuple[str, NodeKind, dict[str, str]]]:
        for node_id, kind in self._kinds.items():
            yield node_id, kind, self._attrs[node_id]

    def nodes_of_kind(self, kind: NodeKind) -> list[str]:
        return [node_id for node_id, held in self._kinds.items() if held is kind]

    def edges(self) -> Iterator[tuple[str, RelationKind, str]]:
        return ((src, _RELATION_OF[value], dst) for src, value, dst in self._edges)

    def neighbors(self, node_id: str, rel: RelationKind, direction: str = "out") -> list[str]:
        """Adjacent node ids over ``rel``, in edge insertion order, as a new list.

        ``direction="out"`` reads edges from the node, ``"in"`` edges into
        it. A degree is ``len`` of this, and an edge test ``dst in`` it.
        """
        if node_id not in self._kinds:
            raise MissingNodeError(f"node {node_id!r} is not in the graph")
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        adjacency = (self._adjacency or self._build_index())[direction]
        try:
            held = adjacency[rel]
        except KeyError:  # a pair outside _READ read for the first time, or no relation
            rel = _RELATION_OF.get(rel) or _unknown("relation", rel)
            held = adjacency[rel] = self._fill({direction: {rel: {}}})[direction][rel]
        return list(_ids(held.get(node_id)))

    def is_acyclic(self) -> bool:
        """True iff the ``precedes`` edges form no directed cycle."""
        out = (self._adjacency or self._build_index())["out"][_PRECEDES]
        # Only nodes on a precedes edge can lie on a cycle.
        indegree: dict[str, int] = {}
        for src, held in out.items():
            indegree.setdefault(src, 0)
            for dst in _ids(held):
                indegree[dst] = indegree.get(dst, 0) + 1
        queue = deque(node_id for node_id, deg in indegree.items() if deg == 0)
        visited = 0
        while queue:
            node_id = queue.popleft()
            visited += 1
            for dst in _ids(out.get(node_id)):
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

#: Records joined into one chunk of ``graph_chunks``: enough to keep the
#: calls per record negligible, few enough that a chunk stays small.
_CHUNK = 2048
#: The ``"format"`` of the graph files this module writes and reads.
_FORMAT = 2


def _json_list(records: Iterator[str]) -> Iterator[str]:
    """The JSON list of ``records``, one to a line, in chunks of ``_CHUNK``
    records, each joined once."""
    opening = "[\n"
    while batch := list(islice(records, _CHUNK)):
        yield opening + ",\n".join(batch)
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n  ]"


def graph_chunks(graph: NarrativeGraph) -> Iterator[str]:
    """The format 2 JSON text of ``graph`` in pieces: the header, the node
    records and then the edge records in chunks of ``_CHUNK``, and the
    footer. It is the one home of the layout; see :func:`serialize_graph`."""
    quote = encode_basestring
    kinds = {kind: quote(kind.value) for kind in NodeKind}
    rels = {value: quote(value) for value in _RELATION_OF}
    # Attribute keys repeat across nodes: each is quoted once, with its
    # separator (quoting each anew cost serialize 4% at n_macro=160).
    keys: dict[str, str] = {}
    quoted = keys.get

    def key_text(key: str) -> str:
        text = keys[key] = f"{quote(key)}: "
        return text

    def node_records() -> Iterator[str]:
        attrs_of = graph._attrs
        for node_id, kind in graph._kinds.items():
            attrs = attrs_of[node_id]
            attrs_text = ", ".join([(quoted(k) or key_text(k)) + quote(v) for k, v in attrs.items()])
            yield f"    {quote(node_id)}, {kinds[kind]}, {{{attrs_text}}}"

    yield f'{{\n  "format": {_FORMAT},\n  "tier": {quote(graph.tier.value)},\n  "nodes": '
    yield from _json_list(node_records())
    yield ',\n  "edges": '
    yield from _json_list(f"    {quote(src)}, {rels[rel]}, {quote(dst)}" for src, rel, dst in graph._edges)
    yield "\n}\n"


def serialize_graph(graph: NarrativeGraph) -> str:
    """Format 2 JSON text, nodes and edges in insertion order: the chunks of
    :func:`graph_chunks`, joined.

    The document is ``{"format": 2, "tier", "nodes": [id, kind, attrs, ...],
    "edges": [src, rel, dst, ...]}``: each list flat, three items to a
    record and one record to a line, each value written as ``json.dumps(v,
    ensure_ascii=False)`` writes it. Every string goes through the C string
    encoder that ``json.dumps`` uses.
    """
    return "".join(graph_chunks(graph))


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

#: (source kind, target kind) pairs each relation may join.
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
    # Reading order and narrative order chain nodes of one kind.
    RelationKind.PRECEDES: {
        (kind, kind)
        for kind in (NodeKind.PANEL, NodeKind.EVENT_SEGMENT, NodeKind.EVENT, NodeKind.MACRO_EVENT)
    },
    RelationKind.CO_OCCURS: {(NodeKind.EVENT, NodeKind.EVENT)},
    RelationKind.REFERS_TO: {(NodeKind.CHARACTER_MENTION, NodeKind.CHARACTER)},
}


# deserialize_graph's lookup tables, derived once from the enums,
# _REQUIRED_ATTRS and _ENDPOINTS, which stay the one home of the rules.
_REQUIRED = {kind: tuple(_REQUIRED_ATTRS.get(kind, {}).items()) for kind in NodeKind}
#: Relation as written -> source kind -> target kind -> the relation's value,
#: stored in the edge key so that keys share one string per relation.
_JOINS = {
    rel.value: {src: {dst: rel.value for s, dst in pairs if s is src} for src, _ in pairs}
    for rel, pairs in _ENDPOINTS.items()
}


def _endpoint_fault(path: str, node_id: Any) -> SchemaError:
    """The error of an edge endpoint ``node_id`` that names no node."""
    if not isinstance(node_id, str):
        return SchemaError(path, "missing or non-string node id")
    return SchemaError(path, f"edge references unknown node {node_id!r}")


#: The keys of a graph file's top level.
_TOP_KEYS = ("format", "tier", "nodes", "edges")


def _records(doc: dict, key: str) -> Iterator[tuple[int, tuple[Any, Any, Any]]]:
    """The numbered records of ``doc[key]``, a flat list read three items at
    a time."""
    items = doc.pop(key, None)
    if not isinstance(items, list):
        raise SchemaError(key, f"missing or non-list {key}")
    if len(items) % 3:
        raise SchemaError(key, f"{len(items)} items do not make whole records of 3")
    it = iter(items)
    return enumerate(zip(it, it, it))


def deserialize_graph(text: str) -> NarrativeGraph:
    """Inverse of :func:`serialize_graph`; raises ``SchemaError`` at the
    first malformed record in file order (nodes without their
    ``_REQUIRED_ATTRS``, edges that reference unknown nodes or join kinds
    outside their relation's ``_ENDPOINTS``), then if ``precedes`` edges
    form a cycle. A repeated edge record is a no-op. How the records
    fit together as a story is checked by ``UnifiedGraph.from_graph``, so
    tier graphs and filtered exports load too.

    The document: an object, with no repeated key in any object, whose
    ``format`` is 2 (a node-link file of an earlier version is refused at
    ``$``), with no key outside ``_TOP_KEYS``, then ``tier``, then each
    record list, whose length is a multiple of 3. Each record check runs
    once and raises where it fails, at the record's number ``i``, not its
    list position. A node: ``id``, ``kind``, the ``attrs`` map, the
    required attributes and their format, the duplicate id. An edge:
    ``rel``, ``src`` and ``dst`` (each a string, then a node), and the join
    in ``_JOINS``. No path is built for a record that passes. Nodes and
    edges are stored uncopied and the index is left alone: the cycle check
    is the graph's first read, and builds it as any first read does."""
    doc = parse_json(text, unique_keys=True)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")
    if doc.get("format") != _FORMAT or type(doc["format"]) is not int:
        raise SchemaError("$", f"not a format {_FORMAT} graph file; narragraph build writes one from its corpus")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SchemaError(key, "unknown key; a graph file holds format, tier, nodes and edges")

    tier_raw = doc.get("tier")
    if not isinstance(tier_raw, str):
        raise SchemaError("tier", "missing or non-string tier")
    try:
        tier = Tier(tier_raw)
    except ValueError:
        raise SchemaError("tier", f"unknown tier {tier_raw!r}") from None

    graph = NarrativeGraph(tier)
    # Stored directly: routing each record through _put_node and _insert cost the load 7%.
    kinds, attrs_of, edge_set = graph._kinds, graph._attrs, graph._edges

    # Each list is taken out of the document, so that the node list, and the
    # kind strings only it holds, are freed before the edge walk.
    for i, (node_id, kind_raw, attrs) in _records(doc, "nodes"):
        if type(node_id) is not str:
            raise SchemaError(f"nodes[{i}].id", "missing or non-string id")
        try:
            kind = _KIND_OF[kind_raw]
        except (KeyError, TypeError):
            raise SchemaError(f"nodes[{i}].kind", f"unknown node kind {kind_raw!r}") from None
        if type(attrs) is not dict:
            raise SchemaError(f"nodes[{i}].attrs", "attrs must map strings to strings")
        # JSON object keys are always strings; only the values need a look.
        for value in attrs.values():
            if type(value) is not str:
                raise SchemaError(f"nodes[{i}].attrs", "attrs must map strings to strings")
        for key, form in _REQUIRED[kind]:
            if key not in attrs:
                raise SchemaError(f"nodes[{i}].attrs", f"{kind.value} node lacks attribute {key!r}")
            if form is not None and not form[0](attrs[key]):
                raise SchemaError(f"nodes[{i}].attrs", f"{key} must be {form[1]}, got {attrs[key]!r}")
        if node_id in kinds:
            raise SchemaError(f"nodes[{i}].id", f"duplicate node id {node_id!r}")
        kinds[node_id] = kind
        attrs_of[node_id] = attrs

    for i, (src, rel_raw, dst) in _records(doc, "edges"):
        try:
            joins = _JOINS[rel_raw]
        except (KeyError, TypeError):
            raise SchemaError(f"edges[{i}].rel", f"unknown relation {rel_raw!r}") from None
        try:
            src_kind = kinds[src]
        except (KeyError, TypeError):
            raise _endpoint_fault(f"edges[{i}].src", src) from None
        try:
            dst_kind = kinds[dst]
        except (KeyError, TypeError):
            raise _endpoint_fault(f"edges[{i}].dst", dst) from None
        try:
            value = joins[src_kind][dst_kind]
        except KeyError:
            fault = f"{rel_raw} cannot join {src_kind.value} to {dst_kind.value}"
            raise SchemaError(f"edges[{i}]", fault) from None
        # A repeated record stores its key again, which keeps the first's place.
        edge_set[(src, value, dst)] = None

    if not graph.is_acyclic():
        raise SchemaError("edges", "precedes edges form a cycle")
    return graph
