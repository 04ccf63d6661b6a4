"""Builders that turn a validated corpus into the three tier graphs and
integrate them into one unified story graph.

Node ids are namespaced so the tier unions can never collide:
``panel:<id>``, ``seg:<id>``, ``event:<id>``, ``macro:<id>``,
``char:<normalized label>``, plus per-panel suffixes such as
``panel:0_0_0/char:a`` for mention, action, dialogue and caption nodes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import pairwise

from .annotations import AnnotationCorpus, EventSegment, PanelAnnotation, normalize_token
from .errors import SchemaError
from .graph import NarrativeGraph, NodeKind, RelationKind, Tier


def panel_node_id(panel_id: str) -> str:
    return f"panel:{panel_id}"


def panel_id_of(node_id: str) -> str:
    return node_id.removeprefix("panel:")


def segment_node_id(segment_id: str) -> str:
    return f"seg:{segment_id}"


def segment_id_of(node_id: str) -> str:
    return node_id.removeprefix("seg:")


def event_node_id(event_id: str) -> str:
    return f"event:{event_id}"


def macro_node_id(macro_id: str) -> str:
    return f"macro:{macro_id}"


#: Kinds the queries resolve by label, so no two nodes of one may share it.
UNIT_KINDS = frozenset({NodeKind.EVENT, NodeKind.MACRO_EVENT})

#: Relations the queries follow from a node of each kind to exactly one target:
#: a panel's hubs and segment, a segment's or event's parent, a mention's character.
_ONE_TARGET: dict[NodeKind, tuple[RelationKind, ...]] = {
    NodeKind.PANEL: (RelationKind.HAS_VISUAL, RelationKind.HAS_TEXTUAL, RelationKind.INSTANTIATES),
    NodeKind.EVENT_SEGMENT: (RelationKind.SUBEVENT_OF,),
    NodeKind.EVENT: (RelationKind.SUBEVENT_OF,),
    NodeKind.CHARACTER_MENTION: (RelationKind.REFERS_TO,),
}


# Members read once: before Python 3.12 a read through the enum class costs
# about ten times a global lookup, and the panel writer makes several per node.
_PANEL, _VISUAL, _TEXTUAL = NodeKind.PANEL, NodeKind.PANEL_VISUAL, NodeKind.PANEL_TEXTUAL
_MENTION, _ACTION, _OBJECT = NodeKind.CHARACTER_MENTION, NodeKind.ACTION, NodeKind.SCENE_OBJECT
_DIALOGUE, _CAPTION, _CONTENT = NodeKind.DIALOGUE, NodeKind.CAPTION, NodeKind.DIALOGUE_CONTENT
_HAS_VISUAL, _HAS_TEXTUAL = RelationKind.HAS_VISUAL, RelationKind.HAS_TEXTUAL
_HAS_CHARACTER, _HAS_ACTION, _HAS_OBJECT = (
    RelationKind.HAS_CHARACTER, RelationKind.HAS_ACTION, RelationKind.HAS_OBJECT
)
_AGENT_OF, _PART_OF, _CONTENT_OF = RelationKind.AGENT_OF, RelationKind.PART_OF, RelationKind.CONTENT_OF


@dataclass
class UnifiedGraph:
    """Integrated graph plus the unit-label index the queries start from."""

    graph: NarrativeGraph
    index: dict[tuple[NodeKind, str], str]

    @classmethod
    def from_graph(cls, graph: NarrativeGraph) -> "UnifiedGraph":
        """Index events and macro-events (``UNIT_KINDS``) by label and check
        the story contract the queries trust: ``SchemaError`` at ``nodes[i].attrs``
        for a missing or repeated label, at ``nodes[i]`` unless each ``_ONE_TARGET``
        relation has exactly one edge. ``i`` is the position in ``graph.nodes()``.

        The one home of the unit-label rule. :func:`integrate` fills the
        index as it writes the units and calls this only when a label repeats;
        its writes meet the rest of the contract by construction."""
        index: dict[tuple[NodeKind, str], str] = {}
        # The index read directly: a neighbors() call per node cost from_graph 70%.
        out = (graph._adjacency or graph._build_index())["out"]
        for i, (node_id, kind) in enumerate(graph._kinds.items()):
            if kind in UNIT_KINDS:
                try:
                    label = graph._attrs[node_id]["label"]
                except KeyError:  # as deserialize_graph refuses the node's record
                    raise SchemaError(f"nodes[{i}].attrs", f"{kind.value} node lacks attribute 'label'") from None
                if (kind, label) in index:
                    reason = f"duplicate {kind.value} label {label!r}"
                    raise SchemaError(f"nodes[{i}].attrs", reason)
                index[(kind, label)] = node_id
            for rel in _ONE_TARGET.get(kind, ()):
                if type(out[rel].get(node_id)) is not str:
                    n = len(graph.neighbors(node_id, rel, "out"))
                    reason = f"{kind.value} {node_id!r} has {n} {rel.value} edges, not 1"
                    raise SchemaError(f"nodes[{i}]", reason)
        return cls(graph=graph, index=index)


def _write_panel(g: NarrativeGraph, panel: PanelAnnotation) -> list[tuple[str, str, str]]:
    """Write the multimodal subgraph of one panel into ``g``; a node id
    that ``g`` already holds raises ``DuplicateNodeError``. Returns the
    panel's character mentions in write order, the order of its
    ``has_character`` edges, as ``(mention id, normalized token, label)``.

    Each node is new and each edge joins two of them, so they go through the
    store's own writers, past ``add_node``'s copy and ``add_edge``'s lookups."""
    put, insert = g._put_node, g._insert
    pnode = panel_node_id(panel.panel_id)
    attrs = {
        "reading_order": str(panel.reading_order),
        "shot_type": panel.shot_type.value,
        "page_index": str(panel.page_index),
    }
    if panel.image_path is not None:
        attrs["image_path"] = panel.image_path
    if panel.event_description is not None:
        attrs["event_description"] = panel.event_description
    put(pnode, _PANEL, attrs)

    vnode = f"{pnode}/visual"
    put(vnode, _VISUAL, {"background": panel.background} if panel.background is not None else {})
    tnode = f"{pnode}/textual"
    put(tnode, _TEXTUAL, {})
    insert(pnode, _HAS_VISUAL, vnode)
    insert(pnode, _HAS_TEXTUAL, tnode)

    # Mention and object ids this panel has written. One node per
    # normalized label; the first surface form within the panel is kept.
    written: set[str] = set()
    mentions: list[tuple[str, str, str]] = []

    def mention(label: str) -> str:
        token = normalize_token(label)
        mid = f"{pnode}/char:{token}"
        if mid not in written:
            written.add(mid)
            mentions.append((mid, token, label))
            put(mid, _MENTION, {"label": label})
            insert(vnode, _HAS_CHARACTER, mid)
        return mid

    for label in panel.characters:
        mention(label)

    for i, action in enumerate(panel.actions):
        aid = f"{pnode}/action:{i}"
        action_attrs = {"verb": action.verb}
        if action.object is not None:
            action_attrs["object"] = action.object
        put(aid, _ACTION, action_attrs)
        insert(vnode, _HAS_ACTION, aid)
        insert(aid, _AGENT_OF, mention(action.agent))

    for label in panel.objects:
        oid = f"{pnode}/obj:{normalize_token(label)}"
        if oid not in written:
            written.add(oid)
            put(oid, _OBJECT, {"label": label})
            insert(vnode, _HAS_OBJECT, oid)

    for prefix, kind, utterances in (
        ("dlg", _DIALOGUE, panel.dialogues),
        ("cap", _CAPTION, panel.captions),
    ):
        for i, utterance in enumerate(utterances):
            uid = f"{pnode}/{prefix}:{i}"
            utterance_attrs = {"utterance_id": utterance.id}
            if utterance.speaker is not None:
                utterance_attrs["speaker"] = utterance.speaker
            put(uid, kind, utterance_attrs)
            insert(uid, _PART_OF, tnode)
            cid = f"{uid}/text"
            put(cid, _CONTENT, {"text": utterance.text})
            insert(cid, _CONTENT_OF, uid)
    return mentions


def build_panel_graph(panel: PanelAnnotation) -> NarrativeGraph:
    """Multimodal graph of a single panel.

    The panel node fans out to one visual and one textual hub. Character
    mentions, actions (with ``agent_of`` links back to their mention) and
    scene objects hang off the visual hub; dialogue and caption nodes
    attach to the textual hub via ``part_of``, each with a content node
    carrying the raw text via ``content_of``.
    """
    g = NarrativeGraph(Tier.PANEL)
    _write_panel(g, panel)
    return g


def _narrative_order(
    corpus: AnnotationCorpus,
) -> tuple[list[PanelAnnotation], dict[str, int], dict[str, tuple[int, int]]]:
    """The one home of narrative order: ascending reading order, ties kept
    in list order. Sorts the panels once and walks them in that order.

    Returns the panels in reading order; the reading order of each
    segment's first panel, keyed in order of first appearance; and each
    event's ``(first, last)`` reading-order span."""
    ordered = sorted(corpus.panels, key=lambda p: p.reading_order)
    segment_event = {s.id: s.event_id for s in corpus.segments}
    first: dict[str, int] = {}
    spans: dict[str, tuple[int, int]] = {}
    for panel in ordered:
        order = panel.reading_order
        first.setdefault(panel.segment_id, order)
        event_id = segment_event.get(panel.segment_id)
        if event_id is not None:
            # The walk ascends: an event's first panel seen is its least.
            spans[event_id] = (spans.get(event_id, (order,))[0], order)
    return ordered, first, spans


def _chain(g: NarrativeGraph, node_ids) -> None:
    """Chain ``node_ids`` by ``precedes``, one edge per adjacent pair."""
    for prev, nxt in pairwise(node_ids):
        g.add_edge(prev, RelationKind.PRECEDES, nxt)


def _segment_temporal_attrs(segment: EventSegment, first_order: dict[str, int]) -> dict[str, str]:
    """The temporal tier's part of a segment's attributes."""
    if segment.id not in first_order:
        return {}
    return {"first_reading_order": str(first_order[segment.id])}


def build_temporal_graph(corpus: AnnotationCorpus) -> NarrativeGraph:
    """Reading-order DAG over panels and event segments.

    Panels are chained by ``precedes`` in ascending reading order, one edge
    per adjacent pair; segments are chained in order of their first panel's
    reading order. Segments with no panels become isolated nodes. Both
    orders come from ``_narrative_order``, the one home of the rule.
    """
    g = NarrativeGraph(Tier.TEMPORAL)
    ordered, first_order, _ = _narrative_order(corpus)
    for panel in ordered:
        g.add_node(
            panel_node_id(panel.panel_id),
            NodeKind.PANEL,
            {"reading_order": str(panel.reading_order)},
        )
    for segment in corpus.segments:
        g.add_node(
            segment_node_id(segment.id),
            NodeKind.EVENT_SEGMENT,
            _segment_temporal_attrs(segment, first_order),
        )
    _chain(g, [panel_node_id(p.panel_id) for p in ordered])
    _chain(g, [segment_node_id(s) for s in first_order])
    return g


def _overlapping_pairs(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every ``(i, j)`` with ``i < j`` whose closed intervals overlap, sorted.

    Sweeps the intervals by start, keeping those not yet ended in a heap by
    end, so the cost is O(n log n) plus the number of pairs.
    """
    pairs = []
    active: list[tuple[int, int]] = []  # (end, index)
    for j in sorted(range(len(intervals)), key=lambda i: intervals[i][0]):
        lo, hi = intervals[j]
        while active and active[0][0] < lo:
            heapq.heappop(active)
        pairs.extend((min(i, j), max(i, j)) for _, i in active)
        heapq.heappush(active, (hi, j))
    pairs.sort()
    return pairs


def _segment_event_attrs(segment: EventSegment) -> dict[str, str]:
    """The event tier's part of a segment's attributes."""
    attrs = {"description": segment.description}
    if segment.narrative_role is not None:
        attrs["narrative_role"] = segment.narrative_role.value
    return attrs


def _write_units(g: NarrativeGraph, corpus: AnnotationCorpus) -> dict[tuple[NodeKind, str], str]:
    """Write the macro-event and event nodes. Returns the first node of each
    ``(kind, label)``: the index ``UnifiedGraph.from_graph`` builds when no
    label repeats. Checking that none does is left to ``from_graph``."""
    units = [(NodeKind.MACRO_EVENT, macro_node_id(m.id), m) for m in corpus.macro_events]
    units += [(NodeKind.EVENT, event_node_id(e.id), e) for e in corpus.events]
    index: dict[tuple[NodeKind, str], str] = {}
    for kind, node_id, unit in units:
        g._put_node(node_id, kind, {"label": unit.label, "description": unit.description})
        index.setdefault((kind, unit.label), node_id)
    return index


def _write_hierarchy(
    g: NarrativeGraph, corpus: AnnotationCorpus, spans: dict[str, tuple[int, int]]
) -> None:
    """Write the ``subevent_of`` edges, the ``precedes`` chains of sibling
    events and of macro-events, and the ``co_occurs`` pairs of the events
    whose ``spans`` overlap."""
    for segment in corpus.segments:
        g.add_edge(
            segment_node_id(segment.id),
            RelationKind.SUBEVENT_OF,
            event_node_id(segment.event_id),
        )
    for event in corpus.events:
        g.add_edge(
            event_node_id(event.id),
            RelationKind.SUBEVENT_OF,
            macro_node_id(event.macro_event_id),
        )

    spanned = [e for e in corpus.events if e.id in spans]
    # One stable sort by start, then macro-event list rank (each event's
    # macro-event has one, or its edge above raised). Sibling events whose
    # starts tie keep event list order; macro-events, taken in order of
    # first appearance, keep macro-event list order when their starts tie.
    rank = {m.id: i for i, m in enumerate(corpus.macro_events)}
    siblings: dict[str, list[str]] = {}
    for event in sorted(spanned, key=lambda e: (spans[e.id][0], rank[e.macro_event_id])):
        siblings.setdefault(event.macro_event_id, []).append(event_node_id(event.id))
    for macro in corpus.macro_events:
        _chain(g, siblings.get(macro.id, ()))
    _chain(g, [macro_node_id(m) for m in siblings])

    for i, j in _overlapping_pairs([spans[e.id] for e in spanned]):
        a, b = event_node_id(spanned[i].id), event_node_id(spanned[j].id)
        g.add_edge(a, RelationKind.CO_OCCURS, b)
        g.add_edge(b, RelationKind.CO_OCCURS, a)


def build_event_graph(corpus: AnnotationCorpus) -> NarrativeGraph:
    """Semantic graph over macro-events, events and segments.

    ``subevent_of`` points child to parent. Sibling events (and sibling
    macro-events) with panels are chained by ``precedes`` in narrative
    order: ascending first-panel reading order, ties broken by annotation
    list order. Two events ``co_occur`` when their reading-order intervals
    overlap. The spans come from ``_narrative_order``, the one home of the
    rule.
    """
    g = NarrativeGraph(Tier.EVENT)
    _write_units(g, corpus)
    for segment in corpus.segments:
        g.add_node(
            segment_node_id(segment.id), NodeKind.EVENT_SEGMENT, _segment_event_attrs(segment)
        )
    _write_hierarchy(g, corpus, _narrative_order(corpus)[2])
    return g


def integrate(corpus: AnnotationCorpus) -> UnifiedGraph:
    """Union of all tier graphs plus the cross-tier links.

    The tiers are written in one pass straight into the unified graph, each
    node once: the panel subgraphs, the segments (temporal then event
    attributes), the reading-order chains, the macro-events and events, and
    the event hierarchy. Adds one ``instantiates`` edge per panel (panel to
    its segment), one global character node per normalized label, and one
    ``refers_to`` edge per character mention. The chains, segment attributes
    and event spans all come from one ``_narrative_order`` walk, the one
    home of the narrative-order rule.

    The unit-label index is filled as the units are written, keeping the
    first node of each label. ``UnifiedGraph.from_graph``, the one home of
    the unit-label rule, runs only when the index is short of a unit, and
    only once every write has succeeded, so a missing or repeated id is
    reported first. By then the rest of its contract holds by construction:
    each panel writes its two hubs once, each panel, segment and event gets
    one parent edge or raises ``MissingNodeError``, and each mention gets
    one ``refers_to`` edge. So the error it raises is the repeated label's.

    Needs no cycle check: each ``precedes`` chain is a simple path (a
    repeated id raises) within one id namespace — panels, segments, the
    events of one macro-event, macro-events — so their union is acyclic.

    The character pass walks the mentions that ``_write_panel`` returns, not
    the graph's adjacency, so ``integrate`` never builds the adjacency index.
    """
    unified = NarrativeGraph(Tier.UNIFIED)
    ordered, first_order, spans = _narrative_order(corpus)
    mentions = {panel.panel_id: _write_panel(unified, panel) for panel in corpus.panels}
    for segment in corpus.segments:
        unified._put_node(
            segment_node_id(segment.id),
            NodeKind.EVENT_SEGMENT,
            {**_segment_temporal_attrs(segment, first_order), **_segment_event_attrs(segment)},
        )
    _chain(unified, [panel_node_id(p.panel_id) for p in ordered])
    _chain(unified, [segment_node_id(s) for s in first_order])
    index = _write_units(unified, corpus)
    _write_hierarchy(unified, corpus, spans)

    for panel in corpus.panels:
        unified.add_edge(
            panel_node_id(panel.panel_id),
            RelationKind.INSTANTIATES,
            segment_node_id(panel.segment_id),
        )

    # Character identity nodes, in first-appearance (reading) order.
    kinds, insert = unified._kinds, unified._insert
    refers_to = RelationKind.REFERS_TO
    for panel in ordered:
        for mention, token, label in mentions[panel.panel_id]:
            cnode = f"char:{token}"
            if cnode not in kinds:
                unified._put_node(cnode, NodeKind.CHARACTER, {"label": label})
            insert(mention, refers_to, cnode)

    if len(index) < len(corpus.macro_events) + len(corpus.events):
        return UnifiedGraph.from_graph(unified)  # raises the repeated label
    return UnifiedGraph(graph=unified, index=index)
