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


def character_node_id(label: str) -> str:
    return f"char:{normalize_token(label)}"


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


@dataclass
class UnifiedGraph:
    """Integrated graph plus the unit-label index the queries start from."""

    graph: NarrativeGraph
    index: dict[tuple[NodeKind, str], str]

    @classmethod
    def from_graph(cls, graph: NarrativeGraph) -> "UnifiedGraph":
        """Index events and macro-events (``UNIT_KINDS``) by label and check
        the story contract the queries trust: ``SchemaError`` at ``nodes[i].attrs``
        for a repeated label, at ``nodes[i]`` unless each ``_ONE_TARGET`` relation
        has exactly one edge. ``i`` is the position in ``graph.nodes()``."""
        index: dict[tuple[NodeKind, str], str] = {}
        for i, (node_id, kind, attrs) in enumerate(graph.nodes()):
            if kind in UNIT_KINDS:
                label = attrs["label"]
                if (kind, label) in index:
                    reason = f"duplicate {kind.value} label {label!r}"
                    raise SchemaError(f"nodes[{i}].attrs", reason)
                index[(kind, label)] = node_id
            for rel in _ONE_TARGET.get(kind, ()):
                n = graph.degree(node_id, rel, "out")
                if n != 1:
                    reason = f"{kind.value} {node_id!r} has {n} {rel.value} edges, not 1"
                    raise SchemaError(f"nodes[{i}]", reason)
        return cls(graph=graph, index=index)


def _write_panel(g: NarrativeGraph, panel: PanelAnnotation) -> None:
    """Write the multimodal subgraph of one panel into ``g``; a node id
    that ``g`` already holds raises ``DuplicateNodeError``."""
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
    g.add_node(pnode, NodeKind.PANEL, attrs)

    vnode = f"{pnode}/visual"
    visual_attrs = {"background": panel.background} if panel.background is not None else {}
    g.add_node(vnode, NodeKind.PANEL_VISUAL, visual_attrs)
    tnode = f"{pnode}/textual"
    g.add_node(tnode, NodeKind.PANEL_TEXTUAL, {})
    g.add_edge(pnode, RelationKind.HAS_VISUAL, vnode)
    g.add_edge(pnode, RelationKind.HAS_TEXTUAL, tnode)

    # Mention and object ids this panel has written. One node per
    # normalized label; the first surface form within the panel is kept.
    written: set[str] = set()

    def mention(label: str) -> str:
        mid = f"{pnode}/char:{normalize_token(label)}"
        if mid not in written:
            written.add(mid)
            g.add_node(mid, NodeKind.CHARACTER_MENTION, {"label": label})
            g.add_edge(vnode, RelationKind.HAS_CHARACTER, mid)
        return mid

    for label in panel.characters:
        mention(label)

    for i, action in enumerate(panel.actions):
        aid = f"{pnode}/action:{i}"
        action_attrs = {"verb": action.verb}
        if action.object is not None:
            action_attrs["object"] = action.object
        g.add_node(aid, NodeKind.ACTION, action_attrs)
        g.add_edge(vnode, RelationKind.HAS_ACTION, aid)
        g.add_edge(aid, RelationKind.AGENT_OF, mention(action.agent))

    for label in panel.objects:
        oid = f"{pnode}/obj:{normalize_token(label)}"
        if oid not in written:
            written.add(oid)
            g.add_node(oid, NodeKind.SCENE_OBJECT, {"label": label})
            g.add_edge(vnode, RelationKind.HAS_OBJECT, oid)

    for prefix, kind, utterances in (
        ("dlg", NodeKind.DIALOGUE, panel.dialogues),
        ("cap", NodeKind.CAPTION, panel.captions),
    ):
        for i, utterance in enumerate(utterances):
            uid = f"{pnode}/{prefix}:{i}"
            utterance_attrs = {"utterance_id": utterance.id}
            if utterance.speaker is not None:
                utterance_attrs["speaker"] = utterance.speaker
            g.add_node(uid, kind, utterance_attrs)
            g.add_edge(uid, RelationKind.PART_OF, tnode)
            cid = f"{uid}/text"
            g.add_node(cid, NodeKind.DIALOGUE_CONTENT, {"text": utterance.text})
            g.add_edge(cid, RelationKind.CONTENT_OF, uid)


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


def _first_reading_orders(ordered: list[PanelAnnotation]) -> dict[str, int]:
    """Reading order of each segment's first panel, keyed in order of first
    appearance; ``ordered`` holds the panels in reading order."""
    first: dict[str, int] = {}
    for panel in ordered:
        first.setdefault(panel.segment_id, panel.reading_order)
    return first


def _segment_temporal_attrs(segment: EventSegment, first_order: dict[str, int]) -> dict[str, str]:
    """The temporal tier's part of a segment's attributes."""
    if segment.id not in first_order:
        return {}
    return {"first_reading_order": str(first_order[segment.id])}


def _write_reading_chains(
    g: NarrativeGraph, ordered: list[PanelAnnotation], first_order: dict[str, int]
) -> None:
    """Chain the panels by ``precedes`` in reading order, and the segments
    that have panels in order of their first panel."""
    for prev, nxt in zip(ordered, ordered[1:]):
        g.add_edge(panel_node_id(prev.panel_id), RelationKind.PRECEDES, panel_node_id(nxt.panel_id))
    chained = list(first_order)
    for prev_id, next_id in zip(chained, chained[1:]):
        g.add_edge(segment_node_id(prev_id), RelationKind.PRECEDES, segment_node_id(next_id))


def build_temporal_graph(corpus: AnnotationCorpus) -> NarrativeGraph:
    """Reading-order DAG over panels and event segments.

    Panels are chained by ``precedes`` in ascending reading order, one edge
    per adjacent pair; segments are chained in order of their first panel's
    reading order. Segments with no panels become isolated nodes.
    """
    g = NarrativeGraph(Tier.TEMPORAL)
    ordered = sorted(corpus.panels, key=lambda p: p.reading_order)
    first_order = _first_reading_orders(ordered)
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
    _write_reading_chains(g, ordered, first_order)
    return g


def _event_spans(corpus: AnnotationCorpus) -> dict[str, tuple[int, int]]:
    """Reading-order interval covered by each event's panels."""
    segment_event = {s.id: s.event_id for s in corpus.segments}
    spans: dict[str, tuple[int, int]] = {}
    for panel in corpus.panels:
        event_id = segment_event.get(panel.segment_id)
        if event_id is None:
            continue
        lo, hi = spans.get(event_id, (panel.reading_order, panel.reading_order))
        spans[event_id] = (min(lo, panel.reading_order), max(hi, panel.reading_order))
    return spans


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


def _write_units(g: NarrativeGraph, corpus: AnnotationCorpus) -> None:
    """Write the macro-event and event nodes."""
    for macro in corpus.macro_events:
        g.add_node(
            macro_node_id(macro.id),
            NodeKind.MACRO_EVENT,
            {"label": macro.label, "description": macro.description},
        )
    for event in corpus.events:
        g.add_node(
            event_node_id(event.id),
            NodeKind.EVENT,
            {"label": event.label, "description": event.description},
        )


def _write_hierarchy(g: NarrativeGraph, corpus: AnnotationCorpus) -> None:
    """Write the ``subevent_of`` edges, the ``precedes`` chains of sibling
    events and of macro-events, and the ``co_occurs`` pairs."""
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

    spans = _event_spans(corpus)
    spanned = [e for e in corpus.events if e.id in spans]

    children: dict[str, list] = {}
    for event in spanned:
        children.setdefault(event.macro_event_id, []).append(event)
    for macro in corpus.macro_events:
        # stable: ties keep list order
        siblings = sorted(children.get(macro.id, ()), key=lambda e: spans[e.id][0])
        for prev, nxt in zip(siblings, siblings[1:]):
            g.add_edge(event_node_id(prev.id), RelationKind.PRECEDES, event_node_id(nxt.id))

    macro_first: dict[str, int] = {}
    for event in spanned:
        start = spans[event.id][0]
        current = macro_first.get(event.macro_event_id)
        macro_first[event.macro_event_id] = start if current is None else min(current, start)
    macros = [m for m in corpus.macro_events if m.id in macro_first]
    macros.sort(key=lambda m: macro_first[m.id])
    for prev, nxt in zip(macros, macros[1:]):
        g.add_edge(macro_node_id(prev.id), RelationKind.PRECEDES, macro_node_id(nxt.id))

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
    overlap.
    """
    g = NarrativeGraph(Tier.EVENT)
    _write_units(g, corpus)
    for segment in corpus.segments:
        g.add_node(
            segment_node_id(segment.id), NodeKind.EVENT_SEGMENT, _segment_event_attrs(segment)
        )
    _write_hierarchy(g, corpus)
    return g


def integrate(corpus: AnnotationCorpus) -> UnifiedGraph:
    """Union of all tier graphs plus the cross-tier links.

    The tiers are written in one pass straight into the unified graph, each
    node once: the panel subgraphs, the segments (temporal then event
    attributes), the reading-order chains, the macro-events and events, and
    the event hierarchy. Adds one ``instantiates`` edge per panel (panel to
    its segment), one global character node per normalized label, and one
    ``refers_to`` edge per character mention. The result is indexed by
    ``UnifiedGraph.from_graph``.

    Needs no cycle check: each ``precedes`` chain is a simple path (a
    repeated id raises) within one id namespace — panels, segments, the
    events of one macro-event, macro-events — so their union is acyclic.
    """
    unified = NarrativeGraph(Tier.UNIFIED)
    ordered = sorted(corpus.panels, key=lambda p: p.reading_order)
    first_order = _first_reading_orders(ordered)
    for panel in corpus.panels:
        _write_panel(unified, panel)
    for segment in corpus.segments:
        unified.add_node(
            segment_node_id(segment.id),
            NodeKind.EVENT_SEGMENT,
            {**_segment_temporal_attrs(segment, first_order), **_segment_event_attrs(segment)},
        )
    _write_reading_chains(unified, ordered, first_order)
    _write_units(unified, corpus)
    _write_hierarchy(unified, corpus)

    for panel in corpus.panels:
        unified.add_edge(
            panel_node_id(panel.panel_id),
            RelationKind.INSTANTIATES,
            segment_node_id(panel.segment_id),
        )

    # Character identity nodes, in first-appearance (reading) order.
    for panel in ordered:
        vnode = f"{panel_node_id(panel.panel_id)}/visual"
        for mention in unified.neighbors(vnode, RelationKind.HAS_CHARACTER, "out"):
            label = unified.node_attrs(mention)["label"]
            cnode = character_node_id(label)
            if not unified.has_node(cnode):
                unified.add_node(cnode, NodeKind.CHARACTER, {"label": label})
            unified.add_edge(mention, RelationKind.REFERS_TO, cnode)

    return UnifiedGraph.from_graph(unified)
