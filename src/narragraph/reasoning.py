"""Symbolic reasoning queries over an integrated story graph.

All four functions are pure traversals of a graph whose story contract
``UnifiedGraph.from_graph`` checked. Items are deduplicated on their
normalized form while the first surface form seen in reading order is the
one reported.

Each query takes the adjacency map of every relation it follows once, from
``NarrativeGraph._adjacency_of``, and walks it, reading an entry through
``graph._ids``; a ``neighbors`` call per step, which checks its node and
direction and copies a list, cost ``evaluate_all`` about a fifth of its
time. The contract makes the entry of a panel's hubs and of a mention's
``refers_to`` a bare id, which is read as it is. Attributes and kinds are
read from the graph's own maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .annotations import normalize_token, normalize_utterance
from .build import UnifiedGraph, panel_id_of
from .errors import UnknownUnitError
from .graph import NarrativeGraph, NodeKind, RelationKind, _ids

# Members read once: before Python 3.12 a read through the enum class costs
# about ten times a global lookup.
_DIALOGUE = NodeKind.DIALOGUE
_HAS_VISUAL, _HAS_TEXTUAL, _HAS_ACTION = RelationKind.HAS_VISUAL, RelationKind.HAS_TEXTUAL, RelationKind.HAS_ACTION
_HAS_CHARACTER, _REFERS_TO = RelationKind.HAS_CHARACTER, RelationKind.REFERS_TO
_SUBEVENT_OF, _INSTANTIATES = RelationKind.SUBEVENT_OF, RelationKind.INSTANTIATES
_PART_OF, _CONTENT_OF = RelationKind.PART_OF, RelationKind.CONTENT_OF


class ReasoningTask(str, Enum):
    ACTIONS = "actions"
    DIALOGUE = "dialogue"
    CHARACTERS = "characters"
    TIMELINE = "timeline"


@dataclass
class QueryResult:
    """Ordered, deduplicated answer of one reasoning query.

    ``items`` holds the answer for the actions, dialogue and timeline
    tasks; ``appearances`` maps character label to reading-ordered panel
    ids for the characters task.
    """

    task: ReasoningTask
    source_unit: Optional[str] = None
    items: Optional[list[str]] = None
    appearances: Optional[dict[str, list[str]]] = None

    def to_obj(self) -> dict:
        if self.task is ReasoningTask.CHARACTERS:
            return {"task": self.task.value, "map": self.appearances}
        return {
            "task": self.task.value,
            "source_unit": self.source_unit,
            "items": self.items,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, ensure_ascii=False) + "\n"


def _resolve(unified: UnifiedGraph, kind: NodeKind, label: str, what: str) -> str:
    node_id = unified.index.get((kind, label))
    if node_id is None:
        raise UnknownUnitError(f"unknown {what} label: {label!r}")
    return node_id


def _panels_below(g: NarrativeGraph, events: Iterable[str]) -> list[str]:
    """Panel nodes under the event nodes ``events``, sorted by reading order."""
    segments_of, panels_of = g._adjacency_of(_SUBEVENT_OF, "in"), g._adjacency_of(_INSTANTIATES, "in")
    panels = [
        panel for event in events for segment in _ids(segments_of.get(event)) for panel in _ids(panels_of.get(segment))
    ]
    attrs = g._attrs
    panels.sort(key=lambda panel: int(attrs[panel]["reading_order"]))
    return panels


def _macro_panels(unified: UnifiedGraph, macro_label: str) -> list[str]:
    """Panel nodes under the labelled macro-event's events, by reading order."""
    macro = _resolve(unified, NodeKind.MACRO_EVENT, macro_label, "macro-event")
    g = unified.graph
    return _panels_below(g, _ids(g._adjacency_of(_SUBEVENT_OF, "in").get(macro)))


def _first_forms(texts: Iterable[str], normalize: Callable[[str], str]) -> list[str]:
    """The first of ``texts`` under each normalized key, in order."""
    first: dict[str, str] = {}
    for text in texts:
        first.setdefault(normalize(text), text)
    return list(first.values())


def actions_by_macro_event(unified: UnifiedGraph, macro_label: str) -> QueryResult:
    """Verbs of every action under a macro-event.

    Traverses macro-event -> events -> segments -> panels -> visual hub ->
    actions, deduplicating normalized verbs in first-occurrence reading
    order.
    """
    g = unified.graph
    visual_of, actions_of, attrs = g._adjacency_of(_HAS_VISUAL, "out"), g._adjacency_of(_HAS_ACTION, "out"), g._attrs
    verbs = (
        attrs[action]["verb"]
        for panel in _macro_panels(unified, macro_label)
        for action in _ids(actions_of.get(visual_of[panel]))
    )
    items = _first_forms(verbs, normalize_token)
    return QueryResult(task=ReasoningTask.ACTIONS, source_unit=macro_label, items=items)


def dialogue_by_event(unified: UnifiedGraph, event_label: str) -> QueryResult:
    """Dialogue lines of an event, in reading order then in-panel order.

    Captions are not dialogue and are excluded. Duplicate utterances
    (after trim+lowercase) are reported once.
    """
    g = unified.graph
    event = _resolve(unified, NodeKind.EVENT, event_label, "event")
    textual_of, parts_of = g._adjacency_of(_HAS_TEXTUAL, "out"), g._adjacency_of(_PART_OF, "in")
    contents_of, kinds, attrs = g._adjacency_of(_CONTENT_OF, "in"), g._kinds, g._attrs
    texts = (
        attrs[content]["text"]
        for panel in _panels_below(g, (event,))
        for utterance in _ids(parts_of.get(textual_of[panel]))
        if kinds[utterance] is _DIALOGUE
        for content in _ids(contents_of.get(utterance))
    )
    items = _first_forms(texts, normalize_utterance)
    return QueryResult(task=ReasoningTask.DIALOGUE, source_unit=event_label, items=items)


def character_appearances(unified: UnifiedGraph) -> QueryResult:
    """Map from each character to the panels it appears in.

    Panel lists are sorted by reading order; characters are keyed by the
    identity node's label and listed in first-appearance order.
    """
    g = unified.graph
    visual_of, mentions_of = g._adjacency_of(_HAS_VISUAL, "out"), g._adjacency_of(_HAS_CHARACTER, "out")
    identity_of, attrs = g._adjacency_of(_REFERS_TO, "out"), g._attrs
    panels = sorted(g.nodes_of_kind(NodeKind.PANEL), key=lambda panel: int(attrs[panel]["reading_order"]))
    appearances: dict[str, list[str]] = {}
    for panel in panels:
        pid = panel_id_of(panel)
        for mention in _ids(mentions_of.get(visual_of[panel])):
            panel_ids = appearances.setdefault(attrs[identity_of[mention]]["label"], [])
            if not panel_ids or panel_ids[-1] != pid:
                panel_ids.append(pid)
    return QueryResult(task=ReasoningTask.CHARACTERS, appearances=appearances)


def panel_timeline(unified: UnifiedGraph, macro_label: str) -> QueryResult:
    """All panel ids under a macro-event, ascending by reading order."""
    panels = _macro_panels(unified, macro_label)
    return QueryResult(
        task=ReasoningTask.TIMELINE,
        source_unit=macro_label,
        items=[panel_id_of(p) for p in panels],
    )
