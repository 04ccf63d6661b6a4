"""Symbolic reasoning queries over an integrated story graph.

All four functions are pure traversals of a graph whose story contract
``UnifiedGraph.from_graph`` checked. Items are deduplicated on their
normalized form while the first surface form seen in reading order is the
one reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .annotations import normalize_token, normalize_utterance
from .build import UnifiedGraph, panel_id_of
from .errors import UnknownUnitError
from .graph import NodeKind, RelationKind


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


def _reading_order(unified: UnifiedGraph, panel_node: str) -> int:
    return int(unified.graph.node_attrs(panel_node)["reading_order"])


def _panels_below(unified: UnifiedGraph, unit_node: str, is_macro: bool) -> list[str]:
    """Panel nodes under a macro-event or event, sorted by reading order."""
    g = unified.graph
    events = g.neighbors(unit_node, RelationKind.SUBEVENT_OF, "in") if is_macro else [unit_node]
    panels: list[str] = []
    for event in events:
        for segment in g.neighbors(event, RelationKind.SUBEVENT_OF, "in"):
            panels.extend(g.neighbors(segment, RelationKind.INSTANTIATES, "in"))
    panels.sort(key=lambda p: _reading_order(unified, p))
    return panels


def _hub(unified: UnifiedGraph, panel_node: str, rel: RelationKind) -> str:
    """The panel's visual (``has_visual``) or textual (``has_textual``) hub."""
    return unified.graph.neighbors(panel_node, rel, "out")[0]


def actions_by_macro_event(unified: UnifiedGraph, macro_label: str) -> QueryResult:
    """Verbs of every action under a macro-event.

    Traverses macro-event -> events -> segments -> panels -> visual hub ->
    actions, deduplicating normalized verbs in first-occurrence reading
    order.
    """
    g = unified.graph
    macro = _resolve(unified, NodeKind.MACRO_EVENT, macro_label, "macro-event")
    seen: set[str] = set()
    items: list[str] = []
    for panel in _panels_below(unified, macro, is_macro=True):
        visual = _hub(unified, panel, RelationKind.HAS_VISUAL)
        for action in g.neighbors(visual, RelationKind.HAS_ACTION, "out"):
            verb = g.node_attrs(action)["verb"]
            key = normalize_token(verb)
            if key not in seen:
                seen.add(key)
                items.append(verb)
    return QueryResult(task=ReasoningTask.ACTIONS, source_unit=macro_label, items=items)


def dialogue_by_event(unified: UnifiedGraph, event_label: str) -> QueryResult:
    """Dialogue lines of an event, in reading order then in-panel order.

    Captions are not dialogue and are excluded. Duplicate utterances
    (after trim+lowercase) are reported once.
    """
    g = unified.graph
    event = _resolve(unified, NodeKind.EVENT, event_label, "event")
    seen: set[str] = set()
    items: list[str] = []
    for panel in _panels_below(unified, event, is_macro=False):
        textual = _hub(unified, panel, RelationKind.HAS_TEXTUAL)
        for utterance in g.neighbors(textual, RelationKind.PART_OF, "in"):
            if g.node_kind(utterance) is not NodeKind.DIALOGUE:
                continue
            for content in g.neighbors(utterance, RelationKind.CONTENT_OF, "in"):
                text = g.node_attrs(content)["text"]
                key = normalize_utterance(text)
                if key not in seen:
                    seen.add(key)
                    items.append(text)
    return QueryResult(task=ReasoningTask.DIALOGUE, source_unit=event_label, items=items)


def character_appearances(unified: UnifiedGraph) -> QueryResult:
    """Map from each character to the panels it appears in.

    Panel lists are sorted by reading order; characters are keyed by the
    identity node's label and listed in first-appearance order.
    """
    g = unified.graph
    panels = sorted(g.nodes_of_kind(NodeKind.PANEL), key=lambda p: _reading_order(unified, p))
    appearances: dict[str, list[str]] = {}
    for panel in panels:
        pid = panel_id_of(panel)
        visual = _hub(unified, panel, RelationKind.HAS_VISUAL)
        for mention in g.neighbors(visual, RelationKind.HAS_CHARACTER, "out"):
            identity = g.neighbors(mention, RelationKind.REFERS_TO, "out")[0]
            label = g.node_attrs(identity)["label"]
            panel_ids = appearances.setdefault(label, [])
            if not panel_ids or panel_ids[-1] != pid:
                panel_ids.append(pid)
    return QueryResult(task=ReasoningTask.CHARACTERS, appearances=appearances)


def panel_timeline(unified: UnifiedGraph, macro_label: str) -> QueryResult:
    """All panel ids under a macro-event, ascending by reading order."""
    macro = _resolve(unified, NodeKind.MACRO_EVENT, macro_label, "macro-event")
    panels = _panels_below(unified, macro, is_macro=True)
    return QueryResult(
        task=ReasoningTask.TIMELINE,
        source_unit=macro_label,
        items=[panel_id_of(p) for p in panels],
    )
