"""Gold-standard answers computed straight from annotations.

These builders deliberately never touch a graph: they are the independent
oracle the reasoning queries are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .annotations import (
    AnnotationCorpus,
    Event,
    MacroEvent,
    PanelAnnotation,
    normalize_token,
    normalize_utterance,
)
from .errors import UnknownUnitError


@dataclass(frozen=True)
class GoldSet:
    """Expected answer for one task and unit.

    ``items`` is a frozenset for the actions, dialogue and characters
    tasks and an ordered tuple for the timeline task.
    """

    task: str
    unit: Optional[str]
    items: Union[frozenset, tuple]


def _find_macro(corpus: AnnotationCorpus, label: str) -> MacroEvent:
    for macro in corpus.macro_events:
        if macro.label == label:
            return macro
    raise UnknownUnitError(f"unknown macro-event label: {label!r}")


def _find_event(corpus: AnnotationCorpus, label: str) -> Event:
    for event in corpus.events:
        if event.label == label:
            return event
    raise UnknownUnitError(f"unknown event label: {label!r}")


def _panels_of_events(corpus: AnnotationCorpus, event_ids: set[str]) -> list[PanelAnnotation]:
    segment_ids = {s.id for s in corpus.segments if s.event_id in event_ids}
    return [p for p in corpus.panels if p.segment_id in segment_ids]


def _panels_of_macro(corpus: AnnotationCorpus, macro: MacroEvent) -> list[PanelAnnotation]:
    event_ids = {e.id for e in corpus.events if e.macro_event_id == macro.id}
    return _panels_of_events(corpus, event_ids)


def gold_actions(corpus: AnnotationCorpus, macro_label: str) -> GoldSet:
    """Deduplicated normalized verbs of every panel under the macro-event."""
    macro = _find_macro(corpus, macro_label)
    verbs = frozenset(
        normalize_token(action.verb)
        for panel in _panels_of_macro(corpus, macro)
        for action in panel.actions
    )
    return GoldSet(task="actions", unit=macro_label, items=verbs)


def gold_dialogue(corpus: AnnotationCorpus, event_label: str) -> GoldSet:
    """Deduplicated normalized dialogue lines of an event (captions excluded)."""
    event = _find_event(corpus, event_label)
    texts = frozenset(
        normalize_utterance(utterance.text)
        for panel in _panels_of_events(corpus, {event.id})
        for utterance in panel.dialogues
    )
    return GoldSet(task="dialogue", unit=event_label, items=texts)


def gold_characters(corpus: AnnotationCorpus) -> GoldSet:
    """Set of (normalized character, panel id) pairs over the whole corpus."""
    pairs = frozenset(
        (normalize_token(label), panel.panel_id)
        for panel in corpus.panels
        for label in panel.characters
    )
    return GoldSet(task="characters", unit=None, items=pairs)


def gold_timeline(corpus: AnnotationCorpus, macro_label: str) -> GoldSet:
    """Panel ids under the macro-event, sorted by reading order."""
    macro = _find_macro(corpus, macro_label)
    panels = sorted(_panels_of_macro(corpus, macro), key=lambda p: p.reading_order)
    return GoldSet(task="timeline", unit=macro_label, items=tuple(p.panel_id for p in panels))
