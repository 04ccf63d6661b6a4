"""Gold-standard answers computed straight from annotations.

These builders deliberately never touch a graph: they are the independent
oracle the reasoning queries are checked against. ``GoldIndex`` reads the
corpus once and then answers any number of units; each ``gold_*`` function
answers one unit from a fresh index.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Union

from .annotations import (
    AnnotationCorpus,
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


class GoldIndex:
    """Every unit's gold answers, indexed from one pass over the annotations.

    Each macro-event and event label maps to its unit's panels in corpus
    order. A label given to more than one unit names the first of them,
    and units are joined by id, so units sharing an id share their panels.
    A query computes only the gold set it is asked for.
    """

    def __init__(self, corpus: AnnotationCorpus):
        self._panels = corpus.panels
        self._macro_ids: dict[str, str] = {}
        for macro in corpus.macro_events:
            self._macro_ids.setdefault(macro.label, macro.id)
        self._event_ids: dict[str, str] = {}
        macros_of_event: dict[str, set[str]] = defaultdict(set)
        for event in corpus.events:
            self._event_ids.setdefault(event.label, event.id)
            macros_of_event[event.id].add(event.macro_event_id)
        events_of_segment: dict[str, set[str]] = defaultdict(set)
        for segment in corpus.segments:
            events_of_segment[segment.id].add(segment.event_id)

        self._macro_panels: dict[str, list[PanelAnnotation]] = defaultdict(list)
        self._event_panels: dict[str, list[PanelAnnotation]] = defaultdict(list)
        for panel in corpus.panels:
            event_ids = events_of_segment.get(panel.segment_id, ())
            for event_id in event_ids:
                self._event_panels[event_id].append(panel)
            for macro_id in {m for e in event_ids for m in macros_of_event.get(e, ())}:
                self._macro_panels[macro_id].append(panel)

    def _of_macro(self, label: str) -> list[PanelAnnotation]:
        if label not in self._macro_ids:
            raise UnknownUnitError(f"unknown macro-event label: {label!r}")
        return self._macro_panels.get(self._macro_ids[label], [])

    def _of_event(self, label: str) -> list[PanelAnnotation]:
        if label not in self._event_ids:
            raise UnknownUnitError(f"unknown event label: {label!r}")
        return self._event_panels.get(self._event_ids[label], [])

    def actions(self, macro_label: str) -> GoldSet:
        """Deduplicated normalized verbs of every panel under the macro-event."""
        verbs = frozenset(
            normalize_token(action.verb)
            for panel in self._of_macro(macro_label)
            for action in panel.actions
        )
        return GoldSet(task="actions", unit=macro_label, items=verbs)

    def dialogue(self, event_label: str) -> GoldSet:
        """Deduplicated normalized dialogue lines of an event (captions excluded)."""
        texts = frozenset(
            normalize_utterance(utterance.text)
            for panel in self._of_event(event_label)
            for utterance in panel.dialogues
        )
        return GoldSet(task="dialogue", unit=event_label, items=texts)

    def characters(self) -> GoldSet:
        """Set of (normalized character, panel id) pairs over the whole corpus."""
        pairs = frozenset(
            (normalize_token(label), panel.panel_id)
            for panel in self._panels
            for label in panel.characters
        )
        return GoldSet(task="characters", unit=None, items=pairs)

    def timeline(self, macro_label: str) -> GoldSet:
        """Panel ids under the macro-event, sorted by reading order."""
        panels = sorted(self._of_macro(macro_label), key=lambda p: p.reading_order)
        return GoldSet(task="timeline", unit=macro_label, items=tuple(p.panel_id for p in panels))


def gold_actions(corpus: AnnotationCorpus, macro_label: str) -> GoldSet:
    """Deduplicated normalized verbs of every panel under the macro-event."""
    return GoldIndex(corpus).actions(macro_label)


def gold_dialogue(corpus: AnnotationCorpus, event_label: str) -> GoldSet:
    """Deduplicated normalized dialogue lines of an event (captions excluded)."""
    return GoldIndex(corpus).dialogue(event_label)


def gold_characters(corpus: AnnotationCorpus) -> GoldSet:
    """Set of (normalized character, panel id) pairs over the whole corpus."""
    return GoldIndex(corpus).characters()


def gold_timeline(corpus: AnnotationCorpus, macro_label: str) -> GoldSet:
    """Panel ids under the macro-event, sorted by reading order."""
    return GoldIndex(corpus).timeline(macro_label)
