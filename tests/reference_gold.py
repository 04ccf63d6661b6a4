"""The gold oracle as it was before ``narragraph.gold.GoldIndex``: every call
searches labels linearly and rescans the segments and panels of the corpus.

It is slow on purpose and kept only as the reference the indexed oracle is
checked against (``test_gold_reference.py``), edge cases of unvalidated
corpora included: a repeated label names its first unit, units are joined
by id, and a dangling reference joins nothing.
"""

from narragraph import (
    AnnotationCorpus,
    UnknownUnitError,
    normalize_token,
    normalize_utterance,
)
from narragraph.gold import GoldSet


def _find_macro(corpus: AnnotationCorpus, label: str):
    for macro in corpus.macro_events:
        if macro.label == label:
            return macro
    raise UnknownUnitError(f"unknown macro-event label: {label!r}")


def _find_event(corpus: AnnotationCorpus, label: str):
    for event in corpus.events:
        if event.label == label:
            return event
    raise UnknownUnitError(f"unknown event label: {label!r}")


def _panels_of_events(corpus: AnnotationCorpus, event_ids: set):
    segment_ids = {s.id for s in corpus.segments if s.event_id in event_ids}
    return [p for p in corpus.panels if p.segment_id in segment_ids]


def _panels_of_macro(corpus: AnnotationCorpus, macro):
    event_ids = {e.id for e in corpus.events if e.macro_event_id == macro.id}
    return _panels_of_events(corpus, event_ids)


def gold_actions(corpus: AnnotationCorpus, macro_label: str) -> GoldSet:
    macro = _find_macro(corpus, macro_label)
    verbs = frozenset(
        normalize_token(action.verb)
        for panel in _panels_of_macro(corpus, macro)
        for action in panel.actions
    )
    return GoldSet(task="actions", unit=macro_label, items=verbs)


def gold_dialogue(corpus: AnnotationCorpus, event_label: str) -> GoldSet:
    event = _find_event(corpus, event_label)
    texts = frozenset(
        normalize_utterance(utterance.text)
        for panel in _panels_of_events(corpus, {event.id})
        for utterance in panel.dialogues
    )
    return GoldSet(task="dialogue", unit=event_label, items=texts)


def gold_characters(corpus: AnnotationCorpus) -> GoldSet:
    pairs = frozenset(
        (normalize_token(label), panel.panel_id)
        for panel in corpus.panels
        for label in panel.characters
    )
    return GoldSet(task="characters", unit=None, items=pairs)


def gold_timeline(corpus: AnnotationCorpus, macro_label: str) -> GoldSet:
    macro = _find_macro(corpus, macro_label)
    panels = sorted(_panels_of_macro(corpus, macro), key=lambda p: p.reading_order)
    return GoldSet(task="timeline", unit=macro_label, items=tuple(p.panel_id for p in panels))


class ReferenceIndex:
    """``GoldIndex``'s interface over the functions above, so that
    ``evaluate_all`` can score against the reference oracle."""

    def __init__(self, corpus: AnnotationCorpus):
        self._corpus = corpus

    def actions(self, macro_label: str) -> GoldSet:
        return gold_actions(self._corpus, macro_label)

    def dialogue(self, event_label: str) -> GoldSet:
        return gold_dialogue(self._corpus, event_label)

    def characters(self) -> GoldSet:
        return gold_characters(self._corpus)

    def timeline(self, macro_label: str) -> GoldSet:
        return gold_timeline(self._corpus, macro_label)
