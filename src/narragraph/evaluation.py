"""Precision/recall/F1 scoring of query outputs against gold answers.

Items are compared strictly as strings after normalization: verbs for the
actions task, full utterances for dialogue, (character, panel) pairs for
characters and adjacent ordered pairs for the timeline. An optional
synonym map can fold known lexical variants (e.g. ``insert_into`` ->
``insert``) before comparison.

Zero-division convention: with nothing predicted, precision is 1 when the
gold set is also empty and 0 otherwise; recall symmetrically. Empty versus
empty therefore scores a perfect 1.0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .annotations import AnnotationCorpus, normalize_token, normalize_utterance
from .build import UnifiedGraph
from .errors import SchemaError, parse_json
from .gold import GoldIndex
# The per-unit functions stay importable from here: the benchmark's tracer
# (bench/tracing.py) wraps them by this module's attribute names.
from .gold import gold_actions, gold_characters, gold_dialogue, gold_timeline  # noqa: F401
from .reasoning import (
    actions_by_macro_event,
    character_appearances,
    dialogue_by_event,
    panel_timeline,
)

#: (task key, table row name, evaluation focus) in report order.
TASK_ROWS = (
    ("actions", "Action retrieval by macro-event", "Action Recovery"),
    ("dialogue", "Dialogue trace by event", "Dialogue Recall"),
    ("characters", "Character appearance mapping", "Entity Recall"),
    ("timeline", "Panel timeline reconstruction", "Sequence Ordering"),
)


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "Metrics":
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision = 1.0 if fn == 0 else 0.0
        if tp + fn > 0:
            recall = tp / (tp + fn)
        else:
            recall = 1.0 if fp == 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return cls(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)


def set_prf(predicted: set, gold: set) -> Metrics:
    """Set overlap metrics; both sides must be normalized identically."""
    tp = len(predicted & gold)
    return Metrics.from_counts(tp=tp, fp=len(predicted - gold), fn=len(gold - predicted))


def _adjacent_pairs(sequence: Sequence) -> set[tuple]:
    return set(zip(sequence, sequence[1:]))


def ordering_prf(predicted: Sequence, gold: Sequence) -> Metrics:
    """Sequence agreement as set overlap of adjacent ordered pairs."""
    return set_prf(_adjacent_pairs(predicted), _adjacent_pairs(gold))


def _metric_fields(metrics: Metrics) -> dict:
    """The six report fields of ``metrics``, in report order."""
    return {
        "precision": metrics.precision,
        "recall": metrics.recall,
        "f1": metrics.f1,
        "tp": metrics.tp,
        "fp": metrics.fp,
        "fn": metrics.fn,
    }


@dataclass(frozen=True)
class UnitScore:
    unit: str
    metrics: Metrics


@dataclass(frozen=True)
class TaskReport:
    task: str
    name: str
    focus: str
    metrics: Metrics
    units: tuple[UnitScore, ...]


@dataclass(frozen=True)
class EvaluationReport:
    tasks: tuple[TaskReport, ...]

    def task(self, key: str) -> TaskReport:
        for report in self.tasks:
            if report.task == key:
                return report
        raise KeyError(key)

    def to_obj(self, per_unit: bool = False) -> dict:
        out = []
        for report in self.tasks:
            entry = {"task": report.task, "focus": report.focus, **_metric_fields(report.metrics)}
            if per_unit:
                entry["units"] = [
                    {"unit": score.unit, **_metric_fields(score.metrics)} for score in report.units
                ]
            out.append(entry)
        return {"tasks": out}

    def to_json(self, per_unit: bool = False) -> str:
        return json.dumps(self.to_obj(per_unit=per_unit), indent=2, ensure_ascii=False) + "\n"

    def to_table(self) -> str:
        """Plain-text table: Task / Evaluation Focus / F1 Score."""
        rows = [(r.name, r.focus, f"{r.metrics.f1:.2f}") for r in self.tasks]
        headers = ("Task", "Evaluation Focus", "F1 Score")
        widths = [
            max(len(headers[col]), max(len(row[col]) for row in rows))
            for col in range(3)
        ]
        lines = [
            "  ".join(headers[col].ljust(widths[col]) for col in range(3)).rstrip(),
            "  ".join("-" * widths[col] for col in range(3)),
        ]
        for row in rows:
            lines.append("  ".join(row[col].ljust(widths[col]) for col in range(3)).rstrip())
        return "\n".join(lines) + "\n"


def load_synonym_map(text: str) -> dict[str, str]:
    """Parse a JSON object mapping variant verbs to their canonical form.

    Keys and targets are normalized. The map is applied once, so it must be
    unambiguous and final: two keys that normalize alike with different
    targets, or a target that is itself a key mapped elsewhere, raise
    ``SchemaError``, and so does a key repeated in the file."""
    doc = parse_json(text, unique_keys=True)
    if not isinstance(doc, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in doc.items()
    ):
        raise SchemaError("$", "synonym map must be an object of strings")
    synonyms: dict[str, str] = {}
    for key, value in doc.items():
        variant, canonical = normalize_token(key), normalize_token(value)
        if synonyms.setdefault(variant, canonical) != canonical:
            reason = f"{variant!r} maps to both {synonyms[variant]!r} and {canonical!r}"
            raise SchemaError("$", reason)
    for variant, canonical in synonyms.items():
        if synonyms.get(canonical, canonical) != canonical:
            reason = f"{variant!r} maps to {canonical!r}, which maps to {synonyms[canonical]!r}"
            raise SchemaError("$", reason)
    return synonyms


def _unique(labels) -> list[str]:
    return list(dict.fromkeys(labels))


def _micro(task: str, name: str, focus: str, units: list[UnitScore]) -> TaskReport:
    tp = sum(score.metrics.tp for score in units)
    fp = sum(score.metrics.fp for score in units)
    fn = sum(score.metrics.fn for score in units)
    return TaskReport(
        task=task,
        name=name,
        focus=focus,
        metrics=Metrics.from_counts(tp, fp, fn),
        units=tuple(units),
    )


def evaluate_all(
    unified: UnifiedGraph,
    corpus: AnnotationCorpus,
    synonyms: Optional[Mapping[str, str]] = None,
) -> EvaluationReport:
    """Score all four tasks, micro-averaging counts across units.

    Units are macro-events for the actions and timeline tasks, events for
    dialogue, and the whole corpus for characters. ``unified`` is normally
    ``integrate(corpus)`` but may be any graph claiming to represent the
    corpus; label mismatches surface as ``UnknownUnitError``.
    """
    canon = (lambda verb: synonyms.get(verb, verb)) if synonyms else (lambda verb: verb)
    names = {task: (name, focus) for task, name, focus in TASK_ROWS}
    macro_labels = _unique(m.label for m in corpus.macro_events)
    event_labels = _unique(e.label for e in corpus.events)
    gold_index = GoldIndex(corpus)

    action_units = []
    for label in macro_labels:
        predicted = {
            canon(normalize_token(verb))
            for verb in actions_by_macro_event(unified, label).items
        }
        gold = {canon(verb) for verb in gold_index.actions(label).items}
        action_units.append(UnitScore(unit=label, metrics=set_prf(predicted, gold)))

    dialogue_units = []
    for label in event_labels:
        predicted = {
            normalize_utterance(text) for text in dialogue_by_event(unified, label).items
        }
        gold = set(gold_index.dialogue(label).items)
        dialogue_units.append(UnitScore(unit=label, metrics=set_prf(predicted, gold)))

    appearances = character_appearances(unified).appearances
    predicted_pairs = {
        (normalize_token(label), panel_id)
        for label, panel_ids in appearances.items()
        for panel_id in panel_ids
    }
    character_units = [
        UnitScore(
            unit=corpus.story_id,
            metrics=set_prf(predicted_pairs, set(gold_index.characters().items)),
        )
    ]

    timeline_units = []
    for label in macro_labels:
        predicted = panel_timeline(unified, label).items
        gold = gold_index.timeline(label).items
        timeline_units.append(UnitScore(unit=label, metrics=ordering_prf(predicted, gold)))

    return EvaluationReport(
        tasks=(
            _micro("actions", *names["actions"], action_units),
            _micro("dialogue", *names["dialogue"], dialogue_units),
            _micro("characters", *names["characters"], character_units),
            _micro("timeline", *names["timeline"], timeline_units),
        )
    )
