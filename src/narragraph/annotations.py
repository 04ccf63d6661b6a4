"""Annotation schema for comic stories, with a JSON parser and validator.

A story is a single JSON document carrying a three-level event hierarchy
(macro-events > events > event segments) and the per-panel multimodal
annotations: characters, actions, scene objects, dialogue and captions.
Panel order is given exclusively by the integer ``reading_order`` field;
panel ids are opaque strings and are never compared lexicographically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from .errors import SchemaError, parse_json


class ShotType(str, Enum):
    """Camera framing of a panel; ``NONE`` marks text-only panels."""

    LONG_SHOT = "long_shot"
    HIGH_ANGLE = "high_angle"
    FULL_SHOT = "full_shot"
    MEDIUM_LONG_SHOT = "medium_long_shot"
    MEDIUM_SHOT = "medium_shot"
    CLOSE_SHOT = "close_shot"
    NONE = "none"


class NarrativeRole(str, Enum):
    """Narrative-grammar role an event segment may carry."""

    ESTABLISHER = "establisher"
    PEAK = "peak"
    RELEASE = "release"
    OTHER = "other"


class UtteranceKind(str, Enum):
    DIALOGUE = "dialogue"
    CAPTION = "caption"


def normalize_token(text: str) -> str:
    """Comparison form of a verb or label: lowercase, trimmed, internal
    whitespace runs joined with ``_``. Stored annotation text is never
    rewritten; this is applied at extraction/comparison time only."""
    return "_".join(text.strip().lower().split())


def normalize_utterance(text: str) -> str:
    """Comparison form of an utterance: trimmed and lowercased.
    Punctuation is kept because it distinguishes utterances."""
    return text.strip().lower()


@dataclass(frozen=True)
class MacroEvent:
    id: str
    label: str
    description: str = ""


@dataclass(frozen=True)
class Event:
    id: str
    macro_event_id: str
    label: str
    description: str = ""


@dataclass(frozen=True)
class EventSegment:
    id: str
    event_id: str
    narrative_role: Optional[NarrativeRole] = None
    description: str = ""


@dataclass(frozen=True)
class ActionTriple:
    """Subject-verb-object action bound to its agent character."""

    agent: str
    verb: str
    object: Optional[str] = None


@dataclass(frozen=True)
class Utterance:
    id: str
    kind: UtteranceKind
    text: str
    speaker: Optional[str] = None


@dataclass(frozen=True)
class PanelAnnotation:
    """One comic frame with its visual and textual annotations."""

    panel_id: str
    segment_id: str
    page_index: int
    reading_order: int
    shot_type: ShotType
    image_path: Optional[str] = None
    characters: tuple[str, ...] = ()
    background: Optional[str] = None
    objects: tuple[str, ...] = ()
    actions: tuple[ActionTriple, ...] = ()
    dialogues: tuple[Utterance, ...] = ()
    captions: tuple[Utterance, ...] = ()
    event_description: Optional[str] = None


@dataclass(frozen=True)
class AnnotationCorpus:
    """Parsed, immutable form of one annotated story."""

    story_id: str
    macro_events: tuple[MacroEvent, ...] = ()
    events: tuple[Event, ...] = ()
    segments: tuple[EventSegment, ...] = ()
    panels: tuple[PanelAnnotation, ...] = ()


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"error at {self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# --- parsing -----------------------------------------------------------

def _child(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(_child(path, key), "missing required field")
    return obj[key]


def _get_str(obj: dict, key: str, path: str) -> str:
    value = _get(obj, key, path)
    if not isinstance(value, str):
        raise SchemaError(_child(path, key), "expected a string")
    return value


def _get_int(obj: dict, key: str, path: str) -> int:
    value = _get(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(_child(path, key), "expected an integer")
    if value < 0:
        raise SchemaError(_child(path, key), "expected a non-negative integer")
    return value


def _get_list(obj: dict, key: str, path: str) -> list:
    value = _get(obj, key, path)
    if not isinstance(value, list):
        raise SchemaError(_child(path, key), "expected a list")
    return value


def _opt_str(obj: dict, key: str, path: str) -> Optional[str]:
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise SchemaError(_child(path, key), "expected a string or null")
    return value


def _as_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object")
    return value


def _str_items(values: list, path: str) -> tuple[str, ...]:
    out = []
    for i, value in enumerate(values):
        if not isinstance(value, str):
            raise SchemaError(f"{path}[{i}]", "expected a string")
        out.append(value)
    return tuple(out)


def _parse_macro(value: Any, path: str) -> MacroEvent:
    obj = _as_object(value, path)
    return MacroEvent(
        id=_get_str(obj, "id", path),
        label=_get_str(obj, "label", path),
        description=_get_str(obj, "description", path),
    )


def _parse_event(value: Any, path: str) -> Event:
    obj = _as_object(value, path)
    return Event(
        id=_get_str(obj, "id", path),
        macro_event_id=_get_str(obj, "macro_event_id", path),
        label=_get_str(obj, "label", path),
        description=_get_str(obj, "description", path),
    )


def _parse_segment(value: Any, path: str) -> EventSegment:
    obj = _as_object(value, path)
    role_raw = _opt_str(obj, "narrative_role", path)
    role = None
    if role_raw is not None:
        try:
            role = NarrativeRole(role_raw)
        except ValueError:
            raise SchemaError(
                _child(path, "narrative_role"),
                f"unknown narrative_role {role_raw!r}",
            ) from None
    return EventSegment(
        id=_get_str(obj, "id", path),
        event_id=_get_str(obj, "event_id", path),
        narrative_role=role,
        description=_get_str(obj, "description", path),
    )


def _parse_action(value: Any, path: str) -> ActionTriple:
    obj = _as_object(value, path)
    return ActionTriple(
        agent=_get_str(obj, "agent", path),
        verb=_get_str(obj, "verb", path),
        object=_opt_str(obj, "object", path),
    )


def _parse_utterance(value: Any, path: str, kind: UtteranceKind) -> Utterance:
    obj = _as_object(value, path)
    speaker = None
    if kind is UtteranceKind.DIALOGUE:
        speaker = _opt_str(obj, "speaker", path)
    return Utterance(
        id=_get_str(obj, "id", path),
        kind=kind,
        text=_get_str(obj, "text", path),
        speaker=speaker,
    )


def _parse_panel(value: Any, path: str) -> PanelAnnotation:
    obj = _as_object(value, path)
    shot_raw = _get_str(obj, "shot_type", path)
    try:
        shot = ShotType(shot_raw)
    except ValueError:
        raise SchemaError(
            _child(path, "shot_type"), f"unknown shot_type {shot_raw!r}"
        ) from None
    return PanelAnnotation(
        panel_id=_get_str(obj, "panel_id", path),
        segment_id=_get_str(obj, "segment_id", path),
        page_index=_get_int(obj, "page_index", path),
        reading_order=_get_int(obj, "reading_order", path),
        shot_type=shot,
        image_path=_opt_str(obj, "image_path", path),
        characters=_str_items(_get_list(obj, "characters", path), _child(path, "characters")),
        background=_opt_str(obj, "background", path),
        objects=_str_items(_get_list(obj, "objects", path), _child(path, "objects")),
        actions=tuple(
            _parse_action(a, f"{path}.actions[{i}]")
            for i, a in enumerate(_get_list(obj, "actions", path))
        ),
        dialogues=tuple(
            _parse_utterance(u, f"{path}.dialogues[{i}]", UtteranceKind.DIALOGUE)
            for i, u in enumerate(_get_list(obj, "dialogues", path))
        ),
        captions=tuple(
            _parse_utterance(u, f"{path}.captions[{i}]", UtteranceKind.CAPTION)
            for i, u in enumerate(_get_list(obj, "captions", path))
        ),
        event_description=_opt_str(obj, "event_description", path),
    )


def parse_corpus(text: str) -> AnnotationCorpus:
    """Parse one story document into a typed corpus, checking its shape only.

    Raises ``SchemaError`` on malformed JSON (path ``$``) and on missing
    fields, wrong types or unknown enum values, with a path to the offending
    element. Ids and references are not checked here: that is
    :func:`validate_corpus`'s job. List order from the file is preserved.
    """
    root = _as_object(parse_json(text), "$")
    return AnnotationCorpus(
        story_id=_get_str(root, "story_id", ""),
        macro_events=tuple(
            _parse_macro(m, f"macro_events[{i}]")
            for i, m in enumerate(_get_list(root, "macro_events", ""))
        ),
        events=tuple(
            _parse_event(e, f"events[{i}]")
            for i, e in enumerate(_get_list(root, "events", ""))
        ),
        segments=tuple(
            _parse_segment(s, f"segments[{i}]")
            for i, s in enumerate(_get_list(root, "segments", ""))
        ),
        panels=tuple(
            _parse_panel(p, f"panels[{i}]")
            for i, p in enumerate(_get_list(root, "panels", ""))
        ),
    )


# --- serialization -----------------------------------------------------

def _action_obj(action: ActionTriple) -> dict:
    obj: dict[str, Any] = {"agent": action.agent, "verb": action.verb}
    if action.object is not None:
        obj["object"] = action.object
    return obj


def _utterance_obj(utterance: Utterance) -> dict:
    obj: dict[str, Any] = {"id": utterance.id, "text": utterance.text}
    if utterance.kind is UtteranceKind.DIALOGUE and utterance.speaker is not None:
        obj["speaker"] = utterance.speaker
    return obj


def _panel_obj(panel: PanelAnnotation) -> dict:
    obj: dict[str, Any] = {
        "panel_id": panel.panel_id,
        "segment_id": panel.segment_id,
        "page_index": panel.page_index,
        "reading_order": panel.reading_order,
        "shot_type": panel.shot_type.value,
    }
    if panel.image_path is not None:
        obj["image_path"] = panel.image_path
    obj["characters"] = list(panel.characters)
    if panel.background is not None:
        obj["background"] = panel.background
    obj["objects"] = list(panel.objects)
    obj["actions"] = [_action_obj(a) for a in panel.actions]
    obj["dialogues"] = [_utterance_obj(u) for u in panel.dialogues]
    obj["captions"] = [_utterance_obj(u) for u in panel.captions]
    if panel.event_description is not None:
        obj["event_description"] = panel.event_description
    return obj


def _segment_obj(segment: EventSegment) -> dict:
    obj: dict[str, Any] = {"id": segment.id, "event_id": segment.event_id}
    if segment.narrative_role is not None:
        obj["narrative_role"] = segment.narrative_role.value
    obj["description"] = segment.description
    return obj


def serialize_corpus(corpus: AnnotationCorpus) -> str:
    """Render a corpus in its canonical single-document JSON form.

    ``parse_corpus(serialize_corpus(c)) == c`` for every valid corpus.
    """
    obj = {
        "story_id": corpus.story_id,
        "macro_events": [
            {"id": m.id, "label": m.label, "description": m.description}
            for m in corpus.macro_events
        ],
        "events": [
            {
                "id": e.id,
                "macro_event_id": e.macro_event_id,
                "label": e.label,
                "description": e.description,
            }
            for e in corpus.events
        ],
        "segments": [_segment_obj(s) for s in corpus.segments],
        "panels": [_panel_obj(p) for p in corpus.panels],
    }
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# --- validation --------------------------------------------------------

def _check_unique(items, list_name: str, id_field: str, out: list[Violation]) -> None:
    seen: set[str] = set()
    for i, item_id in enumerate(items):
        if item_id in seen:
            out.append(
                Violation(
                    f"{list_name}[{i}].{id_field}",
                    f"duplicate id {item_id!r}",
                )
            )
        seen.add(item_id)


def _check_refs(refs, known: set[str], list_name: str, field: str, noun: str, out: list[Violation]) -> None:
    for i, ref in enumerate(refs):
        if ref not in known:
            out.append(Violation(f"{list_name}[{i}].{field}", f"unknown {noun} id {ref!r}"))


def _check_labels(labels, list_name: str, out: list[Violation]) -> None:
    # Labels are the keys that queries and gold look units up by, so an
    # empty or repeated label would make a unit unreachable.
    seen: set[str] = set()
    for i, label in enumerate(labels):
        if not label.strip():
            out.append(Violation(f"{list_name}[{i}].label", "label is empty"))
        elif label in seen:
            out.append(
                Violation(f"{list_name}[{i}].label", f"duplicate label {label!r}")
            )
        seen.add(label)


def validate_corpus(corpus: AnnotationCorpus) -> ValidationReport:
    """Check every corpus invariant; violations are data, never exceptions.

    The report is empty iff the corpus is valid. The corpus is not touched,
    and repeated calls return identical reports.
    """
    out: list[Violation] = []

    _check_unique((m.id for m in corpus.macro_events), "macro_events", "id", out)
    _check_unique((e.id for e in corpus.events), "events", "id", out)
    _check_unique((s.id for s in corpus.segments), "segments", "id", out)
    _check_unique((p.panel_id for p in corpus.panels), "panels", "panel_id", out)

    macro_ids = {m.id for m in corpus.macro_events}
    event_ids = {e.id for e in corpus.events}
    segment_ids = {s.id for s in corpus.segments}
    _check_refs((e.macro_event_id for e in corpus.events), macro_ids, "events", "macro_event_id", "macro-event", out)
    _check_refs((s.event_id for s in corpus.segments), event_ids, "segments", "event_id", "event", out)
    _check_refs((p.segment_id for p in corpus.panels), segment_ids, "panels", "segment_id", "segment", out)

    orders = sorted(p.reading_order for p in corpus.panels)
    if orders != list(range(len(corpus.panels))):
        out.append(
            Violation(
                "panels",
                "reading_order not a permutation of 0..N-1",
            )
        )

    _check_labels((m.label for m in corpus.macro_events), "macro_events", out)
    _check_labels((e.label for e in corpus.events), "events", out)

    for i, panel in enumerate(corpus.panels):
        # Node ids of a panel's parts are "panel:<id>/<part>", so a "/" in
        # the id could name another panel's part.
        if "/" in panel.panel_id:
            out.append(Violation(f"panels[{i}].panel_id", f"panel id {panel.panel_id!r} contains '/'"))
        characters = set(panel.characters)
        for j, action in enumerate(panel.actions):
            if action.agent not in characters:
                out.append(
                    Violation(
                        f"panels[{i}].actions[{j}].agent",
                        f"agent {action.agent!r} is not in the characters of panel {panel.panel_id!r}",
                    )
                )
            if not normalize_token(action.verb):
                out.append(
                    Violation(
                        f"panels[{i}].actions[{j}].verb",
                        "verb is empty",
                    )
                )
        for kind_name, utterances in (("dialogues", panel.dialogues), ("captions", panel.captions)):
            for j, utterance in enumerate(utterances):
                if not utterance.text.strip():
                    out.append(
                        Violation(
                            f"panels[{i}].{kind_name}[{j}].text",
                            "utterance text is empty",
                        )
                    )
                if utterance.speaker is not None and utterance.speaker not in characters:
                    out.append(
                        Violation(
                            f"panels[{i}].{kind_name}[{j}].speaker",
                            f"speaker {utterance.speaker!r} is not in the characters of panel {panel.panel_id!r}",
                        )
                    )

    return ValidationReport(violations=tuple(out))
