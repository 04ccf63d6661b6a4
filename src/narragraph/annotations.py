"""Annotation schema for comic stories, with a JSON parser and validator.

A story is a single JSON document carrying a three-level event hierarchy
(macro-events > events > event segments) and the per-panel multimodal
annotations: characters, actions, scene objects, dialogue and captions.
Panel order is given exclusively by the integer ``reading_order`` field;
panel ids are opaque strings and are never compared lexicographically.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from enum import Enum, auto
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
    """A line of dialogue or a caption; which one is said by the panel list
    that holds it. A caption has no speaker."""

    id: str
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

class _Form(Enum):
    """How a field is read from its JSON value; an optional form reads an
    absent field as null."""

    STR = auto()  # a string
    OPT_STR = auto()  # a string or null
    NAT = auto()  # a non-negative integer; a bool is not one
    ENUM = auto()  # a string naming a member of the field's enum
    OPT_ENUM = auto()  # ENUM or null
    STR_LIST = auto()  # a list of strings, read as a tuple
    RECORDS = auto()  # a list of records of the field's kind, read as a tuple


_OPTIONAL = (_Form.OPT_STR, _Form.OPT_ENUM)
_ENUMS = (_Form.ENUM, _Form.OPT_ENUM)
#: Forms whose values ``json.dumps`` writes as they are, None included; it
#: writes a tuple as a list.
_AS_IS = (_Form.STR, _Form.NAT, _Form.STR_LIST)
#: JSON value types each form admits before its value is looked at.
_TYPES = {
    _Form.STR: (str,),
    _Form.OPT_STR: (str, type(None)),
    _Form.NAT: (int,),
    _Form.ENUM: (str,),
    _Form.OPT_ENUM: (str, type(None)),
    _Form.STR_LIST: (list,),
    _Form.RECORDS: (list,),
}
# isinstance(value, str) as a one-argument function, for all(map(...)).
_is_str = str.__instancecheck__


class _Fault(Exception):
    """Some check of the document failed; :func:`_first_fault` says which."""


class _RecordKind:
    """The field table of one record kind, and the lookups derived from it.

    ``fields`` lists ``(name, form, arg)`` in check order, where ``arg`` is
    the enum of an ``ENUM`` field and the record kind of a ``RECORDS`` field.
    The JSON key of a field is its dataclass field name; a dataclass field
    not in the table is not read or written and keeps its default.
    ``names`` and ``forms`` hold the fields in dataclass field order, which
    is the order the fast path reads them and the key order of the JSON
    that :func:`serialize_corpus` writes.
    """

    def __init__(self, cls: type, fields: tuple[tuple[str, _Form, Any], ...]):
        self.cls = cls
        self.fields = fields
        table = {name: (form, arg) for name, form, arg in fields}
        self.names = tuple(f.name for f in dataclasses.fields(cls) if f.name in table)
        self.forms = forms = tuple(table[name] for name in self.names)
        self.types = frozenset(itertools.product(*(_TYPES[form] for form, _ in forms)))
        self.nats = tuple(j for j, (form, _) in enumerate(forms) if form is _Form.NAT)
        self.enums = tuple(
            (j, {member.value: member for member in arg})
            for j, (form, arg) in enumerate(forms)
            if form in _ENUMS
        )
        self.str_lists = tuple(j for j, (form, _) in enumerate(forms) if form is _Form.STR_LIST)
        self.records = tuple((j, arg) for j, (form, arg) in enumerate(forms) if form is _Form.RECORDS)


_S, _O = _Form.STR, _Form.OPT_STR
_MACRO = _RecordKind(MacroEvent, (("id", _S, None), ("label", _S, None), ("description", _S, None)))
_EVENT = _RecordKind(
    Event,
    (("id", _S, None), ("macro_event_id", _S, None), ("label", _S, None), ("description", _S, None)),
)
_SEGMENT = _RecordKind(
    EventSegment,
    (
        ("narrative_role", _Form.OPT_ENUM, NarrativeRole),
        ("id", _S, None),
        ("event_id", _S, None),
        ("description", _S, None),
    ),
)
_ACTION = _RecordKind(ActionTriple, (("agent", _S, None), ("verb", _S, None), ("object", _O, None)))
_DIALOGUE = _RecordKind(Utterance, (("speaker", _O, None), ("id", _S, None), ("text", _S, None)))
# A caption has no speaker; a "speaker" key in one is not read or written.
_CAPTION = _RecordKind(Utterance, (("id", _S, None), ("text", _S, None)))
_PANEL = _RecordKind(
    PanelAnnotation,
    (
        ("shot_type", _Form.ENUM, ShotType),
        ("panel_id", _S, None),
        ("segment_id", _S, None),
        ("page_index", _Form.NAT, None),
        ("reading_order", _Form.NAT, None),
        ("image_path", _O, None),
        ("characters", _Form.STR_LIST, None),
        ("background", _O, None),
        ("objects", _Form.STR_LIST, None),
        ("actions", _Form.RECORDS, _ACTION),
        ("dialogues", _Form.RECORDS, _DIALOGUE),
        ("captions", _Form.RECORDS, _CAPTION),
        ("event_description", _O, None),
    ),
)
_STORY = _RecordKind(
    AnnotationCorpus,
    (
        ("story_id", _S, None),
        ("macro_events", _Form.RECORDS, _MACRO),
        ("events", _Form.RECORDS, _EVENT),
        ("segments", _Form.RECORDS, _SEGMENT),
        ("panels", _Form.RECORDS, _PANEL),
    ),
)
del _S, _O


def _records(items: list, kind: _RecordKind) -> tuple:
    """The records of ``kind`` that ``items`` holds, each checked in one
    pass; raises ``_Fault`` as soon as some check fails."""
    cls, names, types = kind.cls, kind.names, kind.types
    nats, enums, str_lists, records = kind.nats, kind.enums, kind.str_lists, kind.records
    flat = not (nats or enums or str_lists or records)
    out = []
    for obj in items:
        if type(obj) is not dict:
            raise _Fault
        # An absent field reads as None, which no required form admits.
        values = list(map(obj.get, names))
        if tuple(map(type, values)) not in types:
            raise _Fault
        if not flat:
            for j in nats:
                if values[j] < 0:
                    raise _Fault
            for j, members in enums:
                raw = values[j]
                if raw is not None:
                    if raw not in members:
                        raise _Fault
                    values[j] = members[raw]
            for j in str_lists:
                if not all(map(_is_str, values[j])):
                    raise _Fault
                values[j] = tuple(values[j])
            for j, sub in records:
                values[j] = _records(values[j], sub) if values[j] else ()
        out.append(cls(*values))
    return tuple(out)


def _first_fault(obj: Any, kind: _RecordKind, path: str) -> Optional[SchemaError]:
    """The error of the first check that record ``obj`` of ``kind`` fails,
    walking its fields and their items in table order, or None. ``path``
    addresses the record; the root's is empty."""
    if type(obj) is not dict:
        return SchemaError(path or "$", "expected an object")
    for name, form, arg in kind.fields:
        at = f"{path}.{name}" if path else name
        value = obj.get(name)
        if form in _OPTIONAL:
            if value is None:
                continue
            if type(value) is not str:
                return SchemaError(at, "expected a string or null")
        elif name not in obj:
            return SchemaError(at, "missing required field")
        elif form is _Form.NAT:
            if type(value) is not int:
                return SchemaError(at, "expected an integer")
            if value < 0:
                return SchemaError(at, "expected a non-negative integer")
        elif form in (_Form.STR, _Form.ENUM):
            if type(value) is not str:
                return SchemaError(at, "expected a string")
        elif type(value) is not list:
            return SchemaError(at, "expected a list")
        elif form is _Form.STR_LIST:
            for j, item in enumerate(value):
                if type(item) is not str:
                    return SchemaError(f"{at}[{j}]", "expected a string")
        else:
            for j, item in enumerate(value):
                fault = _first_fault(item, arg, f"{at}[{j}]")
                if fault is not None:
                    return fault
        if form in _ENUMS and value not in {member.value for member in arg}:
            return SchemaError(at, f"unknown {name} {value!r}")
    return None


def parse_corpus(text: str) -> AnnotationCorpus:
    """Parse one story document into a typed corpus, checking its shape only.

    Raises ``SchemaError`` on malformed JSON or a key repeated within one
    object (path ``$``), and on missing fields, wrong types or unknown enum
    values, with a path to the offending element. Ids and references are not
    checked here: that is :func:`validate_corpus`'s job. List order from the
    file is preserved.

    Each record is checked against its kind's field table in one pass, and
    no path is built unless a check fails; then the document is walked
    again in check order to report the first failing field.
    """
    doc = parse_json(text, unique_keys=True)
    try:
        return _records([doc], _STORY)[0]
    except _Fault:
        raise _first_fault(doc, _STORY, "") from None


# --- serialization -----------------------------------------------------

def _record_obj(record: Any, kind: _RecordKind) -> dict:
    """The JSON object of ``record``, one key per field of ``kind`` in
    dataclass field order; an optional field that is None is left out."""
    obj = {}
    for name, (form, arg) in zip(kind.names, kind.forms):
        value = getattr(record, name)
        if form in _AS_IS:
            pass
        elif value is None:
            if form in _OPTIONAL:
                continue
        elif form in _ENUMS:
            value = value.value
        elif form is _Form.RECORDS:
            value = [_record_obj(item, arg) for item in value]
        obj[name] = value
    return obj


def serialize_corpus(corpus: AnnotationCorpus) -> str:
    """Render a corpus in its canonical single-document JSON form.

    The document is written from the field tables :func:`parse_corpus`
    reads: keys in dataclass field order, an optional field that is None
    left out, and a caption's speaker never written. So
    ``parse_corpus(serialize_corpus(c)) == c`` holds for every ``c`` that
    ``parse_corpus`` can return, valid or not: each field holds a value of
    its form (a string, or None where optional; a non-negative int; a member
    of its enum; a tuple of strings or of records of its list's kind), and
    no caption has a speaker.
    """
    return json.dumps(_record_obj(corpus, _STORY), indent=2, ensure_ascii=False) + "\n"


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
