"""Annotation schema for comic stories, with a JSON parser and validator.

A story is a single JSON document carrying a three-level event hierarchy
(macro-events > events > event segments) and the per-panel multimodal
annotations: characters, actions, scene objects, dialogue and captions.
Panel order is given exclusively by the integer ``reading_order`` field;
panel ids are opaque strings and are never compared lexicographically.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring as quote
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

# The forms: how a field is read from its JSON value. The parser compares
# them by identity; an optional form reads an absent field as null.
_STR = "str"  # a string
_OPT_STR = "opt_str"  # a string or null
_NAT = "nat"  # a non-negative integer; a bool is not one
_ENUM = "enum"  # a string naming a member of the field's enum
_OPT_ENUM = "opt_enum"  # _ENUM or null
_STR_LIST = "str_list"  # a list of strings, read as a tuple
_RECORDS = "records"  # a list of records of the field's kind, read as a tuple
_ENUMS = (_ENUM, _OPT_ENUM)


class _RecordKind:
    """The field table of one record kind.

    ``fields`` is given as ``(name, form, arg)`` in check order, where
    ``arg`` is the enum of an ``_ENUM`` field and the record kind of a
    ``_RECORDS`` field. The JSON key of a field is its dataclass field name;
    a dataclass field not in the table is not read or written and keeps
    its default. ``names`` and ``forms`` hold the fields in dataclass field
    order, which is the order of the record's constructor arguments and the
    key order of the JSON that :func:`serialize_corpus` writes. The stored
    ``fields`` add each field's index in ``names`` and read an enum's
    ``arg`` as a map from value to member, for :func:`_record`.
    """

    def __init__(self, cls: type, fields: tuple[tuple[str, str, Any], ...]):
        self.cls = cls
        table = {name: (form, arg) for name, form, arg in fields}
        self.names = tuple(f.name for f in dataclasses.fields(cls) if f.name in table)
        self.forms = tuple(table[name] for name in self.names)
        self.fields = tuple(
            (name, form, {m.value: m for m in arg} if form in _ENUMS else arg, self.names.index(name))
            for name, form, arg in fields
        )


_MACRO = _RecordKind(MacroEvent, (("id", _STR, None), ("label", _STR, None), ("description", _STR, None)))
_EVENT = _RecordKind(
    Event,
    (("id", _STR, None), ("macro_event_id", _STR, None), ("label", _STR, None), ("description", _STR, None)),
)
_SEGMENT = _RecordKind(
    EventSegment,
    (
        ("narrative_role", _OPT_ENUM, NarrativeRole),
        ("id", _STR, None),
        ("event_id", _STR, None),
        ("description", _STR, None),
    ),
)
_ACTION = _RecordKind(ActionTriple, (("agent", _STR, None), ("verb", _STR, None), ("object", _OPT_STR, None)))
_DIALOGUE = _RecordKind(Utterance, (("speaker", _OPT_STR, None), ("id", _STR, None), ("text", _STR, None)))
# A caption has no speaker; a "speaker" key in one is not read or written.
_CAPTION = _RecordKind(Utterance, (("id", _STR, None), ("text", _STR, None)))
_PANEL = _RecordKind(
    PanelAnnotation,
    (
        ("shot_type", _ENUM, ShotType),
        ("panel_id", _STR, None),
        ("segment_id", _STR, None),
        ("page_index", _NAT, None),
        ("reading_order", _NAT, None),
        ("image_path", _OPT_STR, None),
        ("characters", _STR_LIST, None),
        ("background", _OPT_STR, None),
        ("objects", _STR_LIST, None),
        ("actions", _RECORDS, _ACTION),
        ("dialogues", _RECORDS, _DIALOGUE),
        ("captions", _RECORDS, _CAPTION),
        ("event_description", _OPT_STR, None),
    ),
)
_STORY = _RecordKind(
    AnnotationCorpus,
    (
        ("story_id", _STR, None),
        ("macro_events", _RECORDS, _MACRO),
        ("events", _RECORDS, _EVENT),
        ("segments", _RECORDS, _SEGMENT),
        ("panels", _RECORDS, _PANEL),
    ),
)


def _record(obj: Any, kind: _RecordKind) -> Any:
    """The record of ``kind`` that ``obj`` holds, each field checked once,
    in table order. The first check that fails raises its ``SchemaError``,
    with a path relative to ``obj``: empty for ``obj`` itself."""
    if type(obj) is not dict:
        raise SchemaError("", "expected an object")
    values = [None] * len(kind.names)
    for name, form, arg, slot in kind.fields:
        value = obj.get(name)
        if form is _STR:
            if type(value) is not str:
                raise SchemaError(name, "expected a string" if name in obj else "missing required field")
        elif form is _OPT_STR:
            if value is not None and type(value) is not str:
                raise SchemaError(name, "expected a string or null")
        elif form is _RECORDS:
            if type(value) is not list:
                raise SchemaError(name, "expected a list" if name in obj else "missing required field")
            items = []
            for j, item in enumerate(value):
                try:
                    items.append(_record(item, arg))
                except SchemaError as exc:
                    at = f"{name}[{j}]"
                    raise SchemaError(f"{at}.{exc.path}" if exc.path else at, exc.reason) from None
            value = tuple(items)
        elif form is _STR_LIST:
            if type(value) is not list:
                raise SchemaError(name, "expected a list" if name in obj else "missing required field")
            for j, item in enumerate(value):
                if type(item) is not str:
                    raise SchemaError(f"{name}[{j}]", "expected a string")
            value = tuple(value)
        elif form is _NAT:
            if type(value) is not int:
                raise SchemaError(name, "expected an integer" if name in obj else "missing required field")
            if value < 0:
                raise SchemaError(name, "expected a non-negative integer")
        elif value is not None or form is _ENUM:  # an enum; an optional one may be null
            if type(value) is not str:
                if form is _OPT_ENUM:
                    raise SchemaError(name, "expected a string or null")
                raise SchemaError(name, "expected a string" if name in obj else "missing required field")
            if value not in arg:
                raise SchemaError(name, f"unknown {name} {value!r}")
            value = arg[value]
        values[slot] = value
    return kind.cls(*values)


def parse_corpus(text: str) -> AnnotationCorpus:
    """Parse one story document into a typed corpus, checking its shape only.

    Raises ``SchemaError`` on malformed JSON or a key repeated within one
    object (path ``$``), and on missing fields, wrong types or unknown enum
    values, with a path to the offending element. Ids and references are not
    checked here: that is :func:`validate_corpus`'s job. List order from the
    file is preserved.

    One walk checks each field of each record once, against its kind's
    field table and in table order, and raises at the first check that
    fails. No path is built unless a check fails; then each record list on
    the way up prefixes its item's path.
    """
    doc = parse_json(text, unique_keys=True)
    try:
        return _record(doc, _STORY)
    except SchemaError as exc:
        raise SchemaError(exc.path or "$", exc.reason) from None


# --- serialization -----------------------------------------------------

#: What a field of each form holds, for the ``TypeError`` of a value that
#: is not one; ``{}`` is the name of the field's enum or record class.
_EXPECTED = {
    _STR: "a string",
    _OPT_STR: "a string or None",
    _NAT: "an int",
    _ENUM: "a {}",
    _OPT_ENUM: "a {} or None",
    _STR_LIST: "a tuple of strings",
    _RECORDS: "a tuple of {}",
}


@functools.cache
def _layout(kind: _RecordKind, indent: int) -> tuple:
    """How :func:`_write` lays out a record of ``kind`` whose ``{`` stands
    at column ``indent``, as ``json.dumps(..., indent=2)`` does.

    It holds one ``(name, form, arg, key, expected)`` per field in
    ``kind.names`` order, where ``key`` is the text from the end of the
    previous field to the field's value, ``arg`` is a record list's item
    layout and ``expected`` names the field's form; then the text that
    opens, separates and closes a list's items, and the record's closing
    text. The first field of every kind is required, so its key opens the
    record.
    """
    pad, inner = "\n" + " " * (indent + 2), "\n" + " " * (indent + 4)
    fields = []
    for name, (form, arg) in zip(kind.names, kind.forms):
        key = ("," if fields else "{") + pad + quote(name) + ": "
        if form is _RECORDS:
            expected, arg = _EXPECTED[form].format(arg.cls.__name__), _layout(arg, indent + 4)
        else:
            expected = _EXPECTED[form].format(getattr(arg, "__name__", ""))
        fields.append((name, form, arg, key, expected))
    return tuple(fields), "[" + inner, "," + inner, pad + "]", "\n" + " " * indent + "}"


def _write(record: Any, layout: tuple, out: list[str]) -> None:
    """Append the JSON text of ``record``, laid out by ``layout``, to ``out``.

    The first field, in ``names`` order, whose value is not of its form
    raises ``TypeError`` with its path relative to ``record``.
    """
    fields, item_open, item_sep, list_shut, shut = layout
    for name, form, arg, key, expected in fields:
        value = getattr(record, name)
        if form is _RECORDS:
            if not isinstance(value, (tuple, list)):
                raise TypeError(f"{name}: expected {expected}, not {type(value).__name__}")
            if not value:
                out += (key, "[]")
                continue
            out += (key, item_open)
            for j, item in enumerate(value):
                if j:
                    out.append(item_sep)
                try:
                    _write(item, arg, out)
                except TypeError as exc:
                    raise TypeError(f"{name}[{j}].{exc}") from None
            out.append(list_shut)
            continue
        try:
            if form is _STR:
                out += (key, quote(value))
            elif form is _OPT_STR:
                if value is not None:
                    out += (key, quote(value))
            elif form is _STR_LIST:
                if not isinstance(value, (tuple, list)):
                    raise TypeError
                out += (key, item_open + item_sep.join(map(quote, value)) + list_shut if value else "[]")
            elif form is _NAT:
                if type(value) is not int:
                    raise TypeError
                out += (key, int.__repr__(value))
            elif value is not None or form is _ENUM:  # an enum; an optional one may be None
                if type(value) is not arg:
                    raise TypeError
                out += (key, quote(value.value))
        except TypeError:
            if form is _STR_LIST and isinstance(value, (tuple, list)):
                j, value = next((j, item) for j, item in enumerate(value) if not isinstance(item, str))
                name, expected = f"{name}[{j}]", "a string"
            raise TypeError(f"{name}: expected {expected}, not {type(value).__name__}") from None
    out.append(shut)


def serialize_corpus(corpus: AnnotationCorpus) -> str:
    """Render a corpus in its canonical single-document JSON form.

    The document is written from the field tables :func:`parse_corpus`
    reads: keys in dataclass field order, an optional field that is None
    left out, and a caption's speaker never written. The text is the one
    ``json.dumps(..., indent=2, ensure_ascii=False)`` writes, plus a final
    newline, but it is written here, as :func:`narragraph.graph.graph_chunks`
    writes a graph file: every string through the C string encoder, every
    integer through ``int.__repr__``, an enum member as its quoted value and
    each key prefix built once per record kind.

    So ``parse_corpus(serialize_corpus(c)) == c`` holds for every ``c`` that
    ``parse_corpus`` can return, valid or not: each field holds a value of
    its form (a string, or None where optional; a non-negative int; a member
    of its enum; a tuple of strings or of records of its list's kind), and
    no caption has a speaker. A value that is not of its field's form (None
    in a string or list field, a bool or float in an integer field, a plain
    string in an enum field) raises ``TypeError`` naming the field's path,
    as in ``panels[3].actions[0].verb``.
    """
    out: list[str] = []
    _write(corpus, _layout(_STORY, 0), out)
    out.append("\n")
    return "".join(out)


# --- validation --------------------------------------------------------

def _check_unique(items, list_name: str, id_field: str, out: list[Violation]) -> set[str]:
    """The set of ids in ``items``; each repeat adds a violation to ``out``."""
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
    return seen


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

    macro_ids = _check_unique((m.id for m in corpus.macro_events), "macro_events", "id", out)
    event_ids = _check_unique((e.id for e in corpus.events), "events", "id", out)
    segment_ids = _check_unique((s.id for s in corpus.segments), "segments", "id", out)
    _check_unique((p.panel_id for p in corpus.panels), "panels", "panel_id", out)

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
