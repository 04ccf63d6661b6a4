"""``parse_corpus`` as it was before the table-driven parser: each field is
read through its own helper, and each record's path is built as it is read.
``serialize_corpus`` as it was before the writer wrote its own text: a dict
tree walked from the field tables, handed to ``json.dumps(indent=2)``.

They are kept only as the references the package is checked against
(``test_corpus_reference.py``): the parser must give an equal corpus for
every document the reference parser accepts, and the same ``SchemaError``
path and reason for every document it rejects; the writer must give the
same text for every corpus whose fields hold values of their forms. The
reference parser reads JSON with ``parse_json``, so it refuses a key
repeated within one object, as the package does.
"""

import json
from typing import Any, Optional

from narragraph import (
    ActionTriple,
    AnnotationCorpus,
    Event,
    EventSegment,
    MacroEvent,
    NarrativeRole,
    PanelAnnotation,
    SchemaError,
    ShotType,
    Utterance,
)
from narragraph.annotations import (
    _ENUMS, _NAT, _OPT_ENUM, _OPT_STR, _RECORDS, _STORY, _STR, _STR_LIST, _RecordKind,
)
from narragraph.errors import parse_json

#: The forms that read an absent field as null, and that the writer leaves out when None.
_OPTIONAL = (_OPT_STR, _OPT_ENUM)


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


def _parse_utterance(value: Any, path: str, dialogue: bool) -> Utterance:
    obj = _as_object(value, path)
    speaker = None
    if dialogue:
        speaker = _opt_str(obj, "speaker", path)
    return Utterance(
        id=_get_str(obj, "id", path),
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
            _parse_utterance(u, f"{path}.dialogues[{i}]", True)
            for i, u in enumerate(_get_list(obj, "dialogues", path))
        ),
        captions=tuple(
            _parse_utterance(u, f"{path}.captions[{i}]", False)
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


def _record_obj(record: Any, kind: _RecordKind) -> dict:
    """The JSON object of ``record``, one key per field of ``kind`` in
    dataclass field order; an optional field that is None is left out."""
    obj = {}
    for name, (form, arg) in zip(kind.names, kind.forms):
        value = getattr(record, name)
        if form in (_STR, _NAT, _STR_LIST):  # json.dumps writes these as they are
            pass
        elif value is None:
            if form in _OPTIONAL:
                continue
        elif form in _ENUMS:
            value = value.value
        elif form is _RECORDS:
            value = [_record_obj(item, arg) for item in value]
        obj[name] = value
    return obj


def serialize_corpus(corpus: AnnotationCorpus) -> str:
    """Render a corpus in its canonical single-document JSON form."""
    return json.dumps(_record_obj(corpus, _STORY), indent=2, ensure_ascii=False) + "\n"
