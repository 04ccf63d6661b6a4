import dataclasses
import json

import pytest

import narragraph as ng
from narragraph import (
    ActionTriple,
    AnnotationCorpus,
    SchemaError,
    ShotType,
    normalize_token,
    normalize_utterance,
    parse_corpus,
    serialize_corpus,
    validate_corpus,
)

import util


EMPTY_DOC = '{"story_id":"s","macro_events":[],"events":[],"segments":[],"panels":[]}'


def test_parse_bundled_story(story):
    assert story.story_id == "sample_story"
    assert len(story.panels) == 9
    assert [p.reading_order for p in story.panels] == list(range(9))
    assert story.macro_events[0].label == "Think of family"
    assert [e.label for e in story.events] == ["Intro_1", "Intro_2"]
    assert story.panels[0].panel_id == "0_0_0"
    assert story.panels[-1].panel_id == "0_2_2"


def test_parse_empty_corpus():
    corpus = parse_corpus(EMPTY_DOC)
    assert corpus == AnnotationCorpus(story_id="s")
    assert corpus.panels == ()


def test_parse_rejects_unknown_shot_type():
    doc = json.loads(ng.bundled_story_text())
    doc["panels"][3]["shot_type"] = "Bird Eye"
    with pytest.raises(SchemaError) as err:
        parse_corpus(json.dumps(doc))
    assert err.value.path == "panels[3].shot_type"


def test_parse_missing_field_has_path():
    doc = json.loads(ng.bundled_story_text())
    del doc["panels"][2]["reading_order"]
    with pytest.raises(SchemaError) as err:
        parse_corpus(json.dumps(doc))
    assert err.value.path == "panels[2].reading_order"


def test_parse_wrong_type_has_path():
    doc = json.loads(ng.bundled_story_text())
    doc["events"][1]["label"] = 7
    with pytest.raises(SchemaError) as err:
        parse_corpus(json.dumps(doc))
    assert err.value.path == "events[1].label"


def test_parse_negative_reading_order_rejected():
    doc = json.loads(EMPTY_DOC)
    doc["panels"] = [
        {
            "panel_id": "p",
            "segment_id": "s",
            "page_index": 0,
            "reading_order": -1,
            "shot_type": "none",
            "characters": [],
            "objects": [],
            "actions": [],
            "dialogues": [],
            "captions": [],
        }
    ]
    with pytest.raises(SchemaError):
        parse_corpus(json.dumps(doc))


def test_parse_malformed_json():
    with pytest.raises(SchemaError) as err:
        parse_corpus("{not json")
    assert err.value.path == "$"
    assert err.value.reason.startswith("not valid JSON: ")


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"story_id": ' + "1" * 4301 + "}", "Exceeds the limit (4300 digits)"),
        ("[" * 200_000, "maximum recursion depth exceeded"),
    ],
    ids=["too_many_digits", "too_deep"],
)
def test_parse_json_that_json_loads_cannot_decode(text, reason):
    with pytest.raises(SchemaError) as err:
        parse_corpus(text)
    assert err.value.path == "$"
    assert err.value.reason.startswith("not valid JSON: ")
    assert reason in err.value.reason


def test_roundtrip_bundled_story(story):
    text = ng.bundled_story_text()
    assert parse_corpus(serialize_corpus(story)) == story
    assert serialize_corpus(parse_corpus(text)) == text


def test_roundtrip_generated_corpora():
    for seed in range(30):
        corpus = ng.generate(ng.GenParams(seed=seed))
        assert parse_corpus(serialize_corpus(corpus)) == corpus


def _replace_panel(corpus, i, **changes):
    panels = list(corpus.panels)
    panels[i] = dataclasses.replace(panels[i], **changes)
    return dataclasses.replace(corpus, panels=tuple(panels))


def _replace_action(corpus, i, **changes):
    panel = corpus.panels[i]
    actions = (dataclasses.replace(panel.actions[0], **changes),) + panel.actions[1:]
    return _replace_panel(corpus, i, actions=actions)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: dataclasses.replace(c, story_id=None), "story_id: expected a string, not NoneType"),
        (lambda c: dataclasses.replace(c, panels=None), "panels: expected a tuple of PanelAnnotation, not NoneType"),
        (lambda c: _replace_panel(c, 1, characters=None), "panels[1].characters: expected a tuple of strings, not NoneType"),
        (lambda c: _replace_panel(c, 1, characters="AB"), "panels[1].characters: expected a tuple of strings, not str"),
        (lambda c: _replace_panel(c, 1, objects=("pot", 7)), "panels[1].objects[1]: expected a string, not int"),
        (lambda c: _replace_panel(c, 2, actions=None), "panels[2].actions: expected a tuple of ActionTriple, not NoneType"),
        (lambda c: _replace_action(c, 3, verb=None), "panels[3].actions[0].verb: expected a string, not NoneType"),
        (lambda c: _replace_action(c, 3, object=5), "panels[3].actions[0].object: expected a string or None, not int"),
        (lambda c: _replace_panel(c, 4, page_index=True), "panels[4].page_index: expected an int, not bool"),
        (lambda c: _replace_panel(c, 4, reading_order=1.5), "panels[4].reading_order: expected an int, not float"),
        (lambda c: _replace_panel(c, 5, shot_type="none"), "panels[5].shot_type: expected a ShotType, not str"),
        (
            lambda c: dataclasses.replace(c, segments=(dataclasses.replace(c.segments[0], narrative_role="peak"),)),
            "segments[0].narrative_role: expected a NarrativeRole or None, not str",
        ),
    ],
    ids=[
        "none_story_id", "none_panels", "none_characters", "str_characters", "int_object_item", "none_actions",
        "none_verb", "int_object", "bool_page_index", "float_reading_order", "str_shot_type", "str_narrative_role",
    ],
)
def test_serialize_refuses_a_value_of_the_wrong_type(story, edit, message):
    with pytest.raises(TypeError) as err:
        serialize_corpus(edit(story))
    assert str(err.value) == message


def test_list_order_is_preserved():
    corpus = util.corpus(
        [
            util.panel("a", "s0", 1, dialogues=[("d0", "one"), ("d1", "two")]),
            util.panel("b", "s0", 0),
        ]
    )
    reparsed = parse_corpus(serialize_corpus(corpus))
    assert [p.panel_id for p in reparsed.panels] == ["a", "b"]
    assert [d.text for d in reparsed.panels[0].dialogues] == ["one", "two"]


def test_validate_bundled_story_clean(story):
    assert validate_corpus(story).ok


def test_validate_is_pure(story):
    assert validate_corpus(story) == validate_corpus(story)


def test_validate_reports_every_dangling_reference():
    doc = json.loads(ng.bundled_story_text())
    doc["events"][1]["macro_event_id"] = "no_macro"
    doc["segments"][0]["event_id"] = "no_event"
    doc["panels"][4]["segment_id"] = "nowhere"
    report = validate_corpus(parse_corpus(json.dumps(doc)))
    assert [(v.path, v.message) for v in report.violations] == [
        ("events[1].macro_event_id", "unknown macro-event id 'no_macro'"),
        ("segments[0].event_id", "unknown event id 'no_event'"),
        ("panels[4].segment_id", "unknown segment id 'nowhere'"),
    ]
    assert str(report.violations[2]) == "error at panels[4].segment_id: unknown segment id 'nowhere'"


def test_validate_duplicate_reading_order():
    corpus = util.corpus(
        [
            util.panel("a", "s0", 3),
            util.panel("b", "s0", 3),
        ]
    )
    report = validate_corpus(corpus)
    assert len(report.violations) == 1
    assert "not a permutation" in report.violations[0].message


def test_validate_agent_not_in_characters():
    corpus = util.corpus(
        [util.panel("a", "s0", 0, characters=("A",), actions=[("C", "wave")])]
    )
    report = validate_corpus(corpus)
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert "'C'" in violation.message and "'a'" in violation.message
    assert violation.path == "panels[0].actions[0].agent"


def test_validate_panel_id_with_slash():
    # "panel:a/visual" would be both this panel's node and the visual hub
    # of panel "a".
    corpus = util.corpus([util.panel("a", "s0", 0), util.panel("a/visual", "s0", 1)])
    report = validate_corpus(corpus)
    assert [(v.path, v.message) for v in report.violations] == [
        ("panels[1].panel_id", "panel id 'a/visual' contains '/'"),
    ]


def test_validate_duplicate_ids():
    corpus = util.corpus([util.panel("a", "s0", 0), util.panel("a", "s1", 1)])
    report = validate_corpus(corpus)
    assert any("duplicate id" in v.message for v in report.violations)


def _relabel(corpus, list_name, index, label):
    items = list(getattr(corpus, list_name))
    items[index] = dataclasses.replace(items[index], label=label)
    return dataclasses.replace(corpus, **{list_name: tuple(items)})


def test_validate_duplicate_event_label(story):
    # eval looks units up by label: the second event would never be scored.
    corpus = _relabel(story, "events", 1, story.events[0].label)
    report = validate_corpus(corpus)
    assert [(v.path, v.message) for v in report.violations] == [
        ("events[1].label", f"duplicate label {story.events[0].label!r}")
    ]


def test_validate_duplicate_macro_event_label():
    corpus = util.corpus([util.panel("a", "s0", 0)])
    second = dataclasses.replace(corpus.macro_events[0], id="m1")
    corpus = dataclasses.replace(corpus, macro_events=corpus.macro_events + (second,))
    report = validate_corpus(corpus)
    assert [(v.path, v.message) for v in report.violations] == [
        ("macro_events[1].label", "duplicate label 'arc_0'")
    ]


def test_validate_empty_event_label(story):
    corpus = _relabel(story, "events", 1, "  ")
    report = validate_corpus(corpus)
    assert [(v.path, v.message) for v in report.violations] == [
        ("events[1].label", "label is empty")
    ]


def test_validate_empty_macro_event_label(story):
    report = validate_corpus(_relabel(story, "macro_events", 0, ""))
    assert [(v.path, v.message) for v in report.violations] == [
        ("macro_events[0].label", "label is empty")
    ]


def test_validate_speaker_must_be_present():
    corpus = util.corpus(
        [util.panel("a", "s0", 0, characters=("A",), dialogues=[("d0", "hi", "B")])]
    )
    report = validate_corpus(corpus)
    assert any(v.path == "panels[0].dialogues[0].speaker" for v in report.violations)


@pytest.mark.parametrize("verb", ["", "  ", "\t"])
def test_validate_empty_verb(verb):
    corpus = util.corpus([util.panel("a", "s0", 0, characters=("A",), actions=[("A", verb)])])
    report = validate_corpus(corpus)
    assert [(v.path, v.message) for v in report.violations] == [
        ("panels[0].actions[0].verb", "verb is empty")
    ]


def test_validate_empty_utterance_text():
    corpus = util.corpus([util.panel("a", "s0", 0, captions=[("c0", "   ")])])
    report = validate_corpus(corpus)
    assert any("text is empty" in v.message for v in report.violations)


def test_sorting_by_reading_order_is_total():
    for seed in (3, 11, 27):
        corpus = ng.generate(ng.GenParams(seed=seed))
        ordered = sorted(corpus.panels, key=lambda p: p.reading_order)
        assert len(ordered) == len(corpus.panels)


def test_normalize_token():
    assert normalize_token("  Cook_Rice ") == "cook_rice"
    assert normalize_token("look  at\tletter") == "look_at_letter"
    assert normalize_token("A") == "a"


def test_normalize_utterance_keeps_punctuation():
    assert normalize_utterance("  Wait for me! ") == "wait for me!"


# --- every parse check, pinned by path and reason -----------------------

_DROP = object()

#: A story holding two records of every kind, with every optional field
#: set; the checks below edit the second record of a kind, so that the
#: index shows in the path.
_FULL = {
    "story_id": "s",
    "macro_events": [{"id": f"m{i}", "label": f"M{i}", "description": ""} for i in range(2)],
    "events": [
        {"id": f"e{i}", "macro_event_id": "m0", "label": f"E{i}", "description": ""} for i in range(2)
    ],
    "segments": [
        {"id": f"g{i}", "event_id": "e0", "narrative_role": "peak", "description": ""} for i in range(2)
    ],
    "panels": [
        {
            "panel_id": f"p{i}",
            "segment_id": "g0",
            "page_index": 0,
            "reading_order": i,
            "shot_type": "close_shot",
            "image_path": "p.png",
            "characters": ["A", "B"],
            "background": "street",
            "objects": ["pot", "pan"],
            "actions": [{"agent": "A", "verb": "hold", "object": "pot"}] * 2,
            "dialogues": [{"id": f"d{j}", "text": "hi", "speaker": "A"} for j in range(2)],
            "captions": [{"id": f"c{j}", "text": "then"} for j in range(2)],
            "event_description": "x",
        }
        for i in range(2)
    ],
}

#: Each field's form: the values that fail its check, with their reasons.
_STR = [(_DROP, "missing required field"), (None, "expected a string"),
        (7, "expected a string"), (True, "expected a string"), ([], "expected a string")]
_OPT_STR = [(7, "expected a string or null"), (False, "expected a string or null"),
            ({}, "expected a string or null")]
_INT = [(_DROP, "missing required field"), (None, "expected an integer"),
        ("0", "expected an integer"), (True, "expected an integer"), (False, "expected an integer"),
        (1.0, "expected an integer"), (-1, "expected a non-negative integer")]
_LIST = [(_DROP, "missing required field"), (None, "expected a list"),
         ("A", "expected a list"), ({}, "expected a list")]

#: Record path -> field -> failing values; lists of strings and of
#: records also fail on their second item.
_FIELD_FAULTS = {
    "": {"story_id": _STR, "macro_events": _LIST, "events": _LIST, "segments": _LIST, "panels": _LIST},
    "macro_events[1]": {"id": _STR, "label": _STR, "description": _STR},
    "events[1]": {"id": _STR, "macro_event_id": _STR, "label": _STR, "description": _STR},
    "segments[1]": {
        "id": _STR, "event_id": _STR, "description": _STR,
        "narrative_role": _OPT_STR + [("Peak", "unknown narrative_role 'Peak'"),
                                      ("", "unknown narrative_role ''")],
    },
    "panels[1]": {
        "panel_id": _STR, "segment_id": _STR, "page_index": _INT, "reading_order": _INT,
        "shot_type": _STR + [("bird_eye", "unknown shot_type 'bird_eye'"),
                             ("NONE", "unknown shot_type 'NONE'")],
        "image_path": _OPT_STR, "background": _OPT_STR, "event_description": _OPT_STR,
        "characters": _LIST, "objects": _LIST, "actions": _LIST, "dialogues": _LIST, "captions": _LIST,
    },
    "panels[1].actions[1]": {"agent": _STR, "verb": _STR, "object": _OPT_STR},
    "panels[1].dialogues[1]": {"id": _STR, "text": _STR, "speaker": _OPT_STR},
    "panels[1].captions[1]": {"id": _STR, "text": _STR},
}

_STR_LISTS = ["panels[1].characters", "panels[1].objects"]
_RECORD_LISTS = ["macro_events", "events", "segments", "panels", "panels[1].actions",
                 "panels[1].dialogues", "panels[1].captions"]


def _at(doc, path):
    """The value at a path such as ``panels[1].actions[1]`` of a document or
    of a parsed corpus; ``""`` is the root."""
    for part in filter(None, path.replace("[", ".").replace("]", "").split(".")):
        if part.isdigit():
            doc = doc[int(part)]
        else:
            doc = doc[part] if isinstance(doc, dict) else getattr(doc, part)
    return doc


def _edited(path, field, value):
    doc = json.loads(json.dumps(_FULL))
    record = _at(doc, path)
    if value is _DROP:
        del record[field]
    else:
        record[field] = value
    return doc


def _parse_cases():
    cases = {"root_not_an_object": ([], "$", "expected an object")}
    for path, fields in _FIELD_FAULTS.items():
        for field, faults in fields.items():
            at = f"{path}.{field}" if path else field
            for value, reason in faults:
                name = "missing" if value is _DROP else f"{value!r}"
                cases[f"{at}={name}"] = (_edited(path, field, value), at, reason)
    for at in _STR_LISTS:
        path, field = at.rsplit(".", 1)
        for value in (7, None, ["x"]):
            cases[f"{at}[1]={value!r}"] = (_edited(path, field, ["A", value]), f"{at}[1]", "expected a string")
    for at in _RECORD_LISTS:
        path, field = at.rsplit(".", 1) if "." in at else ("", at)
        for value in (7, "x", None, []):
            items = list(_at(_FULL, at))
            doc = _edited(path, field, [items[0], value])
            cases[f"{at}[1]={value!r}"] = (doc, f"{at}[1]", "expected an object")
    return cases


#: Documents with more than one fault: the first field in check order is
#: reported. A segment checks narrative_role first, a panel shot_type and a
#: dialogue its speaker; a caption never reads a speaker.
_ORDER_CASES = {
    "story_id_before_lists": (
        {"story_id": 1, "macro_events": 2}, "story_id", "expected a string"),
    "macro_items_before_events_list": (
        {"story_id": "s", "macro_events": [1]}, "macro_events[0]", "expected an object"),
    "role_before_id": (
        {**_FULL, "segments": [{"narrative_role": "x"}]},
        "segments[0].narrative_role", "unknown narrative_role 'x'"),
    "shot_type_before_panel_id": (
        {**_FULL, "panels": [{"shot_type": 3}]}, "panels[0].shot_type", "expected a string"),
    "unknown_shot_type_before_panel_id": (
        {**_FULL, "panels": [{"shot_type": "x"}]}, "panels[0].shot_type", "unknown shot_type 'x'"),
    "panel_id_after_shot_type": (
        {**_FULL, "panels": [{"shot_type": "none"}]}, "panels[0].panel_id", "missing required field"),
    "speaker_before_id": (
        _edited("panels[1]", "dialogues", [{"speaker": 1}]),
        "panels[1].dialogues[0].speaker", "expected a string or null"),
    "action_item_before_later_fields": (
        {**_FULL, "panels": [
            {**_FULL["panels"][0], "actions": [{"agent": "A"}], "dialogues": 1, "event_description": 2}]},
        "panels[0].actions[0].verb", "missing required field"),
    "characters_item_before_background": (
        {**_FULL, "panels": [{**_FULL["panels"][0], "characters": [1], "background": 2}]},
        "panels[0].characters[0]", "expected a string"),
    "reading_order_sign_before_image_path": (
        {**_FULL, "panels": [{**_FULL["panels"][0], "reading_order": -3, "image_path": 4}]},
        "panels[0].reading_order", "expected a non-negative integer"),
    "last_field_of_an_item_before_the_next_item": (
        {**_FULL, "panels": [{**_FULL["panels"][0], "event_description": 2}, {**_FULL["panels"][1], "shot_type": 3}]},
        "panels[0].event_description", "expected a string or null"),
    "segments_before_panels": (
        {**_FULL, "segments": [{**_FULL["segments"][0], "description": 1}],
         "panels": [{**_FULL["panels"][0], "shot_type": 3}]},
        "segments[0].description", "expected a string"),
}


_PARSE_ERRORS = {**_parse_cases(), **_ORDER_CASES}


@pytest.mark.parametrize("doc, path, reason", _PARSE_ERRORS.values(), ids=_PARSE_ERRORS)
def test_parse_reports_exact_path_and_reason(doc, path, reason):
    with pytest.raises(SchemaError) as err:
        parse_corpus(json.dumps(doc))
    assert (err.value.path, err.value.reason) == (path, reason)


def test_parse_accepts_every_optional_field_absent_or_null():
    optional = [("segments[1]", "narrative_role"), ("panels[1]", "image_path"),
                ("panels[1]", "background"), ("panels[1]", "event_description"),
                ("panels[1].actions[1]", "object"), ("panels[1].dialogues[1]", "speaker")]
    for path, field in optional:
        for value in (_DROP, None):
            corpus = parse_corpus(json.dumps(_edited(path, field, value)))
            assert getattr(_at(corpus, path), field) is None
    # A caption's speaker is never read, whatever it holds.
    for value in ("A", 7, []):
        corpus = parse_corpus(json.dumps(_edited("panels[1].captions[1]", "speaker", value)))
        assert corpus.panels[1].captions[1].speaker is None
