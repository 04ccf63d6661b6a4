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
