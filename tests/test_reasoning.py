import dataclasses

import pytest

import narragraph as ng
from narragraph import (
    ReasoningTask,
    RelationKind,
    UnknownUnitError,
    actions_by_macro_event,
    character_appearances,
    dialogue_by_event,
    evaluate_all,
    integrate,
    normalize_token,
    normalize_utterance,
    panel_timeline,
    validate_corpus,
)
from narragraph.build import event_node_id, macro_node_id, segment_node_id

import util

INTRO_1_LINES = [
    "Before I knew it, it was May, the season when young leaves are the most beautiful.",
    "I had just started living on my own.",
]


def test_actions_on_story(unified):
    result = actions_by_macro_event(unified, "Think of family")
    assert result.task is ReasoningTask.ACTIONS
    assert result.source_unit == "Think of family"
    assert result.items == ["hold_hand", "look_at_letter", "cook_rice", "walk_away"]


def test_actions_empty_macro():
    corpus = util.corpus([util.panel("p0", "s0", 0, characters=("A",))])
    result = actions_by_macro_event(integrate(corpus), "arc_0")
    assert result.items == []


def test_actions_dedup_first_occurrence():
    corpus = util.corpus(
        [
            util.panel("p0", "s0", 0, characters=("A",), actions=[("A", "x")]),
            util.panel("p1", "s0", 1, characters=("A",), actions=[("A", "y")]),
            util.panel("p2", "s0", 2, characters=("A",), actions=[("A", "x")]),
        ]
    )
    result = actions_by_macro_event(integrate(corpus), "arc_0")
    assert result.items == ["x", "y"]


def test_actions_dedup_is_normalized_but_surface_reported():
    corpus = util.corpus(
        [
            util.panel("p0", "s0", 0, characters=("A",), actions=[("A", "Open_Door")]),
            util.panel("p1", "s0", 1, characters=("A",), actions=[("A", "open_door")]),
        ]
    )
    result = actions_by_macro_event(integrate(corpus), "arc_0")
    assert result.items == ["Open_Door"]


def test_actions_unknown_unit(unified):
    with pytest.raises(UnknownUnitError):
        actions_by_macro_event(unified, "No Such Arc")


def test_dialogue_on_story(unified):
    result = dialogue_by_event(unified, "Intro_1")
    assert result.items == INTRO_1_LINES


def test_dialogue_caption_only_event(unified):
    assert dialogue_by_event(unified, "Intro_2").items == []


def test_dialogue_two_panels_reading_order():
    corpus = util.corpus(
        [
            util.panel("p1", "s0", 1, dialogues=[("d1", "second")]),
            util.panel("p0", "s0", 0, dialogues=[("d0", "first")]),
        ]
    )
    result = dialogue_by_event(integrate(corpus), "ev_s0")
    assert result.items == ["first", "second"]


def test_dialogue_unknown_unit(unified):
    with pytest.raises(UnknownUnitError):
        dialogue_by_event(unified, "Intro_99")


def test_character_appearances_on_story(unified):
    result = character_appearances(unified)
    assert result.task is ReasoningTask.CHARACTERS
    appearances = result.appearances
    assert list(appearances) == ["A", "B"]  # first-appearance order
    assert appearances["A"][:3] == ["0_0_0", "0_0_1", "0_1_1"]
    assert appearances["B"][:2] == ["0_0_1", "0_1_0"]
    assert appearances["A"] == ["0_0_0", "0_0_1", "0_1_1", "0_1_2", "0_2_0", "0_2_2"]
    assert appearances["B"] == ["0_0_1", "0_1_0", "0_1_2", "0_2_1", "0_2_2"]


def test_character_appearances_empty_corpus():
    u = integrate(ng.AnnotationCorpus(story_id="none"))
    assert character_appearances(u).appearances == {}


def test_character_twice_in_one_panel_listed_once():
    corpus = util.corpus([util.panel("p0", "s0", 0, characters=("A", "a"))])
    appearances = character_appearances(integrate(corpus)).appearances
    assert appearances == {"A": ["p0"]}


def test_timeline_on_story(unified):
    result = panel_timeline(unified, "Think of family")
    assert result.items == [
        "0_0_0",
        "0_0_1",
        "0_0_2",
        "0_1_0",
        "0_1_1",
        "0_1_2",
        "0_2_0",
        "0_2_1",
        "0_2_2",
    ]


def test_timeline_single_panel():
    corpus = util.corpus([util.panel("only", "s0", 0)])
    assert panel_timeline(integrate(corpus), "arc_0").items == ["only"]


def test_timeline_unknown_unit(unified):
    with pytest.raises(UnknownUnitError):
        panel_timeline(unified, "missing")


def test_units_without_panels_get_no_order_edges_and_empty_answers(story, unified):
    corpus = util.with_panelless_units(story)
    assert validate_corpus(corpus).ok
    bare = integrate(corpus)
    g = bare.graph
    order_rels = (RelationKind.PRECEDES, RelationKind.CO_OCCURS)
    segments = [segment_node_id("idle"), segment_node_id("empty")]
    for node in segments:
        assert "first_reading_order" not in g.node_attrs(node)
    for node in segments + [event_node_id("e_empty"), macro_node_id("m_empty")]:
        assert all(g.degree(node, rel, side) == 0 for rel in order_rels for side in ("out", "in"))
    # The units with panels keep their chains and overlaps.
    assert [e for e in g.edges() if e[1] in order_rels] == [
        e for e in unified.graph.edges() if e[1] in order_rels
    ]
    assert actions_by_macro_event(bare, "empty arc").items == []
    assert panel_timeline(bare, "empty arc").items == []
    assert dialogue_by_event(bare, "empty event").items == []
    report = evaluate_all(bare, corpus)
    assert [task.metrics.f1 for task in report.tasks] == [1.0] * 4
    empty = {(task.task, score.unit): score.metrics for task in report.tasks for score in task.units}
    for key in (("actions", "empty arc"), ("dialogue", "empty event"), ("timeline", "empty arc")):
        assert (empty[key].tp, empty[key].fp, empty[key].fn, empty[key].f1) == (0, 0, 0, 1.0)


def test_shuffled_annotation_order_leaves_answers_unchanged(story, unified):
    shuffled = dataclasses.replace(story, panels=tuple(reversed(story.panels)))
    u = integrate(shuffled)
    assert panel_timeline(u, "Think of family").items == panel_timeline(
        unified, "Think of family"
    ).items
    assert actions_by_macro_event(u, "Think of family").items == actions_by_macro_event(
        unified, "Think of family"
    ).items
    assert character_appearances(u).appearances == character_appearances(unified).appearances
    assert dialogue_by_event(u, "Intro_1").items == dialogue_by_event(unified, "Intro_1").items


def test_timeline_strictly_increasing_and_complete():
    for seed in range(20):
        corpus = ng.generate(ng.GenParams(seed=seed))
        u = integrate(corpus)
        for macro in corpus.macro_events:
            items = panel_timeline(u, macro.label).items
            orders = [
                next(p.reading_order for p in corpus.panels if p.panel_id == pid)
                for pid in items
            ]
            assert orders == sorted(orders)
            assert len(set(orders)) == len(orders)
            assert len(items) == len(ng.gold_timeline(corpus, macro.label).items)


def _assert_matches_oracle(corpus):
    u = integrate(corpus)
    for macro in corpus.macro_events:
        predicted = {
            normalize_token(v) for v in actions_by_macro_event(u, macro.label).items
        }
        assert predicted == set(ng.gold_actions(corpus, macro.label).items)
        assert (
            tuple(panel_timeline(u, macro.label).items)
            == ng.gold_timeline(corpus, macro.label).items
        )
    for event in corpus.events:
        predicted = {
            normalize_utterance(t) for t in dialogue_by_event(u, event.label).items
        }
        assert predicted == set(ng.gold_dialogue(corpus, event.label).items)
    pairs = {
        (normalize_token(label), pid)
        for label, pids in character_appearances(u).appearances.items()
        for pid in pids
    }
    assert pairs == set(ng.gold_characters(corpus).items)


def test_oracle_equivalence_sample():
    for seed in range(30):
        _assert_matches_oracle(
            ng.generate(
                ng.GenParams(
                    seed=seed,
                    n_macro=1 + seed % 4,
                    events_per_macro=(1, 2),
                    segments_per_event=(1, 2),
                    panels_per_segment=(1, 2),
                )
            )
        )


def test_macro_actions_equal_ordered_union_of_event_actions():
    # Generated corpora never interleave events, so the per-event verb
    # streams concatenated in narrative order match the macro-level stream.
    for seed in range(15):
        corpus = ng.generate(ng.GenParams(seed=seed))
        u = integrate(corpus)
        for macro in corpus.macro_events:
            stream = []
            for event in corpus.events:
                if event.macro_event_id != macro.id:
                    continue
                seg_ids = {s.id for s in corpus.segments if s.event_id == event.id}
                panels = sorted(
                    (p for p in corpus.panels if p.segment_id in seg_ids),
                    key=lambda p: p.reading_order,
                )
                if panels:
                    stream.append(
                        (panels[0].reading_order, [normalize_token(a.verb) for p in panels for a in p.actions])
                    )
            stream.sort(key=lambda pair: pair[0])
            expected = list(dict.fromkeys(v for _, verbs in stream for v in verbs))
            predicted = [
                normalize_token(v)
                for v in actions_by_macro_event(u, macro.label).items
            ]
            assert predicted == expected


def test_query_result_json_shapes(unified):
    import json

    actions = actions_by_macro_event(unified, "Think of family")
    obj = json.loads(actions.to_json())
    assert obj == {
        "task": "actions",
        "source_unit": "Think of family",
        "items": ["hold_hand", "look_at_letter", "cook_rice", "walk_away"],
    }
    characters = character_appearances(unified)
    obj = json.loads(characters.to_json())
    assert set(obj) == {"task", "map"}
    assert obj["task"] == "characters"
