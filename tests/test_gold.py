import inspect

import pytest

import narragraph as ng
from narragraph import (
    UnknownUnitError,
    gold_actions,
    gold_characters,
    gold_dialogue,
    gold_timeline,
)

import util


def test_gold_actions_on_story(story):
    gold = gold_actions(story, "Think of family")
    assert gold.items == frozenset(
        {"hold_hand", "look_at_letter", "cook_rice", "walk_away"}
    )
    assert gold.task == "actions"
    assert gold.unit == "Think of family"


def test_gold_actions_empty_macro():
    corpus = util.corpus([util.panel("p0", "s0", 0)])
    assert gold_actions(corpus, "arc_0").items == frozenset()


def test_gold_actions_dedup():
    corpus = util.corpus(
        [
            util.panel("p0", "s0", 0, characters=("A",), actions=[("A", "cook_rice")]),
            util.panel("p1", "s0", 1, characters=("A",), actions=[("A", "cook_rice")]),
        ]
    )
    assert gold_actions(corpus, "arc_0").items == frozenset({"cook_rice"})


def test_gold_actions_unknown_unit(story):
    with pytest.raises(UnknownUnitError):
        gold_actions(story, "nope")


def test_gold_dialogue_on_story(story):
    gold = gold_dialogue(story, "Intro_1")
    assert gold.items == frozenset(
        {
            "before i knew it, it was may, the season when young leaves are the most beautiful.",
            "i had just started living on my own.",
        }
    )


def test_gold_dialogue_event_without_dialogue(story):
    assert gold_dialogue(story, "Intro_2").items == frozenset()


def test_gold_dialogue_dedup_across_panels():
    corpus = util.corpus(
        [
            util.panel("p0", "s0", 0, dialogues=[("d0", "Same line.")]),
            util.panel("p1", "s0", 1, dialogues=[("d1", "same line.")]),
        ]
    )
    assert gold_dialogue(corpus, "ev_s0").items == frozenset({"same line."})


def test_gold_characters_on_story(story):
    pairs = gold_characters(story).items
    assert ("a", "0_0_0") in pairs
    assert ("b", "0_0_1") in pairs
    assert ("b", "0_0_0") not in pairs


def test_gold_characters_empty():
    assert gold_characters(ng.AnnotationCorpus(story_id="x")).items == frozenset()


def test_gold_characters_duplicate_label_one_pair():
    corpus = util.corpus([util.panel("p0", "s0", 0, characters=("A", "a"))])
    assert gold_characters(corpus).items == frozenset({("a", "p0")})


def test_gold_timeline_on_story(story):
    assert gold_timeline(story, "Think of family").items == (
        "0_0_0",
        "0_0_1",
        "0_0_2",
        "0_1_0",
        "0_1_1",
        "0_1_2",
        "0_2_0",
        "0_2_1",
        "0_2_2",
    )


def test_gold_timeline_single_panel():
    corpus = util.corpus([util.panel("only", "s0", 0)])
    assert gold_timeline(corpus, "arc_0").items == ("only",)


def test_gold_timeline_shuffled_annotation_order(story):
    import dataclasses

    shuffled = dataclasses.replace(story, panels=tuple(reversed(story.panels)))
    assert gold_timeline(shuffled, "Think of family") == gold_timeline(
        story, "Think of family"
    )


def test_gold_actions_union_over_child_events():
    for seed in range(15):
        corpus = ng.generate(ng.GenParams(seed=seed))
        for macro in corpus.macro_events:
            union = set()
            for event in corpus.events:
                if event.macro_event_id != macro.id:
                    continue
                seg_ids = {s.id for s in corpus.segments if s.event_id == event.id}
                union |= {
                    ng.normalize_token(a.verb)
                    for p in corpus.panels
                    if p.segment_id in seg_ids
                    for a in p.actions
                }
            assert gold_actions(corpus, macro.label).items == union


def test_gold_module_is_graph_free():
    # The gold builders are the independent oracle; they must not touch
    # the graph machinery at all.
    source = inspect.getsource(ng.gold)
    assert "NarrativeGraph" not in source
    assert "UnifiedGraph" not in source
    assert "from .graph" not in source
    assert "from .build" not in source
    assert "from .reasoning" not in source
