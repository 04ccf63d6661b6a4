"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import time
from contextlib import contextmanager

import narragraph as ng
from narragraph import NodeKind, RelationKind

import util
from util import run_cli
from dot_grammar import parse_dot

EPS = 1e-12

GOLDEN_ACTIONS = ["hold_hand", "look_at_letter", "cook_rice", "walk_away"]
GOLDEN_DIALOGUE = [
    "Before I knew it, it was May, the season when young leaves are the most beautiful.",
    "I had just started living on my own.",
]
GOLDEN_TIMELINE = [
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


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def _build_story_graph(tmp_path, capsys):
    story_path = tmp_path / "story.json"
    story_path.write_text(ng.bundled_story_text(), encoding="utf-8")
    graph_path = tmp_path / "graph.json"
    code, _, err = run_cli(["build", str(story_path), str(graph_path)], capsys)
    assert code == 0, err
    return str(story_path), str(graph_path)


def test_criterion_1_golden_query_outputs(tmp_path, capsys):
    with criterion(1, "bundled story reproduces the golden query outputs in < 1 s"):
        _, graph_path = _build_story_graph(tmp_path, capsys)
        started = time.perf_counter()

        code, out, _ = run_cli(
            ["query", graph_path, "actions", "--unit", "Think of family"], capsys
        )
        assert code == 0
        assert json.loads(out)["items"] == GOLDEN_ACTIONS

        code, out, _ = run_cli(
            ["query", graph_path, "dialogue", "--unit", "Intro_1"], capsys
        )
        assert code == 0
        assert json.loads(out)["items"] == GOLDEN_DIALOGUE

        code, out, _ = run_cli(["query", graph_path, "characters"], capsys)
        assert code == 0
        appearances = json.loads(out)["map"]
        assert appearances["A"][:3] == ["0_0_0", "0_0_1", "0_1_1"]
        assert appearances["B"][:2] == ["0_0_1", "0_1_0"]

        code, out, _ = run_cli(
            ["query", graph_path, "timeline", "--unit", "Think of family"], capsys
        )
        assert code == 0
        assert json.loads(out)["items"] == GOLDEN_TIMELINE

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"queries took {elapsed:.3f}s"


def test_criterion_2_perfect_scores_on_consistent_build(tmp_path, capsys):
    with criterion(2, "self-consistent eval scores F1 = 1.00 on all four tasks"):
        story_path, _ = _build_story_graph(tmp_path, capsys)
        code, out, _ = run_cli(["eval", str(story_path)], capsys)
        assert code == 0
        tasks = json.loads(out)["tasks"]
        assert [t["task"] for t in tasks] == ["actions", "dialogue", "characters", "timeline"]
        for task in tasks:
            assert abs(task["f1"] - 1.0) < EPS, task


def test_criterion_3_lexical_variant_mechanism(tmp_path, capsys):
    with criterion(3, "one variant verb in 25 drives action F1 to 0.96; synonyms restore 1.00"):
        verbs = ["insert"] + [f"act_{i:02d}" for i in range(1, 25)]
        gold_path = tmp_path / "gold.json"
        gold_path.write_text(ng.serialize_corpus(util.verb_corpus(verbs)), encoding="utf-8")
        variant_path = tmp_path / "variant.json"
        variant_path.write_text(
            ng.serialize_corpus(util.verb_corpus(["insert_into"] + verbs[1:])),
            encoding="utf-8",
        )
        graph_path = tmp_path / "variant_graph.json"
        assert run_cli(["build", str(variant_path), str(graph_path)], capsys)[0] == 0

        code, out, _ = run_cli(["eval", str(gold_path), "--graph", str(graph_path)], capsys)
        assert code == 0
        actions = {t["task"]: t for t in json.loads(out)["tasks"]}["actions"]
        assert (actions["tp"], actions["fp"], actions["fn"]) == (24, 1, 1)
        assert abs(actions["precision"] - 0.96) < EPS
        assert abs(actions["recall"] - 0.96) < EPS
        assert abs(actions["f1"] - 0.96) < EPS

        synonyms_path = tmp_path / "synonyms.json"
        synonyms_path.write_text('{"insert_into": "insert"}', encoding="utf-8")
        code, out, _ = run_cli(
            ["eval", str(gold_path), "--graph", str(graph_path), "--synonyms", str(synonyms_path)],
            capsys,
        )
        assert code == 0
        actions = {t["task"]: t for t in json.loads(out)["tasks"]}["actions"]
        assert abs(actions["f1"] - 1.0) < EPS


def _suite_corpora():
    for seed in range(100):
        params = ng.GenParams(
            seed=seed,
            n_macro=1 + seed % 5,
            events_per_macro=(1, 2),
            segments_per_event=(1, 2),
            panels_per_segment=(1, 2),
        )
        yield ng.generate(params)


def test_criterion_4_oracle_equivalence_suite():
    with criterion(4, "100 synthetic corpora: graph queries equal the annotation oracle"):
        started = time.perf_counter()
        counterexamples = 0
        for corpus in _suite_corpora():
            assert len(corpus.macro_events) <= 5
            assert len(corpus.panels) <= 50
            unified = ng.integrate(corpus)
            for macro in corpus.macro_events:
                predicted = {
                    ng.normalize_token(v)
                    for v in ng.actions_by_macro_event(unified, macro.label).items
                }
                if predicted != set(ng.gold_actions(corpus, macro.label).items):
                    counterexamples += 1
                if (
                    tuple(ng.panel_timeline(unified, macro.label).items)
                    != ng.gold_timeline(corpus, macro.label).items
                ):
                    counterexamples += 1
            for event in corpus.events:
                predicted = {
                    ng.normalize_utterance(t)
                    for t in ng.dialogue_by_event(unified, event.label).items
                }
                if predicted != set(ng.gold_dialogue(corpus, event.label).items):
                    counterexamples += 1
            pairs = {
                (ng.normalize_token(label), pid)
                for label, pids in ng.character_appearances(unified).appearances.items()
                for pid in pids
            }
            if pairs != set(ng.gold_characters(corpus).items):
                counterexamples += 1
        elapsed = time.perf_counter() - started
        assert counterexamples == 0
        assert elapsed < 30.0, f"suite took {elapsed:.1f}s"


def test_criterion_5_structural_invariants_and_roundtrip():
    with criterion(5, "unified graphs satisfy the structural invariants and round-trip"):
        for corpus in _suite_corpora():
            graph = ng.integrate(corpus).graph
            for panel in graph.nodes_of_kind(NodeKind.PANEL):
                targets = graph.neighbors(panel, RelationKind.INSTANTIATES, "out")
                assert len(targets) == 1
                assert graph.node_kind(targets[0]) is NodeKind.EVENT_SEGMENT
            for segment in graph.nodes_of_kind(NodeKind.EVENT_SEGMENT):
                assert len(graph.neighbors(segment, RelationKind.SUBEVENT_OF, "out")) == 1
            for event in graph.nodes_of_kind(NodeKind.EVENT):
                assert len(graph.neighbors(event, RelationKind.SUBEVENT_OF, "out")) == 1
            for mention in graph.nodes_of_kind(NodeKind.CHARACTER_MENTION):
                assert len(graph.neighbors(mention, RelationKind.REFERS_TO, "out")) == 1
            assert graph.is_acyclic()
            text = ng.serialize_graph(graph)
            again = ng.serialize_graph(ng.deserialize_graph(text))
            assert again == text


def test_criterion_6_metric_unit_values():
    with criterion(6, "set and ordering metrics match the hand-computed values"):
        identical = ng.set_prf({"a", "b"}, {"a", "b"})
        assert (identical.precision, identical.recall, identical.f1) == (1.0, 1.0, 1.0)

        strict = ng.set_prf({"insert"}, {"insert_into"})
        assert strict.f1 == 0.0

        two_thirds = ng.set_prf({"a", "b", "c"}, {"a", "b", "d"})
        for value in (two_thirds.precision, two_thirds.recall, two_thirds.f1):
            assert abs(value - 2 / 3) < EPS

        both_empty = ng.set_prf(set(), set())
        assert (both_empty.precision, both_empty.recall, both_empty.f1) == (1.0, 1.0, 1.0)
        assert ng.set_prf(set(), {"x"}).f1 == 0.0
        assert ng.set_prf({"x"}, set()).f1 == 0.0

        nine = [f"p{i}" for i in range(9)]
        assert ng.ordering_prf(nine, nine).f1 == 1.0
        reversal = ng.ordering_prf(["c", "b", "a"], ["a", "b", "c"])
        assert (reversal.tp, reversal.f1) == (0, 0.0)
        swap = ng.ordering_prf(["a", "b", "d", "c"], ["a", "b", "c", "d"])
        assert swap.tp == 1
        for value in (swap.precision, swap.recall, swap.f1):
            assert abs(value - 1 / 3) < EPS
        assert ng.ordering_prf(["a"], ["a"]).f1 == 1.0
        assert ng.ordering_prf([], []).f1 == 1.0


def test_criterion_7_dot_exports_parse(story, unified):
    with criterion(7, "DOT output parses under the DOT grammar at all tier filters"):
        filters = (
            {
                NodeKind.PANEL,
                NodeKind.PANEL_VISUAL,
                NodeKind.PANEL_TEXTUAL,
                NodeKind.CHARACTER_MENTION,
                NodeKind.ACTION,
                NodeKind.SCENE_OBJECT,
                NodeKind.DIALOGUE,
                NodeKind.DIALOGUE_CONTENT,
                NodeKind.CAPTION,
            },
            {NodeKind.PANEL, NodeKind.EVENT_SEGMENT},
            {NodeKind.EVENT_SEGMENT, NodeKind.EVENT, NodeKind.MACRO_EVENT},
        )
        for kinds in filters:
            sub = ng.induced_subgraph(unified.graph, kinds)
            nodes, _ = parse_dot(ng.to_dot(sub))
            assert nodes == sub.node_count
        for tier_graph in (
            ng.build_panel_graph(story.panels[0]),
            ng.build_temporal_graph(story),
            ng.build_event_graph(story),
            unified.graph,
        ):
            nodes, _ = parse_dot(ng.to_dot(tier_graph))
            assert nodes == tier_graph.node_count
