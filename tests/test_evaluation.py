import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import narragraph as ng
from narragraph import (
    Metrics,
    evaluate_all,
    integrate,
    load_synonym_map,
    ordering_prf,
    set_prf,
)

import util

EPS = 1e-12


def test_set_prf_identity():
    m = set_prf({"a", "b"}, {"a", "b"})
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert (m.tp, m.fp, m.fn) == (2, 0, 0)


def test_set_prf_strict_mismatch():
    m = set_prf({"insert"}, {"insert_into"})
    assert m.f1 == 0.0
    assert (m.tp, m.fp, m.fn) == (0, 1, 1)


def test_set_prf_two_thirds():
    m = set_prf({"a", "b", "c"}, {"a", "b", "d"})
    assert abs(m.precision - 2 / 3) < EPS
    assert abs(m.recall - 2 / 3) < EPS
    assert abs(m.f1 - 2 / 3) < EPS


def test_set_prf_zero_conventions():
    both_empty = set_prf(set(), set())
    assert (both_empty.precision, both_empty.recall, both_empty.f1) == (1.0, 1.0, 1.0)
    nothing_predicted = set_prf(set(), {"a"})
    assert (nothing_predicted.precision, nothing_predicted.recall, nothing_predicted.f1) == (0.0, 0.0, 0.0)
    nothing_gold = set_prf({"a"}, set())
    assert (nothing_gold.precision, nothing_gold.recall, nothing_gold.f1) == (0.0, 0.0, 0.0)


def test_ordering_prf_identical_sequences():
    seq = [f"p{i}" for i in range(9)]
    assert ordering_prf(seq, seq).f1 == 1.0


def test_ordering_prf_reversal():
    m = ordering_prf(["c", "b", "a"], ["a", "b", "c"])
    assert m.tp == 0
    assert m.f1 == 0.0


def test_ordering_prf_one_swap():
    # pairs {ab,bd,dc} vs {ab,bc,cd}: one shared pair of three
    m = ordering_prf(["a", "b", "d", "c"], ["a", "b", "c", "d"])
    assert m.tp == 1
    assert abs(m.precision - 1 / 3) < EPS
    assert abs(m.recall - 1 / 3) < EPS
    assert abs(m.f1 - 1 / 3) < EPS


def test_ordering_prf_short_sequences_use_zero_convention():
    assert ordering_prf([], []).f1 == 1.0
    assert ordering_prf(["a"], ["a"]).f1 == 1.0
    assert ordering_prf(["a"], ["b"]).f1 == 1.0  # no adjacent pairs on either side
    assert ordering_prf(["a"], ["a", "b"]).f1 == 0.0


small_sets = st.frozensets(st.sampled_from("abcdefgh"), max_size=8)


@given(small_sets, small_sets)
def test_precision_recall_symmetry(predicted, gold):
    assert set_prf(predicted, gold).precision == set_prf(gold, predicted).recall


@given(small_sets, small_sets)
def test_perfect_f1_iff_equal(predicted, gold):
    assert (set_prf(predicted, gold).f1 == 1.0) == (predicted == gold)


@given(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=8, unique=True))
def test_ordering_self_agreement(seq):
    assert ordering_prf(seq, seq).f1 == 1.0


def test_f1_matches_definition():
    m = Metrics.from_counts(tp=24, fp=1, fn=1)
    assert abs(m.f1 - 2 * m.precision * m.recall / (m.precision + m.recall)) < EPS


def test_metrics_fields_are_in_report_order_and_keyword_only():
    # The report writes a score's fields in declaration order, and a
    # positional call would put counts where ratios belong.
    assert [f.name for f in dataclasses.fields(Metrics)] == ["precision", "recall", "f1", "tp", "fp", "fn"]
    with pytest.raises(TypeError):
        Metrics(1.0, 1.0, 1.0, 1, 0, 0)


def test_evaluate_story_is_perfect(story, unified):
    report = evaluate_all(unified, story)
    assert [t.task for t in report.tasks] == ["actions", "dialogue", "characters", "timeline"]
    for task in report.tasks:
        assert abs(task.metrics.f1 - 1.0) < EPS
    assert [t.focus for t in report.tasks] == [
        "Action Recovery",
        "Dialogue Recall",
        "Entity Recall",
        "Sequence Ordering",
    ]
    with pytest.raises(KeyError):
        report.task("summaries")


def test_micro_average_equals_single_unit(story, unified):
    report = evaluate_all(unified, story)
    actions = report.task("actions")
    assert len(actions.units) == 1
    assert actions.metrics == actions.units[0].metrics


def test_task_counts_keep_fp_and_fn_apart(story):
    # Panel 0 of the scored graph gains a verb and loses its dialogue line:
    # one false positive for actions, one false negative for dialogue.
    first = dataclasses.replace(
        story.panels[0], actions=(ng.ActionTriple("A", "wave", None),), dialogues=()
    )
    damaged = integrate(dataclasses.replace(story, panels=(first,) + story.panels[1:]))
    report = evaluate_all(damaged, story)
    counts = {t.task: (t.metrics.tp, t.metrics.fp, t.metrics.fn) for t in report.tasks}
    assert counts == {
        "actions": (4, 1, 0), "dialogue": (1, 0, 1), "characters": (11, 0, 0), "timeline": (8, 0, 0)
    }
    dialogue = report.task("dialogue")
    assert [(u.unit, u.metrics.tp, u.metrics.fp, u.metrics.fn) for u in dialogue.units] == [
        ("Intro_1", 1, 0, 1), ("Intro_2", 0, 0, 0)
    ]
    assert dialogue.metrics == Metrics.from_counts(1, 0, 1)


def test_empty_corpus_scores_by_convention():
    corpus = ng.AnnotationCorpus(story_id="void")
    report = evaluate_all(integrate(corpus), corpus)
    for task in report.tasks:
        assert (task.metrics.tp, task.metrics.fp, task.metrics.fn) == (0, 0, 0)
        assert task.metrics.f1 == 1.0



class _CountingTuple(tuple):
    """A tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


CORPUS_LISTS = ("macro_events", "events", "segments", "panels")


def _corpus_iterations(corpus):
    """Times ``evaluate_all`` iterates each list of ``corpus``."""
    unified = integrate(corpus)
    counted = dataclasses.replace(
        corpus, **{name: _CountingTuple(getattr(corpus, name)) for name in CORPUS_LISTS}
    )
    evaluate_all(unified, counted)
    return {name: getattr(counted, name).iterations for name in CORPUS_LISTS}


def test_evaluate_all_reads_each_corpus_list_a_fixed_number_of_times():
    # Rescanning the corpus per unit would make the counts grow with the
    # number of units; a time bound would be flaky where this is exact.
    one_macro = _corpus_iterations(ng.generate(ng.GenParams(seed=1, n_macro=1)))
    many_macros = _corpus_iterations(ng.generate(ng.GenParams(seed=1, n_macro=200)))
    assert one_macro == many_macros


VERBS = ["insert"] + [f"act_{i:02d}" for i in range(1, 25)]


def test_single_lexical_variant_gives_096():
    gold_corpus = util.verb_corpus(VERBS)
    variant_corpus = util.verb_corpus(["insert_into"] + VERBS[1:])
    report = evaluate_all(integrate(variant_corpus), gold_corpus)
    actions = report.task("actions").metrics
    assert (actions.tp, actions.fp, actions.fn) == (24, 1, 1)
    assert abs(actions.precision - 0.96) < EPS
    assert abs(actions.recall - 0.96) < EPS
    assert abs(actions.f1 - 0.96) < EPS
    for key in ("dialogue", "characters", "timeline"):
        assert abs(report.task(key).metrics.f1 - 1.0) < EPS


def test_synonym_map_restores_perfect_score():
    gold_corpus = util.verb_corpus(VERBS)
    variant_corpus = util.verb_corpus(["insert_into"] + VERBS[1:])
    synonyms = load_synonym_map('{"insert_into": "insert"}')
    report = evaluate_all(integrate(variant_corpus), gold_corpus, synonyms=synonyms)
    assert report.task("actions").metrics.f1 == 1.0


def test_load_synonym_map_normalizes_and_rejects_junk():
    assert load_synonym_map('{" Hand Over ": "give"}') == {"hand_over": "give"}
    with pytest.raises(ng.SchemaError):
        load_synonym_map("[1, 2]")
    with pytest.raises(ng.SchemaError):
        load_synonym_map("{not json")
    # Keys that normalize alike must agree; agreeing ones fold into one entry.
    assert load_synonym_map('{"Insert Into": "insert", "insert_into": "Insert"}') == {
        "insert_into": "insert"
    }
    with pytest.raises(ng.SchemaError, match="maps to both 'insert' and 'put'"):
        load_synonym_map('{"Insert Into": "insert", "insert_into": "put"}')
    # The map is applied once, so a target may not map on; it may map to itself.
    assert load_synonym_map('{"a": "b", "b": "b"}') == {"a": "b", "b": "b"}
    with pytest.raises(ng.SchemaError, match="'a' maps to 'b', which maps to 'c'"):
        load_synonym_map('{"a": "b", "b": "c"}')


def test_report_json_shape(story, unified):
    report = evaluate_all(unified, story)
    obj = json.loads(report.to_json(per_unit=True))
    assert set(obj) == {"tasks"}
    first = obj["tasks"][0]
    assert set(first) == {"task", "focus", "precision", "recall", "f1", "tp", "fp", "fn", "units"}
    without_units = json.loads(report.to_json())
    assert "units" not in without_units["tasks"][0]


def test_report_table_shape(story, unified):
    table = evaluate_all(unified, story).to_table()
    lines = table.strip().splitlines()
    assert lines[0].startswith("Task")
    assert "Evaluation Focus" in lines[0]
    assert "F1 Score" in lines[0]
    assert len(lines) == 6  # header, rule, four task rows
    assert all(line.rstrip().endswith("1.00") for line in lines[2:])
