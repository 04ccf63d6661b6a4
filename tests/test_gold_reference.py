"""The indexed gold oracle against the rescanning reference it replaced.

On the bundled story, seeded corpora and unvalidated mutations of them
(repeated labels, shared ids, dangling references), every unit's gold set
and every unknown-unit error must be the same, through the ``gold_*``
functions, through one shared ``GoldIndex`` and through ``evaluate_all``.
"""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narragraph as ng
import narragraph.evaluation as evaluation
from narragraph import evaluate_all, integrate
from narragraph.gold import GoldIndex

import reference_gold

UNKNOWN = "no_such_unit"

CORPORA = {
    "paper": ng.bundled_story,
    **{
        f"seed{seed}": (lambda seed=seed: ng.generate(ng.GenParams(seed=seed)))
        for seed in range(20)
    },
}


def _outcome(fn, *args):
    """``(task, unit, items)`` of a gold set, or the error's type and text."""
    try:
        gold = fn(*args)
    except ng.NarragraphError as exc:
        return (type(exc).__name__, str(exc))
    return (gold.task, gold.unit, gold.items)


def _labels(corpus):
    macros = list(dict.fromkeys(m.label for m in corpus.macro_events)) + [UNKNOWN]
    events = list(dict.fromkeys(e.label for e in corpus.events)) + [UNKNOWN]
    return macros, events


def _all_gold(corpus, actions, dialogue, characters, timeline):
    macros, events = _labels(corpus)
    return (
        [_outcome(actions, label) for label in macros]
        + [_outcome(dialogue, label) for label in events]
        + [_outcome(characters)]
        + [_outcome(timeline, label) for label in macros]
    )


def _functions(module, corpus):
    return (
        lambda label: module.gold_actions(corpus, label),
        lambda label: module.gold_dialogue(corpus, label),
        lambda: module.gold_characters(corpus),
        lambda label: module.gold_timeline(corpus, label),
    )


def _index_methods(index):
    return (index.actions, index.dialogue, index.characters, index.timeline)


def _evaluate(unified, corpus, index_class, monkeypatch):
    """``evaluate_all``'s per-unit JSON with ``index_class`` as its oracle,
    or the error's type and text."""
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "GoldIndex", index_class)
        try:
            return evaluate_all(unified, corpus).to_json(per_unit=True)
        except ng.NarragraphError as exc:
            return (type(exc).__name__, str(exc))


def _assert_same_as_reference(corpus, unified, monkeypatch):
    expected = _all_gold(corpus, *_functions(reference_gold, corpus))
    assert _all_gold(corpus, *_functions(ng.gold, corpus)) == expected
    assert _all_gold(corpus, *_index_methods(GoldIndex(corpus))) == expected
    assert _evaluate(unified, corpus, GoldIndex, monkeypatch) == _evaluate(
        unified, corpus, reference_gold.ReferenceIndex, monkeypatch
    )


@pytest.mark.parametrize("name", CORPORA)
def test_gold_matches_reference(name, monkeypatch):
    corpus = CORPORA[name]()
    _assert_same_as_reference(corpus, integrate(corpus), monkeypatch)


@lru_cache(maxsize=None)
def _seeded(seed):
    corpus = ng.generate(ng.GenParams(seed=seed, n_macro=3))
    return corpus, integrate(corpus)


def _pick(draw, items):
    return draw(st.integers(0, len(items) - 1)) if items else None


def _replace_item(corpus, field, i, **changes):
    items = list(getattr(corpus, field))
    items[i] = dataclasses.replace(items[i], **changes)
    return dataclasses.replace(corpus, **{field: tuple(items)})


#: (list field, field of its item, where the new value comes from): a
#: repeated label, a shared id or a dangling reference.
MUTATIONS = [
    ("macro_events", "label", "macro_events"),
    ("events", "label", "events"),
    ("macro_events", "id", "macro_events"),
    ("events", "id", "events"),
    ("segments", "id", "segments"),
    ("events", "macro_event_id", None),
    ("segments", "event_id", None),
]


@st.composite
def mutated_corpora(draw):
    """A seeded corpus after one to three unvalidated mutations, with the
    graph of the corpus before them."""
    corpus, unified = _seeded(draw(st.integers(0, 9)))
    for _ in range(draw(st.integers(1, 3))):
        field, attr, source = draw(st.sampled_from(MUTATIONS))
        i = _pick(draw, getattr(corpus, field))
        if i is None:
            continue
        if source is None:
            value = "ghost"
        else:
            j = _pick(draw, getattr(corpus, source))
            value = getattr(getattr(corpus, source)[j], attr)
        corpus = _replace_item(corpus, field, i, **{attr: value})
    return corpus, unified


@settings(max_examples=150, deadline=None)
@given(mutated_corpora())
def test_gold_matches_reference_on_mutated_corpora(case):
    corpus, unified = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_as_reference(corpus, unified, monkeypatch)
