"""Metamorphic evaluation: one seeded edit to a built graph file, scored by
``eval --graph --per-unit``, must give exactly the damage the edit predicts
(``graph_edits``) and leave every other unit and task as it was."""

import json
import random

import pytest

import narragraph as ng

import graph_edits
from util import run_cli

CORPORA = ["story", 0, 1, 2]
EDITS = [
    graph_edits.swap_reading_order,
    graph_edits.rename_verb,
    graph_edits.retarget_mention,
    graph_edits.drop_dialogue,
    graph_edits.drop_action,
    graph_edits.move_panel,
]


def _corpus(which):
    return ng.bundled_story() if which == "story" else ng.generate(ng.GenParams(seed=which))


def _eval(capsys, corpus_path, graph_path, *extra):
    argv = ["eval", corpus_path, "--graph", graph_path, "--per-unit", *extra]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    return json.loads(out)


def _entries(report):
    """Each task's entry keyed by task, each unit's by (task, unit)."""
    entries = {}
    for task in report["tasks"]:
        entries[task["task"]] = {key: value for key, value in task.items() if key != "units"}
        for unit in task["units"]:
            entries[(task["task"], unit["unit"])] = unit
    return entries


def _counts(entry):
    return entry["tp"], entry["fp"], entry["fn"]


def _scores(tp, fp, fn):
    """Precision, recall and F1 of the counts under the evaluation module's
    zero-division rule: with nothing predicted, precision is 1 when the gold
    set is empty too and 0 otherwise; recall symmetrically."""
    precision = tp / (tp + fp) if tp + fp else float(fn == 0)
    recall = tp / (tp + fn) if tp + fn else float(fp == 0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("edit", EDITS, ids=lambda edit: edit.__name__)
@pytest.mark.parametrize("which", CORPORA)
def test_seeded_edit_gives_exact_per_unit_damage(which, edit, seed, tmp_path, capsys):
    corpus = _corpus(which)
    corpus_path, graph_path, edited_path = (
        str(tmp_path / name) for name in ("corpus.json", "graph.json", "edited.json")
    )
    (tmp_path / "corpus.json").write_text(ng.serialize_corpus(corpus), encoding="utf-8")
    assert run_cli(["build", corpus_path, graph_path], capsys)[0] == 0
    doc = json.loads((tmp_path / "graph.json").read_text(encoding="utf-8"))
    applied = edit(corpus, doc, random.Random(seed))
    (tmp_path / "edited.json").write_text(json.dumps(doc), encoding="utf-8")

    baseline = _eval(capsys, corpus_path, graph_path)
    before = _entries(baseline)
    assert all(_counts(entry)[1:] == (0, 0) for entry in before.values())

    expected = {key: _counts(entry) for key, entry in before.items()}
    for (task, unit), change in applied.damage.items():
        for key in (task, (task, unit)):
            expected[key] = tuple(n + d for n, d in zip(expected[key], change))
    after = _entries(_eval(capsys, corpus_path, edited_path))
    assert {key: _counts(entry) for key, entry in after.items()} == expected
    touched = {key for task_unit in applied.damage for key in (task_unit[0], task_unit)}
    for key, entry in after.items():
        if key in touched:
            precision, recall, f1 = _scores(*_counts(entry))
            assert (entry["precision"], entry["recall"]) == (precision, recall)
            assert entry["f1"] == pytest.approx(f1)
        else:
            assert entry == before[key]

    if applied.synonyms is not None:
        (tmp_path / "synonyms.json").write_text(json.dumps(applied.synonyms), encoding="utf-8")
        synonyms_path = str(tmp_path / "synonyms.json")
        assert _eval(capsys, corpus_path, edited_path, "--synonyms", synonyms_path) == baseline
