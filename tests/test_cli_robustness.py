"""Every CLI command on a mutated corpus or graph file exits 0, 1 or 2 and
lets no exception escape ``cli.main``.

The mutations start from the bundled story and its built graph. Inputs that
``json.loads`` cannot decode (too many digits, too deep, not UTF-8) are
fixed cases in ``test_cli.py::test_undecodable_input_exits_2``.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narragraph as ng
from narragraph import NarrativeRole, NodeKind, RelationKind, ShotType, cli

STORY = json.loads(ng.bundled_story_text())
GRAPH = json.loads(ng.serialize_graph(ng.integrate(ng.bundled_story()).graph))

#: Values swapped in for any value of the document.
ODD_VALUES = [None, True, -1, 10**30, "", "a/visual", [], {}]

#: Enum values a string may become.
ENUM_VALUES = sorted(
    {e.value for enum in (NodeKind, RelationKind, ShotType, NarrativeRole) for e in enum}
)


def _slots(doc):
    """(container, key) of every value inside ``doc``, depth first."""
    out = []
    stack = [doc]
    while stack:
        container = stack.pop()
        keys = list(container) if isinstance(container, dict) else range(len(container))
        for key in keys:
            out.append((container, key))
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])
    return out


def _records(doc, key):
    """The object items of ``doc[key]``, while the mutations leave it a list."""
    items = doc.get(key)
    return [item for item in items if isinstance(item, dict)] if isinstance(items, list) else []


@st.composite
def mutated(draw, original):
    """``original`` after one to three mutations: drop a key or item, swap a
    value for an odd one, replace a string with another string of the
    document or an enum value, end a string with a lone surrogate (json.dump
    writes the escape ``\\ud800``), or duplicate a list item; in a graph
    also point an edge at another node, change a node kind or a relation,
    give a panel a second hub, or give an event or macro-event another
    unit's label."""
    doc = copy.deepcopy(original)
    ops = ["drop", "swap", "restring", "surrogate", "duplicate"]
    if "edges" in original:
        ops += ["retarget", "rekind", "second_hub", "relabel"]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(ops))
        nodes, edges = _records(doc, "nodes"), _records(doc, "edges")
        if op == "second_hub":
            panels = [node for node in nodes if node.get("kind") == "panel"]
            if panels and isinstance(doc.get("edges"), list):
                panel = draw(st.sampled_from(panels)).get("id")
                rel, kind = draw(
                    st.sampled_from([("has_visual", "panel_visual"), ("has_textual", "panel_textual")])
                )
                doc["nodes"].append({"id": f"{panel}/hub2", "kind": kind, "attrs": {}})
                doc["edges"].append({"src": panel, "rel": rel, "dst": f"{panel}/hub2"})
            continue
        if op == "relabel":
            units = [
                node["attrs"]
                for node in nodes
                if node.get("kind") in ("event", "macro_event")
                and isinstance(node.get("attrs"), dict)
            ]
            labels = sorted(
                {attrs.get("label") for attrs in units if isinstance(attrs.get("label"), str)}
            )
            if labels:
                draw(st.sampled_from(units))["label"] = draw(st.sampled_from(labels))
            continue
        if op == "retarget":
            if edges and nodes:
                edge = draw(st.sampled_from(edges))
                edge[draw(st.sampled_from(["src", "dst"]))] = draw(st.sampled_from(nodes)).get("id")
            continue
        if op == "rekind":
            records = [(node, "kind", NodeKind) for node in nodes] + [(edge, "rel", RelationKind) for edge in edges]
            if records:
                record, key, enum = draw(st.sampled_from(records))
                record[key] = draw(st.sampled_from([member.value for member in enum]))
            continue
        slots = _slots(doc)
        strings = sorted({c[k] for c, k in slots if isinstance(c[k], str)})
        if op in ("restring", "surrogate"):
            slots = [(c, k) for c, k in slots if isinstance(c[k], str)]
        elif op == "duplicate":
            slots = [(c, k) for c, k in slots if isinstance(c, list)]
        if not slots:
            continue
        container, key = draw(st.sampled_from(slots))
        if op == "drop":
            del container[key]
        elif op == "swap":
            container[key] = draw(st.sampled_from(ODD_VALUES))
        elif op == "restring":
            container[key] = draw(st.sampled_from(strings + ENUM_VALUES))
        elif op == "surrogate":
            container[key] += "\ud800"
        else:
            container.insert(key, copy.deepcopy(container[key]))
    return doc


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "story.json").write_text(ng.bundled_story_text(), encoding="utf-8")
    (path / "graph.json").write_text(json.dumps(GRAPH), encoding="utf-8")
    return path


@settings(max_examples=150, deadline=None)
@given(doc=mutated(STORY))
def test_every_command_on_a_mutated_corpus(workdir, doc):
    corpus = str(workdir / "mutated_story.json")
    with open(corpus, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    for argv in (
        ["validate", corpus],
        ["build", corpus, str(workdir / "out.json")],
        ["eval", corpus, "--per-unit"],
        ["eval", corpus, "--graph", str(workdir / "graph.json")],
    ):
        assert _exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=200, deadline=None)
@given(doc=mutated(GRAPH))
def test_every_command_on_a_mutated_graph(workdir, doc):
    graph = str(workdir / "mutated_graph.json")
    with open(graph, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    for argv in (
        ["query", graph, "actions", "--unit", "Think of family"],
        ["query", graph, "dialogue", "--unit", "Intro_1"],
        ["query", graph, "characters"],
        ["query", graph, "timeline", "--unit", "Think of family"],
        ["export", graph, "--format", "dot"],
        ["export", graph, "--format", "json", "--kinds", "panel,event,character"],
        ["eval", str(workdir / "story.json"), "--graph", graph],
    ):
        assert _exit_code(argv) in (0, 1, 2), argv
