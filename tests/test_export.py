import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import narragraph as ng
from narragraph import (
    NarrativeGraph,
    NodeKind,
    RelationKind,
    Tier,
    build_panel_graph,
    induced_subgraph,
    to_dot,
)

import util
from dot_grammar import parse_dot

EVENT_KINDS = {NodeKind.EVENT_SEGMENT, NodeKind.EVENT, NodeKind.MACRO_EVENT}


def _edge_labels(dot_text):
    return set(re.findall(r'label="(\w+)"\];', dot_text))


def test_empty_graph_dot_valid():
    dot = to_dot(NarrativeGraph(Tier.UNIFIED))
    assert dot.lstrip("/ \n").startswith("narrative graph export") or dot.startswith("//")
    assert "digraph {" in dot
    assert "// legend:" in dot
    nodes, edges = parse_dot(dot)
    assert (nodes, edges) == (0, 0)


def test_panel_graph_dot_contains_has_action(story):
    dot = to_dot(build_panel_graph(story.panels[0]))
    assert "has_action" in _edge_labels(dot)
    parse_dot(dot)


def test_event_filter_shows_only_hierarchy_relations(unified):
    dot = to_dot(induced_subgraph(unified.graph, EVENT_KINDS))
    assert _edge_labels(dot) == {"subevent_of", "precedes"}
    parse_dot(dot)


def test_filtered_dot_has_no_foreign_nodes(unified):
    sub = induced_subgraph(unified.graph, EVENT_KINDS)
    dot = to_dot(sub)
    assert '"panel:' not in dot
    assert '"char:' not in dot
    expected_nodes = {
        node_id
        for node_id, kind, _ in unified.graph.nodes()
        if kind in EVENT_KINDS
    }
    assert {node_id for node_id, _, _ in sub.nodes()} == expected_nodes
    nodes, _ = parse_dot(dot)
    assert nodes == len(expected_nodes)


def test_story_order_is_drawn_as_precedes_edges(unified):
    """Story order is drawn as the ``precedes`` edges the graph stores, one
    per edge, and the header keeps its note on the inverse word for word."""
    dot = to_dot(unified.graph)
    drawn = re.findall(r'label="(\w+)"\];', dot)
    assert drawn.count("precedes") == sum(rel is RelationKind.PRECEDES for _, rel, _ in unified.graph.edges()) > 0
    assert "follows" not in drawn
    assert dot.splitlines()[1] == "// follows edges are implied inverses of precedes and are not drawn"


def test_dot_is_deterministic(unified):
    assert to_dot(unified.graph) == to_dot(unified.graph)


def test_dot_escapes_problem_text():
    g = NarrativeGraph(Tier.PANEL)
    g.add_node("n0", NodeKind.DIALOGUE_CONTENT, {"text": 'she said "wait\\now"\nplease'})
    dot = to_dot(g)
    parse_dot(dot)


@pytest.mark.parametrize(
    "text, quoted",
    [('say "hi"', r'"say \"hi\""'), ("a\\b", r'"a\\b"'), ("one\ntwo", r'"one\ntwo"'), ("plain", '"plain"')],
    ids=["quote", "backslash", "newline", "plain"],
)
def test_dot_escapes_each_problem_character_alone(text, quoted):
    g = NarrativeGraph(Tier.PANEL)
    g.add_node(text, NodeKind.DIALOGUE_CONTENT, {"text": text})
    statement = f"  {quoted} [label={quoted}, shape=parallelogram, fillcolor=\"#eafaf1\"];"
    assert statement in to_dot(g).splitlines()


def test_unfiltered_dot_parses_for_all_tiers(story, unified):
    graphs = [
        build_panel_graph(story.panels[0]),
        ng.build_temporal_graph(story),
        ng.build_event_graph(story),
        unified.graph,
    ]
    for graph in graphs:
        nodes, edges = parse_dot(to_dot(graph))
        assert nodes == graph.node_count


attr_maps = st.dictionaries(
    st.text(min_size=1, max_size=5),
    st.text(max_size=10),
    max_size=2,
)


@given(st.lists(st.tuples(st.sampled_from(list(NodeKind)), attr_maps), max_size=6), st.data())
def test_random_graph_dot_parses(node_specs, data):
    g = NarrativeGraph(Tier.UNIFIED)
    ids = []
    for i, (kind, attrs) in enumerate(node_specs):
        node_id = f"x{i}"
        g.add_node(node_id, kind, attrs)
        ids.append(node_id)
    if ids:
        for src, rel, dst in data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ids),
                    st.sampled_from(list(RelationKind)),
                    st.sampled_from(ids),
                ),
                max_size=10,
            )
        ):
            g.add_edge(src, rel, dst)
    nodes, _ = parse_dot(to_dot(g))
    assert nodes == g.node_count
