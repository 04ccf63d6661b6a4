import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import narragraph as ng
from narragraph import (
    DuplicateNodeError,
    MissingNodeError,
    NarrativeGraph,
    NodeKind,
    RelationKind,
    SchemaError,
    Tier,
    deserialize_graph,
    serialize_graph,
)

NODE_IDS = [f"n{i}" for i in range(8)]

edge_scripts = st.lists(
    st.tuples(
        st.sampled_from(NODE_IDS),
        st.sampled_from(list(RelationKind)),
        st.sampled_from(NODE_IDS),
    ),
    max_size=40,
)


def graph_with_nodes(tier=Tier.UNIFIED, ids=NODE_IDS, kind=NodeKind.PANEL):
    g = NarrativeGraph(tier)
    for node_id in ids:
        g.add_node(node_id, kind, {})
    return g


def test_add_node_and_count():
    g = NarrativeGraph(Tier.PANEL)
    g.add_node("p:0_0_0", NodeKind.PANEL, {"reading_order": "0"})
    assert g.node_count == 1
    assert g.node_attrs("p:0_0_0") == {"reading_order": "0"}
    g.add_node("a", NodeKind.ACTION)
    g.add_node("b", NodeKind.ACTION)
    assert g.node_count == 3


def test_add_node_twice_raises():
    g = NarrativeGraph(Tier.PANEL)
    g.add_node("x", NodeKind.PANEL)
    with pytest.raises(DuplicateNodeError):
        g.add_node("x", NodeKind.PANEL)


def test_precedes_adds_follows_inverse():
    g = graph_with_nodes(ids=["seg:a", "seg:b"], kind=NodeKind.EVENT_SEGMENT)
    g.add_edge("seg:a", RelationKind.PRECEDES, "seg:b")
    assert g.has_edge("seg:a", RelationKind.PRECEDES, "seg:b")
    assert g.has_edge("seg:b", RelationKind.FOLLOWS, "seg:a")


def test_add_edge_missing_node():
    g = graph_with_nodes(ids=["a"])
    with pytest.raises(MissingNodeError):
        g.add_edge("a", RelationKind.HAS_ACTION, "absent")


def test_re_add_edge_is_noop():
    g = graph_with_nodes(ids=["a", "b"])
    g.add_edge("a", RelationKind.HAS_ACTION, "b")
    before = g.edge_count
    g.add_edge("a", RelationKind.HAS_ACTION, "b")
    assert g.edge_count == before


def test_neighbors_isolated_node():
    g = graph_with_nodes(ids=["a"])
    assert g.neighbors("a", RelationKind.HAS_ACTION, "out") == []


def test_neighbors_insertion_order_and_reverse():
    g = graph_with_nodes(ids=["a", "x", "y"])
    g.add_edge("a", RelationKind.HAS_ACTION, "x")
    g.add_edge("a", RelationKind.HAS_ACTION, "y")
    assert g.neighbors("a", RelationKind.HAS_ACTION, "out") == ["x", "y"]
    assert g.neighbors("x", RelationKind.HAS_ACTION, "in") == ["a"]


def test_neighbors_missing_node():
    g = NarrativeGraph(Tier.PANEL)
    with pytest.raises(MissingNodeError):
        g.neighbors("ghost", RelationKind.HAS_ACTION, "out")


def test_neighbors_bad_direction():
    g = graph_with_nodes(ids=["a"])
    with pytest.raises(ValueError):
        g.neighbors("a", RelationKind.HAS_ACTION, "sideways")


def test_is_acyclic_chain():
    g = graph_with_nodes(ids=["a", "b", "c"])
    g.add_edge("a", RelationKind.PRECEDES, "b")
    g.add_edge("b", RelationKind.PRECEDES, "c")
    assert g.is_acyclic({RelationKind.PRECEDES})


def test_is_acyclic_two_cycle():
    g = graph_with_nodes(ids=["a", "b"])
    g.add_edge("a", RelationKind.PRECEDES, "b")
    g.add_edge("b", RelationKind.PRECEDES, "a")
    assert not g.is_acyclic({RelationKind.PRECEDES})


def test_is_acyclic_empty_relation_set():
    g = graph_with_nodes(ids=["a", "b"])
    g.add_edge("a", RelationKind.PRECEDES, "b")
    g.add_edge("b", RelationKind.PRECEDES, "a")
    assert g.is_acyclic(set())


def test_frozen_graph_rejects_mutation():
    g = graph_with_nodes(ids=["a", "b"])
    g.freeze()
    with pytest.raises(RuntimeError):
        g.add_node("c", NodeKind.PANEL)
    with pytest.raises(RuntimeError):
        g.add_edge("a", RelationKind.PRECEDES, "b")


def test_serialize_empty_roundtrip():
    g = NarrativeGraph(Tier.UNIFIED)
    assert deserialize_graph(serialize_graph(g)) == g


def test_serialize_unified_story_roundtrip(unified):
    text = serialize_graph(unified.graph)
    back = deserialize_graph(text)
    assert back.node_count == unified.graph.node_count
    assert back.edge_count == unified.graph.edge_count
    assert back == unified.graph
    assert serialize_graph(back) == text


def test_deserialize_edge_to_unknown_node():
    doc = (
        '{"tier": "unified", "nodes": [{"id": "a", "kind": "panel", "attrs": {}}],'
        ' "edges": [{"src": "a", "rel": "precedes", "dst": "ghost"}]}'
    )
    with pytest.raises(SchemaError) as err:
        deserialize_graph(doc)
    assert "ghost" in str(err.value)


def test_deserialize_rejects_unknown_kind():
    doc = '{"tier": "unified", "nodes": [{"id": "a", "kind": "blob", "attrs": {}}], "edges": []}'
    with pytest.raises(SchemaError) as err:
        deserialize_graph(doc)
    assert err.value.path == "nodes[0].kind"


def test_deserialize_rejects_bad_json():
    with pytest.raises(SchemaError):
        deserialize_graph("{oops")


def _with_precedes(graph_text, src, dst):
    doc = json.loads(graph_text)
    doc["edges"].append({"src": src, "rel": "precedes", "dst": dst})
    return json.dumps(doc)


@pytest.mark.parametrize(
    "src, dst",
    [("panel:0_0_0", "panel:0_0_0"), ("panel:0_2_2", "panel:0_0_0")],
    ids=["self_loop", "back_edge"],
)
def test_deserialize_rejects_precedes_cycle(unified, src, dst):
    text = _with_precedes(serialize_graph(unified.graph), src, dst)
    with pytest.raises(SchemaError) as err:
        deserialize_graph(text)
    assert err.value.path == "edges"
    assert err.value.reason == "precedes edges form a cycle"


# --- properties ---------------------------------------------------------


@given(edge_scripts)
def test_precedes_follows_closure_property(script):
    g = graph_with_nodes()
    for src, rel, dst in script:
        g.add_edge(src, rel, dst)
    edges = set(g.edges())
    for src, rel, dst in edges:
        if rel is RelationKind.PRECEDES:
            assert (dst, RelationKind.FOLLOWS, src) in edges
        if rel is RelationKind.FOLLOWS:
            assert (dst, RelationKind.PRECEDES, src) in edges


@given(edge_scripts)
def test_neighbor_out_in_duality(script):
    g = graph_with_nodes()
    for src, rel, dst in script:
        g.add_edge(src, rel, dst)
    for node in NODE_IDS:
        for rel in RelationKind:
            for other in g.neighbors(node, rel, "out"):
                assert node in g.neighbors(other, rel, "in")
            for other in g.neighbors(node, rel, "in"):
                assert node in g.neighbors(other, rel, "out")


def _has_cycle(nodes, arcs):
    """Brute-force DFS cycle search, independent of the graph class."""
    adjacency = {n: [] for n in nodes}
    for src, dst in arcs:
        adjacency[src].append(dst)
    state = {n: 0 for n in nodes}  # 0 unseen, 1 on stack, 2 done

    def visit(node):
        state[node] = 1
        for nxt in adjacency[node]:
            if state[nxt] == 1:
                return True
            if state[nxt] == 0 and visit(nxt):
                return True
        state[node] = 2
        return False

    return any(visit(n) for n in nodes if state[n] == 0)


TWELVE = [f"v{i}" for i in range(12)]


@given(
    st.lists(
        st.tuples(st.sampled_from(TWELVE), st.sampled_from(TWELVE)), max_size=30
    ),
    st.sampled_from([RelationKind.SUBEVENT_OF, RelationKind.PRECEDES, RelationKind.CO_OCCURS]),
)
def test_is_acyclic_matches_bruteforce(pairs, rel):
    g = graph_with_nodes(ids=TWELVE, kind=NodeKind.EVENT)
    for src, dst in pairs:
        g.add_edge(src, rel, dst)
    arcs = [(src, dst) for src, edge_rel, dst in g.edges() if edge_rel is rel]
    assert g.is_acyclic({rel}) == (not _has_cycle(TWELVE, arcs))


attr_maps = st.dictionaries(
    st.text(min_size=1, max_size=6), st.text(max_size=12), max_size=3
)


@given(
    st.lists(st.tuples(st.sampled_from(list(NodeKind)), attr_maps), max_size=8),
    st.data(),
)
def test_serialize_roundtrip_property(node_specs, data):
    g = NarrativeGraph(Tier.UNIFIED)
    ids = []
    for i, (kind, attrs) in enumerate(node_specs):
        node_id = f"m{i}"
        g.add_node(node_id, kind, attrs)
        ids.append(node_id)
    if ids:
        script = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ids),
                    st.sampled_from(list(RelationKind)),
                    st.sampled_from(ids),
                ),
                max_size=16,
            )
        )
        for src, rel, dst in script:
            g.add_edge(src, rel, dst)
    text = serialize_graph(g)
    if g.is_acyclic({RelationKind.PRECEDES}):
        assert deserialize_graph(text) == g
    else:
        with pytest.raises(SchemaError) as err:
            deserialize_graph(text)
        assert err.value.path == "edges"


def test_queries_leave_serialized_graph_unchanged(unified, story):
    before = serialize_graph(unified.graph)
    ng.actions_by_macro_event(unified, "Think of family")
    ng.dialogue_by_event(unified, "Intro_1")
    ng.character_appearances(unified)
    ng.panel_timeline(unified, "Think of family")
    assert serialize_graph(unified.graph) == before


def _reference_serialize(graph):
    """The encoder serialize_graph replaced, kept as its reference:
    ``json.dumps`` of the node-link object."""
    obj = {
        "tier": graph.tier.value,
        "nodes": [
            {"id": node_id, "kind": kind.value, "attrs": dict(attrs)}
            for node_id, kind, attrs in graph.nodes()
        ],
        "edges": [{"src": src, "rel": rel.value, "dst": dst} for src, rel, dst in graph.edges()],
    }
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# Quotes, backslashes, control characters, non-ASCII, astral characters and
# lone surrogates, mixed with any other code point.
ESCAPE_PRONE = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028é日\U0001f600\U0010ffff\ud800\udfff'
tricky_text = st.text(
    alphabet=st.one_of(st.sampled_from(ESCAPE_PRONE), st.characters(categories=None)),
    max_size=8,
)


@given(
    st.sampled_from(list(Tier)),
    st.lists(
        st.tuples(
            tricky_text,
            st.sampled_from(list(NodeKind)),
            st.dictionaries(tricky_text, tricky_text, max_size=3),
        ),
        max_size=8,
        unique_by=lambda spec: spec[0],
    ),
    st.data(),
)
def test_serialize_matches_json_dumps(tier, node_specs, data):
    g = NarrativeGraph(tier)
    for node_id, kind, attrs in node_specs:
        g.add_node(node_id, kind, attrs)
    if node_specs:
        ids = [spec[0] for spec in node_specs]
        for src, rel, dst in data.draw(
            st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(list(RelationKind)), st.sampled_from(ids)),
                max_size=12,
            )
        ):
            g.add_edge(src, rel, dst)
    assert serialize_graph(g) == _reference_serialize(g)


def test_serialize_matches_json_dumps_on_empty_and_built_graphs(unified):
    for tier in Tier:
        g = NarrativeGraph(tier)
        assert serialize_graph(g) == _reference_serialize(g)
        g.add_node("only", NodeKind.PANEL)
        assert serialize_graph(g) == _reference_serialize(g)
    assert serialize_graph(unified.graph) == _reference_serialize(unified.graph)
    for seed in range(5):
        graph = ng.integrate(ng.generate(ng.GenParams(seed=seed))).graph
        assert serialize_graph(graph) == _reference_serialize(graph)
