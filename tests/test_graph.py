import gc
import json
import os
import re
import sys
import threading

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
    UnifiedGraph,
    deserialize_graph,
    integrate,
    serialize_graph,
)
from narragraph import cli
from narragraph.graph import _CHUNK, _READ, graph_chunks

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
    with pytest.raises(DuplicateNodeError) as err:
        g.add_node("x", NodeKind.PANEL)
    assert str(err.value) == "node 'x' already exists"
    with pytest.raises(DuplicateNodeError) as err:
        g.add_node("x", NodeKind.PANEL_VISUAL)
    assert str(err.value) == "node 'x' already exists with kind 'panel', not 'panel_visual'"
    assert g.node_count == 1


@pytest.mark.parametrize("attrs", [{"reading_order": 0}, {"label": None}, {1: "one"}])
def test_add_node_with_a_non_string_attribute_raises(attrs):
    g = NarrativeGraph(Tier.PANEL)
    with pytest.raises(TypeError, match="node attributes must map strings to strings"):
        g.add_node("x", NodeKind.PANEL, attrs)
    assert g.node_count == 0


@pytest.mark.parametrize("node_id", [7, None, b"x", ("x",)], ids=["int", "none", "bytes", "tuple"])
def test_add_node_with_a_non_string_id_raises(node_id):
    """A non-string id is refused up front, so the graph stays one that
    ``serialize_graph`` and ``to_dot`` can write."""
    g = NarrativeGraph(Tier.PANEL)
    g.add_node("x", NodeKind.ACTION, {"verb": "x"})
    with pytest.raises(TypeError) as err:
        g.add_node(node_id, NodeKind.ACTION, {"verb": "x"})
    assert str(err.value) == f"node ids must be strings, not {type(node_id).__name__}"
    assert g.node_count == 1
    assert deserialize_graph(serialize_graph(g)) == g
    assert '"x" [label=' in ng.to_dot(g)


def test_node_kind_and_attrs_of_a_missing_node_raise():
    g = graph_with_nodes(ids=["a"])
    for read in (g.node_kind, g.node_attrs):
        with pytest.raises(MissingNodeError) as err:
            read("ghost")
        assert str(err.value) == "node 'ghost' is not in the graph"


def test_precedes_is_read_both_ways():
    g = graph_with_nodes(ids=["seg:a", "seg:b"], kind=NodeKind.EVENT_SEGMENT)
    g.add_edge("seg:a", RelationKind.PRECEDES, "seg:b")
    assert g.neighbors("seg:a", RelationKind.PRECEDES) == ["seg:b"]
    assert g.neighbors("seg:b", RelationKind.PRECEDES, "in") == ["seg:a"]
    assert list(g.edges()) == [("seg:a", RelationKind.PRECEDES, "seg:b")]


def test_follows_is_an_unknown_relation():
    """``precedes`` is the one order relation: ``follows`` is no member, and
    given as a string it is refused as any unknown relation is."""
    assert "follows" not in [rel.value for rel in RelationKind]
    g = graph_with_nodes(ids=["a", "b"])
    with pytest.raises(ValueError) as err:
        g.add_edge("b", "follows", "a")
    assert str(err.value) == "unknown relation 'follows'"
    assert g.edge_count == 0
    g.add_edge("a", RelationKind.PRECEDES, "b")
    for direction in ("out", "in"):
        with pytest.raises(ValueError) as err:
            g.neighbors("a", "follows", direction)
        assert str(err.value) == "unknown relation 'follows'"


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


def test_a_relation_given_as_its_value_is_its_member():
    """A str enum member hashes and compares as its value, so a graph that
    tested members by identity alone would miss a ``precedes`` edge given
    as ``"precedes"`` in its reads and its cycle check."""
    g = graph_with_nodes(ids=["a", "b"], kind=NodeKind.EVENT_SEGMENT)
    g.add_edge("b", "precedes", "a")
    assert list(g.edges()) == [("b", RelationKind.PRECEDES, "a")]
    assert type(next(g.edges())[1]) is RelationKind
    assert g.neighbors("b", RelationKind.PRECEDES) == ["a"]
    assert g.neighbors("a", "precedes", "in") == ["b"] == g.neighbors("a", RelationKind.PRECEDES, "in")
    assert g.neighbors("b", "precedes") == ["a"]
    assert deserialize_graph(serialize_graph(g)) == g
    g.add_edge("a", RelationKind.PRECEDES, "b")
    assert not g.is_acyclic()
    with pytest.raises(SchemaError, match="precedes edges form a cycle"):
        deserialize_graph(serialize_graph(g))


def test_a_kind_given_as_its_value_is_its_member():
    g = NarrativeGraph(Tier.PANEL)
    g.add_node("p", "panel", {"reading_order": "0"})
    assert g.node_kind("p") is NodeKind.PANEL
    assert g.nodes_of_kind(NodeKind.PANEL) == ["p"]
    with pytest.raises(DuplicateNodeError, match="with kind 'panel', not 'action'"):
        g.add_node("p", "action")


@pytest.mark.parametrize("value", ["bogus", None, 3, "PRECEDES"])
def test_an_unknown_kind_or_relation_raises_value_error(value):
    g = graph_with_nodes(ids=["a", "b"])
    with pytest.raises(ValueError, match="unknown node kind"):
        g.add_node("c", value)
    with pytest.raises(ValueError, match="unknown relation"):
        g.add_edge("a", value, "b")
    with pytest.raises(ValueError, match="unknown relation"):
        g.neighbors("a", value)
    assert g.node_count == 2 and g.edge_count == 0


def test_is_acyclic_chain():
    g = graph_with_nodes(ids=["a", "b", "c"])
    g.add_edge("a", RelationKind.PRECEDES, "b")
    g.add_edge("b", RelationKind.PRECEDES, "c")
    assert g.is_acyclic()


def test_is_acyclic_two_cycle():
    g = graph_with_nodes(ids=["a", "b"])
    g.add_edge("a", RelationKind.PRECEDES, "b")
    g.add_edge("b", RelationKind.PRECEDES, "a")
    assert not g.is_acyclic()


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
    # A graph equals no other type, and its repr gives its size.
    assert back != text
    assert repr(back) == f"NarrativeGraph(tier='unified', nodes={back.node_count}, edges={back.edge_count})"


def test_deserialize_edge_to_unknown_node():
    doc = (
        '{"format": 2, "tier": "unified", "nodes": ["a", "panel", {"reading_order": "0"}],'
        ' "edges": ["a", "precedes", "ghost"]}'
    )
    with pytest.raises(SchemaError) as err:
        deserialize_graph(doc)
    assert err.value.path == "edges[0].dst"
    assert err.value.reason == "edge references unknown node 'ghost'"


def test_deserialize_rejects_unknown_kind():
    doc = '{"format": 2, "tier": "unified", "nodes": ["a", "blob", {}], "edges": []}'
    with pytest.raises(SchemaError) as err:
        deserialize_graph(doc)
    assert err.value.path == "nodes[0].kind"


def test_deserialize_rejects_bad_json():
    with pytest.raises(SchemaError) as err:
        deserialize_graph("{oops")
    assert err.value.path == "$"
    assert err.value.reason == (
        "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )


def _graph_doc(nodes=(), edges=(), **top):
    """A format 2 graph document of the given node and edge records."""
    doc = {"format": 2, "tier": "unified", **top}
    doc["nodes"] = [item for record in nodes for item in record]
    doc["edges"] = [item for record in edges for item in record]
    return json.dumps(doc)


P0 = ("p0", "panel", {"reading_order": "0"})
P1 = ("p1", "panel", {"reading_order": "1"})
EV = ("e", "event", {"label": "E"})


def _node(kind, attrs):
    return _graph_doc([("n", kind, attrs)])


def _edges(*triples, nodes=(P0, P1, EV)):
    return _graph_doc(nodes, triples)


def _edge(src="p0", rel="precedes", dst="p1"):
    return _edges((src, rel, dst))


def _lacks(kind, key):
    return "nodes[0].attrs", f"{kind} node lacks attribute {key!r}"


NOT_STR_MAP = ("nodes[0].attrs", "attrs must map strings to strings")
NOT_STR_ID = "missing or non-string node id"
NOT_FORMAT_2 = ("$", "not a format 2 graph file; narragraph build writes one from its corpus")
UNKNOWN_KEY = "unknown key; a graph file holds format, tier, nodes and edges"
NODE_LINK = json.dumps(
    {"tier": "unified", "nodes": [{"id": "p0", "kind": "panel", "attrs": {"reading_order": "0"}}], "edges": []}
)

# (document, path, reason) of every check deserialize_graph makes, besides
# the two tests above; where a document has two faults, the one the loader
# checks first is reported.
LOADER_ERRORS = {
    "not_an_object": ("[]", "$", "expected an object"),
    "node_link": (NODE_LINK, *NOT_FORMAT_2),
    "format_missing": ('{"tier": "panel", "nodes": [], "edges": []}', *NOT_FORMAT_2),
    "format_1": ('{"format": 1, "tier": "panel", "nodes": [], "edges": []}', *NOT_FORMAT_2),
    "format_string": ('{"format": "2", "tier": "panel", "nodes": [], "edges": []}', *NOT_FORMAT_2),
    "format_float": ('{"format": 2.0, "tier": "panel", "nodes": [], "edges": []}', *NOT_FORMAT_2),
    "format_true": ('{"format": true, "tier": "panel", "nodes": [], "edges": []}', *NOT_FORMAT_2),
    "format_before_tier": ('{"tier": 1}', *NOT_FORMAT_2),
    "unknown_key": (_graph_doc(links=[]), "links", UNKNOWN_KEY),
    "unknown_key_before_tier": ('{"format": 2, "tier": 1, "Nodes": []}', "Nodes", UNKNOWN_KEY),
    "repeated_top_key": (
        '{"format": 2, "tier": "panel", "tier": "unified", "nodes": [], "edges": []}',
        "$",
        "repeated key 'tier' in one object",
    ),
    "repeated_attr_key": (
        _node("panel", {"reading_order": "0"}).replace('"0"}', '"0", "reading_order": "1"}'),
        "$",
        "repeated key 'reading_order' in one object",
    ),
    "tier_missing": ('{"format": 2, "nodes": [], "edges": []}', "tier", "missing or non-string tier"),
    "tier_not_a_string": ('{"format": 2, "tier": 1, "nodes": []}', "tier", "missing or non-string tier"),
    "tier_unknown": ('{"format": 2, "tier": "blob", "nodes": []}', "tier", "unknown tier 'blob'"),
    "nodes_not_a_list": ('{"format": 2, "tier": "panel", "nodes": {}}', "nodes", "missing or non-list nodes"),
    "nodes_missing": ('{"format": 2, "tier": "panel", "edges": []}', "nodes", "missing or non-list nodes"),
    "edges_not_a_list": ('{"format": 2, "tier": "panel", "nodes": [], "edges": 0}', "edges", "missing or non-list edges"),
    "nodes_not_whole_records": (
        _graph_doc([P0, ("p1",)]), "nodes", "4 items do not make whole records of 3"
    ),
    "nodes_length_before_records": (
        _graph_doc([("n", "blob", {}), ("p1", "panel")]), "nodes", "5 items do not make whole records of 3"
    ),
    "edges_not_whole_records": (
        _graph_doc([P0], [("p0", "blob")]), "edges", "2 items do not make whole records of 3"
    ),
    "id_not_a_string": (_graph_doc([(7, "panel", {})]), "nodes[0].id", "missing or non-string id"),
    "id_null": (_graph_doc([(None, "blob", {})]), "nodes[0].id", "missing or non-string id"),
    "kind_unknown": (_node("blob", {}), "nodes[0].kind", "unknown node kind 'blob'"),
    "kind_list": (_node([], {}), "nodes[0].kind", "unknown node kind []"),
    "kind_object": (_node({}, {}), "nodes[0].kind", "unknown node kind {}"),
    "kind_null": (_node(None, {}), "nodes[0].kind", "unknown node kind None"),
    "kind_before_attrs": (_node("blob", None), "nodes[0].kind", "unknown node kind 'blob'"),
    "attrs_null": (_node("panel", None), *NOT_STR_MAP),
    "attrs_list": (_node("scene_object", []), *NOT_STR_MAP),
    "attrs_value_not_a_string": (_node("panel", {"reading_order": 0}), *NOT_STR_MAP),
    "panel_reading_order": (_node("panel", {"shot_type": "wide"}), *_lacks("panel", "reading_order")),
    "action_verb": (_node("action", {"object": "x"}), *_lacks("action", "verb")),
    "dialogue_content_text": (_node("dialogue_content", {}), *_lacks("dialogue_content", "text")),
    "character_label": (_node("character", {}), *_lacks("character", "label")),
    "event_label": (_node("event", {}), *_lacks("event", "label")),
    "macro_event_label": (_node("macro_event", {}), *_lacks("macro_event", "label")),
    "reading_order_negative": (
        _node("panel", {"reading_order": "-1"}),
        "nodes[0].attrs",
        "reading_order must be a non-negative decimal integer, got '-1'",
    ),
    "reading_order_not_decimal": (
        _node("panel", {"reading_order": "0x1"}),
        "nodes[0].attrs",
        "reading_order must be a non-negative decimal integer, got '0x1'",
    ),
    "duplicate_id": (_graph_doc([P0, ("p0", *EV[1:])]), "nodes[1].id", "duplicate node id 'p0'"),
    "duplicate_id_with_bad_attrs": (
        _graph_doc([P0, ("p0", "event", {})]),
        "nodes[1].attrs",
        "event node lacks attribute 'label'",
    ),
    "reading_order_before_duplicate": (
        _graph_doc([P0, ("p0", "panel", {"reading_order": "-1"})]),
        "nodes[1].attrs",
        "reading_order must be a non-negative decimal integer, got '-1'",
    ),
    "node_fault_before_edge_fault": (
        _graph_doc([P0, ("x", "blob", {})], [("p0", "blob", "x")]),
        "nodes[1].kind",
        "unknown node kind 'blob'",
    ),
    "rel_unknown": (_edge(rel="blob"), "edges[0].rel", "unknown relation 'blob'"),
    "rel_list": (_edge(rel=[]), "edges[0].rel", "unknown relation []"),
    "rel_null": (_graph_doc([], [("p0", None, "p1")]), "edges[0].rel", "unknown relation None"),
    "rel_before_endpoints": (_edge(src=None, rel="blob"), "edges[0].rel", "unknown relation 'blob'"),
    "edge_all_null": (_graph_doc([P0], [(None, None, None)]), "edges[0].rel", "unknown relation None"),
    "src_not_a_string": (_edge(src=1), "edges[0].src", NOT_STR_ID),
    "src_object": (_edge(src={"id": "p0"}), "edges[0].src", NOT_STR_ID),
    "dst_unknown": (_edge(dst="ghost"), "edges[0].dst", "edge references unknown node 'ghost'"),
    "src_unknown_before_join": (
        _edge(src="ghost", rel="precedes", dst="e"),
        "edges[0].src",
        "edge references unknown node 'ghost'",
    ),
    "dst_not_a_string": (_edge(dst=["p1"]), "edges[0].dst", NOT_STR_ID),
    "dst_null": (_graph_doc([P0], [("p0", "precedes", None)]), "edges[0].dst", NOT_STR_ID),
    "src_unknown": (_edge(src="ghost", dst=1), "edges[0].src", "edge references unknown node 'ghost'"),
    "wrong_kinds": (_edge(dst="e"), "edges[0]", "precedes cannot join panel to event"),
    "rel_follows": (_edge("e", "follows"), "edges[0].rel", "unknown relation 'follows'"),
    "wrong_kinds_reversed": (
        _edge(src="e", rel="instantiates", dst="p0"),
        "edges[0]",
        "instantiates cannot join event to panel",
    ),
    "cycle": (
        _edges(("p0", "precedes", "p1"), ("p1", "precedes", "p0")),
        "edges",
        "precedes edges form a cycle",
    ),
    "cycle_through_repeated_record": (
        _edges(("p0", "precedes", "p1"), ("p1", "precedes", "p0"), ("p0", "precedes", "p1")),
        "edges",
        "precedes edges form a cycle",
    ),
    "edge_fault_before_cycle": (
        _edges(("p0", "precedes", "p0"), ("p0", "precedes", "x")),
        "edges[1].dst",
        "edge references unknown node 'x'",
    ),
}


@pytest.mark.parametrize("text, path, reason", LOADER_ERRORS.values(), ids=LOADER_ERRORS)
def test_deserialize_reports_exact_path_and_reason(text, path, reason):
    with pytest.raises(SchemaError) as err:
        deserialize_graph(text)
    assert (err.value.path, err.value.reason) == (path, reason)


def _with_records(graph_text, nodes=(), edges=()):
    doc = json.loads(graph_text)
    doc["nodes"] += [item for record in nodes for item in record]
    doc["edges"] += [item for record in edges for item in record]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "src, rel, dst",
    [
        ("panel:0_0_0", "precedes", "panel:0_0_0"),
        ("panel:0_2_2", "precedes", "panel:0_0_0"),
        ("seg:sg3", "precedes", "seg:sg1"),
        ("event:ev2", "precedes", "event:ev1"),
    ],
    ids=["self_loop", "back_edge", "segment_back_edge", "event_back_edge"],
)
def test_deserialize_rejects_precedes_cycle(unified, src, rel, dst):
    text = _with_records(serialize_graph(unified.graph), edges=[(src, rel, dst)])
    with pytest.raises(SchemaError) as err:
        deserialize_graph(text)
    assert err.value.path == "edges"
    assert err.value.reason == "precedes edges form a cycle"


@pytest.mark.parametrize(
    "src, rel, dst, reason",
    [
        (
            "panel:0_0_1/visual",
            "has_action",
            "panel:0_0_1/obj:letter",
            "has_action cannot join panel_visual to scene_object",
        ),
        (
            "seg:sg1",
            "instantiates",
            "seg:sg2",
            "instantiates cannot join event_segment to event_segment",
        ),
        ("event:ev1", "precedes", "macro:m1", "precedes cannot join event to macro_event"),
    ],
    ids=["action_to_scene_object", "instantiates_from_segment", "precedes_across_kinds"],
)
def test_deserialize_rejects_edge_between_wrong_kinds(unified, src, rel, dst, reason):
    text = _with_records(serialize_graph(unified.graph), edges=[(src, rel, dst)])
    with pytest.raises(SchemaError) as err:
        deserialize_graph(text)
    assert err.value.path == f"edges[{unified.graph.edge_count}]"
    assert err.value.reason == reason


def test_deserialize_repeated_one_target_record_is_a_noop(unified):
    text = serialize_graph(unified.graph)
    repeated = [
        edge for edge in unified.graph.edges()
        if edge[1] in (RelationKind.HAS_VISUAL, RelationKind.HAS_TEXTUAL, RelationKind.REFERS_TO)
    ]
    loaded = deserialize_graph(_with_records(text, edges=repeated))
    assert loaded == unified.graph
    # The repeated record counts once towards the story contract.
    assert ng.UnifiedGraph.from_graph(loaded).index == unified.index


def test_deserialize_lets_an_event_share_its_macro_event_label(unified):
    text = _with_records(
        serialize_graph(unified.graph),
        nodes=[("extra", "event", {"label": "Think of family"})],
        edges=[("extra", "subevent_of", "macro:m1")],
    )
    index = ng.UnifiedGraph.from_graph(deserialize_graph(text)).index
    assert index[(NodeKind.EVENT, "Think of family")] == "extra"
    assert index[(NodeKind.MACRO_EVENT, "Think of family")] == "macro:m1"


# --- properties ---------------------------------------------------------


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


@given(st.lists(st.tuples(st.sampled_from(TWELVE), st.sampled_from(TWELVE)), max_size=30))
def test_is_acyclic_matches_bruteforce(pairs):
    g = graph_with_nodes(ids=TWELVE, kind=NodeKind.EVENT)
    for src, dst in pairs:
        g.add_edge(src, RelationKind.PRECEDES, dst)
    assert g.is_acyclic() == (not _has_cycle(TWELVE, pairs))


#: Each relation, as its member and as its value.
RELATIONS = list(RelationKind) + [rel.value for rel in RelationKind]

#: Nodes that only the skeleton of ``store_scripts`` joins.
SKELETON_IDS = ["s0", "s1", "s2", "s3"]


@st.composite
def store_scripts(draw):
    """A few relations, then up to 60 edges over five nodes drawn from them:
    relations interleave, edges repeat, and a relation may be given as its
    member or as its value.

    Spliced in at drawn places: a skeleton over one drawn relation that
    gives ``SKELETON_IDS`` degree 0, 1 and 2 in each direction, with one
    edge repeated, so that every node's adjacency is empty, one id or a
    list and each shape change happens amid other inserts."""
    rels = draw(st.lists(st.sampled_from(RELATIONS), min_size=1, max_size=5, unique=True))
    ids = NODE_IDS[:5]
    edge = st.tuples(st.sampled_from(ids), st.sampled_from(rels), st.sampled_from(ids))
    script = draw(st.lists(edge, max_size=60))
    rel = draw(st.sampled_from(rels))
    s0, s1, s2, s3 = SKELETON_IDS
    for skeleton_edge in ((s0, rel, s1), (s0, rel, s2), (s3, rel, s2), (s0, rel, s2)):
        script.insert(draw(st.integers(0, len(script))), skeleton_edge)
    return rel, script


def _stored(src, rel, dst):
    """The triple a graph reads back for ``(src, rel, dst)``: a relation
    given as its value is its member."""
    return src, RelationKind(rel), dst


def _reference_neighbors(g, node, rel, direction):
    """``neighbors`` as first defined: scan every edge, keep one relation
    and one direction."""
    if direction == "out":
        return [dst for src, edge_rel, dst in g.edges() if edge_rel is rel and src == node]
    return [src for src, edge_rel, dst in g.edges() if edge_rel is rel and dst == node]


@given(store_scripts())
def test_store_matches_edge_scan_reference(drawn):
    skeleton_rel, script = drawn
    ids = NODE_IDS[:5] + SKELETON_IDS
    g = graph_with_nodes(ids=ids)
    for src, rel, dst in script:
        g.add_edge(src, rel, dst)
    # The same script regrouped by stored relation: each relation's edges
    # keep their order, so every traversal answers alike; only edges() moves.
    order = list(RelationKind)
    regrouped = graph_with_nodes(ids=ids)
    for edge in sorted(script, key=lambda edge: order.index(_stored(*edge)[1])):
        regrouped.add_edge(*edge)

    assert list(g.nodes()) == [(node, NodeKind.PANEL, {}) for node in ids]
    stored = list(dict.fromkeys(_stored(*edge) for edge in script))
    assert list(g.edges()) == stored and g.edge_count == len(stored)
    for node in ids:
        for rel in RelationKind:
            for direction in ("out", "in"):
                expected = _reference_neighbors(g, node, rel, direction)
                assert g.neighbors(node, rel, direction) == expected
                assert regrouped.neighbors(node, rel, direction) == expected
            for other in ids:
                assert (other in g.neighbors(node, rel)) == (_stored(node, rel, other) in stored)

    for direction in ("out", "in"):
        shapes = {min(len(g.neighbors(node, skeleton_rel, direction)), 2) for node in SKELETON_IDS}
        assert shapes == {0, 1, 2}, direction

    assert (g == regrouped) == (list(g.edges()) == list(regrouped.edges()))
    rebuilt = graph_with_nodes(ids=ids)
    for edge in script:
        rebuilt.add_edge(*edge)
    assert g == rebuilt

    arcs = [(src, dst) for src, rel, dst in stored if rel is RelationKind.PRECEDES]
    assert g.is_acyclic() == (not _has_cycle(ids, arcs))


@st.composite
def interleaved_scripts(draw):
    """``add_node`` and ``add_edge`` steps with reads at drawn points.

    Nodes are added in ``NODE_IDS`` order, and each edge joins two nodes
    already added; edges repeat and a relation may be given as its member
    or as its value. At least one edge is written before the first read
    and one after it."""
    before = ["node", "edge"] + draw(st.lists(st.sampled_from(["node", "edge"]), max_size=20))
    after = ["edge"] + draw(st.lists(st.sampled_from(["node", "edge", "read"]), max_size=40))
    script, added = [], []
    for step in before + ["read"] + draw(st.permutations(after)):
        if step == "node":
            if len(added) < len(NODE_IDS):
                added.append(NODE_IDS[len(added)])
                script.append(("node", added[-1]))
        elif step == "edge":
            src, rel, dst = draw(st.tuples(
                st.sampled_from(added), st.sampled_from(RELATIONS), st.sampled_from(added)
            ))
            script.append(("edge", src, rel, dst))
        else:
            script.append(("read",))
    return script


def _assert_reads_match_edge_scan(g, stored):
    """Every read of ``g`` answers as a scan of its edges, ``stored``."""
    ids = [node for node, _, _ in g.nodes()]
    assert list(g.edges()) == stored
    for node in ids:
        for rel in RelationKind:
            for direction in ("out", "in"):
                expected = _reference_neighbors(g, node, rel, direction)
                assert g.neighbors(node, rel, direction) == expected
            for other in ids:
                assert (other in g.neighbors(node, rel)) == (_stored(node, rel, other) in stored)
    arcs = [(src, dst) for src, rel, dst in stored if rel is RelationKind.PRECEDES]
    assert g.is_acyclic() == (not _has_cycle(ids, arcs))


@given(interleaved_scripts())
def test_reads_match_edge_scan_across_interleaved_writes(script):
    """The adjacency index, built on the first read and kept current by
    later writes, answers every read as a scan of the edges; no read after
    the first builds it again."""
    g = NarrativeGraph(Tier.UNIFIED)
    stored, index = [], None
    for step in script:
        if step[0] == "node":
            g.add_node(step[1], NodeKind.PANEL, {})
        elif step[0] == "edge":
            g.add_edge(*step[1:])
            edge = _stored(*step[1:])
            if edge not in stored:
                stored.append(edge)
        else:
            _assert_reads_match_edge_scan(g, stored)
            index = index or g._adjacency
            assert g._adjacency is index
    _assert_reads_match_edge_scan(g, stored)
    assert g._adjacency is index


@pytest.mark.parametrize("records", ["as_written", "repeated"])
def test_loaded_graph_holds_its_index(unified, records, monkeypatch):
    """``deserialize_graph`` leaves the adjacency index to the loaded graph's
    first read, its own cycle check, which builds it once, as a built graph's
    first read does: after the last edge is stored and over every stored
    edge, also from repeated edge records. The index answers every read as
    a scan of the edges, and no later read builds it again."""
    text = serialize_graph(unified.graph)
    if records == "repeated":
        text = _with_records(text, edges=list(unified.graph.edges())[::3])
    build_index, built_over = NarrativeGraph._build_index, []

    def recording_build_index(graph):
        built_over.append(list(graph.edges()))
        return build_index(graph)

    monkeypatch.setattr(NarrativeGraph, "_build_index", recording_build_index)
    g = deserialize_graph(text)
    stored = list(unified.graph.edges())
    assert built_over == [stored]
    index = g._adjacency
    assert index is not None
    _assert_reads_match_edge_scan(g, stored)
    assert len(built_over) == 1
    assert g._adjacency is index


#: The (relation, direction) pairs whose maps the index holds from its first build.
READ_PAIRS = {(rel, direction) for direction, rels in _READ.items() for rel in rels}
#: Pairs the commands never read: each map is built on its first read.
OUTSIDE = [(rel, direction) for rel in (RelationKind.HAS_OBJECT, RelationKind.CO_OCCURS) for direction in ("out", "in")]


@pytest.fixture
def filled(monkeypatch):
    """Every (relation, direction) pair whose map ``_fill`` builds, in order."""
    fill, pairs = NarrativeGraph._fill, []

    def recording_fill(graph, adjacency):
        pairs.extend((rel, direction) for direction, maps in adjacency.items() for rel in maps)
        return fill(graph, adjacency)

    monkeypatch.setattr(NarrativeGraph, "_fill", recording_fill)
    return pairs


@pytest.mark.parametrize("make", [ng.bundled_story, lambda: ng.generate(ng.GenParams(seed=1))], ids=["paper", "seed1"])
def test_the_commands_read_only_the_pairs_the_index_holds(make, filled, tmp_path, capsys):
    """``from_graph``, the four queries, ``evaluate_all`` (on a built graph
    and on a loaded one) and ``export`` build no map outside ``_READ``. A
    command that reads a new pair fails here rather than paying a pass over
    the edges on its first read: add the pair to ``_READ``."""
    corpus = make()
    built = integrate(corpus)
    text = serialize_graph(built.graph)
    for unified in (built, UnifiedGraph.from_graph(deserialize_graph(text))):
        UnifiedGraph.from_graph(unified.graph)
        for label in {macro.label for macro in corpus.macro_events}:
            assert ng.actions_by_macro_event(unified, label).items
            assert ng.panel_timeline(unified, label).items
        for label in {event.label for event in corpus.events}:
            ng.dialogue_by_event(unified, label)
        assert ng.character_appearances(unified).appearances
        assert all(task.metrics.f1 == 1.0 for task in ng.evaluate_all(unified, corpus).tasks)
    path = tmp_path / "graph.json"
    path.write_text(text, encoding="utf-8")
    for extra in (["--format", "dot"], ["--format", "json"], ["--format", "dot", "--kinds", "panel,event"]):
        assert cli.main(["export", str(path), *extra]) == 0
    capsys.readouterr()
    assert set(filled) == READ_PAIRS


def _with_co_occurs(graph):
    """``graph`` with a ``co_occurs`` edge each way between adjacent events."""
    events = graph.nodes_of_kind(NodeKind.EVENT)
    for a, b in zip(events, events[1:]):
        graph.add_edge(a, RelationKind.CO_OCCURS, b)
        graph.add_edge(b, RelationKind.CO_OCCURS, a)
    return graph


@pytest.mark.parametrize("load", [False, True], ids=["built", "loaded"])
def test_a_pair_outside_the_index_is_built_once_and_kept_current(load, filled):
    assert not READ_PAIRS & set(OUTSIDE)
    g = _with_co_occurs(integrate(ng.generate(ng.GenParams(seed=1))).graph)
    if load:
        g = deserialize_graph(serialize_graph(g))
    ids = [node for node, _, _ in g.nodes()]
    for _ in range(2):
        for rel, direction in OUTSIDE:
            for node in ids:
                assert g.neighbors(node, rel, direction) == _reference_neighbors(g, node, rel, direction)
    assert [pair for pair in filled if pair not in READ_PAIRS] == OUTSIDE
    index = g._adjacency

    visual = g.nodes_of_kind(NodeKind.PANEL_VISUAL)[0]
    g.add_node("obj:new", NodeKind.SCENE_OBJECT, {"label": "new"})
    g.add_edge(visual, RelationKind.HAS_OBJECT, "obj:new")
    events = g.nodes_of_kind(NodeKind.EVENT)
    g.add_edge(events[-1], RelationKind.CO_OCCURS, events[0])
    assert g.neighbors(visual, RelationKind.HAS_OBJECT)[-1] == "obj:new"
    assert g.neighbors("obj:new", RelationKind.HAS_OBJECT, "in") == [visual]
    for rel, direction in OUTSIDE:
        for node in [visual, "obj:new", *events]:
            assert g.neighbors(node, rel, direction) == _reference_neighbors(g, node, rel, direction)
    assert [pair for pair in filled if pair not in READ_PAIRS] == OUTSIDE
    assert g._adjacency is index


def test_threads_sharing_a_loaded_graph_see_each_pair_whole():
    """Threads that read pairs outside ``_READ`` at once, none built yet, may
    each build a pair's map, but each reads a whole one: every answer equals
    the edge scan. Ten rounds, each on a freshly loaded graph."""
    text = serialize_graph(_with_co_occurs(integrate(ng.generate(ng.GenParams(seed=1, n_macro=6))).graph))
    g = deserialize_graph(text)
    ids = [node for node, _, _ in g.nodes()]
    pairs = [
        (rel, direction)
        for rel in RelationKind
        for direction in ("out", "in") if (rel, direction) not in READ_PAIRS
    ]
    expected = {pair: {node: [] for node in ids} for pair in pairs}
    for src, rel, dst in g.edges():
        for direction, node, other in (("out", src, dst), ("in", dst, src)):
            if (rel, direction) in expected:
                expected[rel, direction][node].append(other)

    workers = (os.cpu_count() or 1) + 2
    wrong, threads = [], []

    def read(graph, start, offset):
        start.wait(timeout=10)
        for rel, direction in pairs[offset:] + pairs[:offset]:
            for node in ids:
                if graph.neighbors(node, rel, direction) != expected[rel, direction][node]:
                    wrong.append((node, rel, direction))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            graph, start = deserialize_graph(text), threading.Barrier(workers)
            assert all(rel not in graph._adjacency[direction] for rel, direction in pairs)
            threads = [threading.Thread(target=read, args=(graph, start, i % len(pairs))) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_edges_yield_relation_members_in_insertion_order():
    g = NarrativeGraph(Tier.EVENT)
    for node_id in ("a", "b", "c"):
        g.add_node(node_id, NodeKind.EVENT, {"label": node_id})
    co, pre = RelationKind.CO_OCCURS, RelationKind.PRECEDES
    for edge in [("b", co, "c"), ("a", pre, "b"), ("b", "precedes", "c"), ("a", co, "b"), ("b", co, "c")]:
        g.add_edge(*edge)
    expected = [("b", co, "c"), ("a", pre, "b"), ("b", pre, "c"), ("a", co, "b")]
    for graph in (g, deserialize_graph(serialize_graph(g))):
        edges = list(graph.edges())
        # A str enum member equals its value, so compare the types too.
        assert edges == expected
        assert [type(rel) for _, rel, _ in edges] == [RelationKind] * len(expected)


def _containers(graph):
    """Every dict, list and tuple the graph's attributes hold, found
    through ``gc.get_referents``."""
    found, seen, stack = [], set(), list(vars(graph).values())
    while stack:
        obj = stack.pop()
        if type(obj) in (dict, list, tuple) and id(obj) not in seen:
            seen.add(id(obj))
            found.append(obj)
            stack.extend(gc.get_referents(obj))
    return found


def _lists_and_tuples(graph):
    return [obj for obj in _containers(graph) if type(obj) in (list, tuple)]


@pytest.mark.parametrize("load", [False, True], ids=["integrate", "deserialize_graph"])
@pytest.mark.parametrize(
    "make", [ng.bundled_story, lambda: ng.generate(ng.GenParams(seed=0))], ids=["paper", "seed0"]
)
def test_store_is_mostly_untracked_by_the_gc(make, load):
    """The only tuples in the store are the edge keys, one per edge; they
    hold only strings, so a collection untracks them all. A node with one
    neighbour over a relation holds a bare id, so every list has two or more.

    The adjacency index is built on the first read: a graph that has only
    been written and serialized holds no list at all."""
    g = integrate(make()).graph
    if load:
        g = deserialize_graph(serialize_graph(g))
    else:
        fresh = _lists_and_tuples(g)
        serialize_graph(g)
        for held in (fresh, _lists_and_tuples(g)):
            assert len(held) == g.edge_count > 0
            assert all(type(obj) is tuple and obj in g._edges for obj in held)
    assert g.is_acyclic()
    gc.collect()
    found = _containers(g)
    keys = [obj for obj in found if type(obj) is tuple]
    assert len(keys) == g.edge_count > 0
    assert not any(map(gc.is_tracked, keys))
    lists = [obj for obj in found if type(obj) is list]
    assert lists and min(map(len, lists)) >= 2


attr_maps = st.dictionaries(
    st.text(min_size=1, max_size=6), st.text(max_size=12), max_size=3
)

#: The attribute each node kind must carry in a graph file.
REQUIRED_ATTR = {
    NodeKind.PANEL: "reading_order",
    NodeKind.ACTION: "verb",
    NodeKind.DIALOGUE_CONTENT: "text",
    NodeKind.CHARACTER: "label",
    NodeKind.EVENT: "label",
    NodeKind.MACRO_EVENT: "label",
}

K = NodeKind

#: The (source kind, target kind) pairs each relation may join in a graph file.
ENDPOINTS = {
    RelationKind.HAS_VISUAL: {(K.PANEL, K.PANEL_VISUAL)},
    RelationKind.HAS_TEXTUAL: {(K.PANEL, K.PANEL_TEXTUAL)},
    RelationKind.HAS_CHARACTER: {(K.PANEL_VISUAL, K.CHARACTER_MENTION)},
    RelationKind.HAS_ACTION: {(K.PANEL_VISUAL, K.ACTION)},
    RelationKind.HAS_OBJECT: {(K.PANEL_VISUAL, K.SCENE_OBJECT)},
    RelationKind.AGENT_OF: {(K.ACTION, K.CHARACTER_MENTION)},
    RelationKind.PART_OF: {(K.DIALOGUE, K.PANEL_TEXTUAL), (K.CAPTION, K.PANEL_TEXTUAL)},
    RelationKind.CONTENT_OF: {(K.DIALOGUE_CONTENT, K.DIALOGUE), (K.DIALOGUE_CONTENT, K.CAPTION)},
    RelationKind.INSTANTIATES: {(K.PANEL, K.EVENT_SEGMENT)},
    RelationKind.SUBEVENT_OF: {(K.EVENT_SEGMENT, K.EVENT), (K.EVENT, K.MACRO_EVENT)},
    RelationKind.PRECEDES: {(kind, kind) for kind in (K.PANEL, K.EVENT_SEGMENT, K.EVENT, K.MACRO_EVENT)},
    RelationKind.CO_OCCURS: {(K.EVENT, K.EVENT)},
    RelationKind.REFERS_TO: {(K.CHARACTER_MENTION, K.CHARACTER)},
}


def _lacks_required_attr(kind, attrs):
    key = REQUIRED_ATTR.get(kind)
    if key is None:
        return False
    if key not in attrs:
        return True
    return key == "reading_order" and re.fullmatch(r"\d+", attrs[key]) is None


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(NodeKind)),
            attr_maps,
            # None leaves the required attribute out (unless attr_maps drew it).
            st.one_of(st.none(), st.integers(0, 10**6).map(str), st.text(max_size=4)),
        ),
        max_size=8,
    ),
    st.data(),
)
def test_serialize_roundtrip_property(node_specs, data):
    g = NarrativeGraph(Tier.UNIFIED)
    ids = []
    for i, (kind, attrs, required_value) in enumerate(node_specs):
        if required_value is not None and kind in REQUIRED_ATTR:
            attrs = {**attrs, REQUIRED_ATTR[kind]: required_value}
        node_id = f"m{i}"
        g.add_node(node_id, kind, attrs)
        ids.append(node_id)
    if ids:
        kinds = dict(zip(ids, (kind for kind, _, _ in node_specs)))
        any_edge = st.tuples(
            st.sampled_from(ids), st.sampled_from(list(RelationKind)), st.sampled_from(ids)
        )
        # Edges that fit ENDPOINTS, so that some drawn graphs load.
        fitting = [
            (src, rel, dst)
            for rel, pairs in ENDPOINTS.items()
            for src in ids
            for dst in ids
            if (kinds[src], kinds[dst]) in pairs
        ]
        edge = st.one_of(st.sampled_from(fitting), any_edge) if fitting else any_edge
        for src, rel, dst in data.draw(st.lists(edge, max_size=16)):
            g.add_edge(src, rel, dst)
    text = serialize_graph(g)

    def edge_fault(src, rel, dst):
        return (g.node_kind(src), g.node_kind(dst)) not in ENDPOINTS[rel]

    # The first faulty node, else the first faulty edge, is the one reported.
    # How records fit together as a story (one hub per panel, one node per
    # unit label) is UnifiedGraph.from_graph's to check, not loading's.
    faulty_nodes = [
        i for i, (_, kind, attrs) in enumerate(g.nodes()) if _lacks_required_attr(kind, attrs)
    ]
    faulty_edges = [i for i, edge in enumerate(g.edges()) if edge_fault(*edge)]
    if faulty_nodes:
        with pytest.raises(SchemaError) as err:
            deserialize_graph(text)
        assert err.value.path == f"nodes[{faulty_nodes[0]}].attrs"
    elif faulty_edges:
        with pytest.raises(SchemaError) as err:
            deserialize_graph(text)
        assert err.value.path == f"edges[{faulty_edges[0]}]"
    elif g.is_acyclic():
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
    """The format 2 text built from ``json.dumps`` of each value, kept as
    the reference of serialize_graph's own encoder. The text also reads
    back, by ``json.loads``, as the document it stands for."""

    def dumps(value):
        return json.dumps(value, ensure_ascii=False)

    def block(records):
        lines = [f"    {', '.join(map(dumps, record))}" for record in records]
        return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"

    nodes = [(node_id, kind.value, dict(attrs)) for node_id, kind, attrs in graph.nodes()]
    edges = [(src, rel.value, dst) for src, rel, dst in graph.edges()]
    text = (
        f'{{\n  "format": 2,\n  "tier": {dumps(graph.tier.value)},\n'
        f'  "nodes": {block(nodes)},\n  "edges": {block(edges)}\n}}\n'
    )
    assert json.loads(text) == {
        "format": 2,
        "tier": graph.tier.value,
        "nodes": [item for record in nodes for item in record],
        "edges": [item for record in edges for item in record],
    }
    return text


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


BOUNDARY_COUNTS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


@pytest.mark.parametrize("count", BOUNDARY_COUNTS)
def test_serialize_matches_json_dumps_across_chunk_boundaries(count):
    """``count`` nodes with no edges, then ``count`` edges among a few nodes:
    each list's text is the same whichever side of a chunk boundary its last
    record falls, and no chunk holds more than ``_CHUNK`` records."""
    nodes = NarrativeGraph(Tier.UNIFIED)
    for i in range(count):
        nodes.add_node(f"n{i}", NodeKind.PANEL, {"reading_order": str(i), "note": "é" * (i % 3)})
    side = 1 + int(count**0.5)
    edges = graph_with_nodes(ids=[f"n{i}" for i in range(side)])
    for i in range(count):
        edges.add_edge(f"n{i // side}", RelationKind.CO_OCCURS, f"n{i % side}")
    assert (nodes.node_count, edges.edge_count) == (count, count)
    for graph in (nodes, edges):
        assert serialize_graph(graph) == _reference_serialize(graph)
        # Every record, node or edge, starts its own line with four spaces.
        assert max(chunk.count("\n    ") for chunk in graph_chunks(graph)) <= _CHUNK


def test_build_streams_the_text_serialize_graph_returns(tmp_path, capsys):
    """A story of several chunks of nodes and of edges: the file ``build``
    writes chunk by chunk is the joined text, byte for byte."""
    corpus = ng.generate(ng.GenParams(seed=1, n_macro=100))
    graph = integrate(corpus).graph
    assert (graph.node_count, graph.edge_count) == (5593, 7856)
    src, out = tmp_path / "story.json", tmp_path / "graph.json"
    src.write_text(ng.serialize_corpus(corpus), encoding="utf-8")
    assert cli.main(["build", str(src), str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == serialize_graph(graph).encode("utf-8")
