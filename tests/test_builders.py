import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narragraph as ng
from narragraph import (
    NodeKind,
    RelationKind,
    Tier,
    build_event_graph,
    build_panel_graph,
    build_temporal_graph,
    deserialize_graph,
    integrate,
    normalize_token,
    serialize_graph,
)
from narragraph.build import (
    _ONE_TARGET,
    event_node_id,
    macro_node_id,
    panel_node_id,
    segment_node_id,
)
from narragraph.graph import _ENDPOINTS

import util


def test_panel_graph_action_node():
    p = util.panel(
        "0_0_0", "sg1", 0, characters=("A",), actions=[("A", "hold_hand", "B")]
    )
    g = build_panel_graph(p)
    assert g.tier is Tier.PANEL
    visual = g.neighbors("panel:0_0_0", RelationKind.HAS_VISUAL, "out")[0]
    actions = g.neighbors(visual, RelationKind.HAS_ACTION, "out")
    assert len(actions) == 1
    assert g.node_attrs(actions[0])["verb"] == "hold_hand"
    mention = g.neighbors(actions[0], RelationKind.AGENT_OF, "out")
    assert mention == ["panel:0_0_0/char:a"]


def test_panel_graph_minimal_skeleton():
    g = build_panel_graph(util.panel("x", "s", 0))
    assert g.node_count == 3
    assert g.edge_count == 2
    kinds = {kind for _, kind, _ in g.nodes()}
    assert kinds == {NodeKind.PANEL, NodeKind.PANEL_VISUAL, NodeKind.PANEL_TEXTUAL}


def test_panel_graph_two_dialogues():
    p = util.panel("x", "s", 0, dialogues=[("d0", "first line"), ("d1", "second line")])
    g = build_panel_graph(p)
    dialogue_nodes = g.nodes_of_kind(NodeKind.DIALOGUE)
    content_nodes = g.nodes_of_kind(NodeKind.DIALOGUE_CONTENT)
    assert len(dialogue_nodes) == 2
    assert len(content_nodes) == 2
    texts = [g.node_attrs(n)["text"] for n in content_nodes]
    assert texts == ["first line", "second line"]


def test_panel_graph_carries_panel_attrs(story):
    g = build_panel_graph(story.panels[0])
    attrs = g.node_attrs("panel:0_0_0")
    assert attrs["reading_order"] == "0"
    assert attrs["shot_type"] == "medium_shot"
    assert attrs["page_index"] == "0"
    assert attrs["image_path"] == "pages/000/panel_0.png"


def test_panel_graph_duplicate_character_label_one_mention():
    g = build_panel_graph(util.panel("x", "s", 0, characters=("A", "a")))
    assert len(g.nodes_of_kind(NodeKind.CHARACTER_MENTION)) == 1


def test_temporal_chain_on_story(story):
    g = build_temporal_graph(story)
    assert g.tier is Tier.TEMPORAL
    order = [p.panel_id for p in sorted(story.panels, key=lambda p: p.reading_order)]
    for prev, nxt in zip(order, order[1:]):
        assert g.neighbors(panel_node_id(prev), RelationKind.PRECEDES, "out") == [
            panel_node_id(nxt)
        ]
    panel_precedes = [
        (s, d)
        for s, rel, d in g.edges()
        if rel is RelationKind.PRECEDES and s.startswith("panel:")
    ]
    assert len(panel_precedes) == 8
    assert g.is_acyclic({RelationKind.PRECEDES})


def test_temporal_single_panel_has_no_precedes():
    corpus = util.corpus([util.panel("only", "s0", 0)])
    g = build_temporal_graph(corpus)
    assert all(rel is not RelationKind.PRECEDES for _, rel, _ in g.edges())


def test_temporal_segment_chain_first_appearance(story):
    # segment first panels sit at reading order 0, 3 and 6
    g = build_temporal_graph(story)
    assert g.neighbors(segment_node_id("sg1"), RelationKind.PRECEDES, "out") == [
        segment_node_id("sg2")
    ]
    assert g.neighbors(segment_node_id("sg2"), RelationKind.PRECEDES, "out") == [
        segment_node_id("sg3")
    ]
    segment_precedes = [
        (s, d)
        for s, rel, d in g.edges()
        if rel is RelationKind.PRECEDES and s.startswith("seg:")
    ]
    assert len(segment_precedes) == 2
    assert g.node_attrs(segment_node_id("sg2"))["first_reading_order"] == "3"


def test_event_graph_on_story(story):
    g = build_event_graph(story)
    into_macro = g.neighbors(macro_node_id("m1"), RelationKind.SUBEVENT_OF, "in")
    assert into_macro == [event_node_id("ev1"), event_node_id("ev2")]
    assert g.neighbors(event_node_id("ev1"), RelationKind.PRECEDES, "out") == [
        event_node_id("ev2")
    ]
    assert not [rel for _, rel, _ in g.edges() if rel is RelationKind.CO_OCCURS]


def test_event_graph_minimal_hierarchy():
    corpus = util.corpus([util.panel("p", "s0", 0)])
    corpus = ng.AnnotationCorpus(
        story_id="t",
        macro_events=corpus.macro_events,
        events=corpus.events,
        segments=corpus.segments,
        panels=(),
    )
    g = build_event_graph(corpus)
    rels = [rel for _, rel, _ in g.edges()]
    assert rels.count(RelationKind.SUBEVENT_OF) == 2
    assert RelationKind.PRECEDES not in rels
    assert RelationKind.CO_OCCURS not in rels


def test_event_graph_interleaved_events_co_occur():
    corpus = util.corpus(
        [
            util.panel("p0", "s0", 0),
            util.panel("p1", "s1", 1),
            util.panel("p2", "s0", 2),
            util.panel("p3", "s1", 3),
        ],
        seg_event={"s0": "ev_a", "s1": "ev_b"},
    )
    g = build_event_graph(corpus)
    assert g.has_edge(event_node_id("e_ev_a"), RelationKind.CO_OCCURS, event_node_id("e_ev_b"))
    assert g.has_edge(event_node_id("e_ev_b"), RelationKind.CO_OCCURS, event_node_id("e_ev_a"))


def test_event_graph_disjoint_events_do_not_co_occur():
    corpus = util.corpus(
        [
            util.panel("p0", "s0", 0),
            util.panel("p1", "s0", 1),
            util.panel("p2", "s1", 2),
        ],
        seg_event={"s0": "ev_a", "s1": "ev_b"},
    )
    g = build_event_graph(corpus)
    assert not [rel for _, rel, _ in g.edges() if rel is RelationKind.CO_OCCURS]


def test_integrate_every_panel_instantiates_once(unified, story):
    for p in story.panels:
        targets = unified.graph.neighbors(
            panel_node_id(p.panel_id), RelationKind.INSTANTIATES, "out"
        )
        assert targets == [segment_node_id(p.segment_id)]
        assert unified.graph.node_kind(targets[0]) is NodeKind.EVENT_SEGMENT


def test_integrate_character_identity_counts():
    corpus = util.corpus(
        [
            util.panel("p0", "s0", 0, characters=("A",)),
            util.panel("p1", "s0", 1, characters=("A", "B")),
            util.panel("p2", "s0", 2, characters=("A",)),
            util.panel("p3", "s0", 3, characters=("A",)),
        ]
    )
    u = integrate(corpus)
    g = u.graph
    characters = g.nodes_of_kind(NodeKind.CHARACTER)
    a_node = "char:a"
    assert len(characters) == 2
    assert a_node in characters
    mentions = [
        m
        for m in g.nodes_of_kind(NodeKind.CHARACTER_MENTION)
        if g.neighbors(m, RelationKind.REFERS_TO, "out") == [a_node]
    ]
    assert len(mentions) == 4
    refers = [e for e in g.edges() if e[1] is RelationKind.REFERS_TO and e[2] == a_node]
    assert len(refers) == 4


def test_integrate_empty_corpus():
    u = integrate(ng.AnnotationCorpus(story_id="empty"))
    assert u.graph.node_count == 0
    assert u.graph.edge_count == 0
    assert u.index == {}


def test_unified_index_lookups(unified, story):
    index = unified.index
    assert index[(NodeKind.MACRO_EVENT, "Think of family")] == macro_node_id("m1")
    assert index[(NodeKind.EVENT, "Intro_2")] == event_node_id("ev2")
    # Only the unit labels the queries resolve are indexed.
    assert index == {
        **{(NodeKind.MACRO_EVENT, m.label): macro_node_id(m.id) for m in story.macro_events},
        **{(NodeKind.EVENT, e.label): event_node_id(e.id) for e in story.events},
    }


def test_index_rejects_a_repeated_label():
    # A hand-built graph used to keep the first node of the label.
    g = ng.NarrativeGraph(Tier.UNIFIED)
    for node_id, label in (("macro:b", "x"), ("macro:a", "x"), ("macro:c", "y")):
        g.add_node(node_id, NodeKind.MACRO_EVENT, {"label": label})
    with pytest.raises(ng.SchemaError) as err:
        ng.UnifiedGraph.from_graph(g)
    assert err.value.path == "nodes[1].attrs"
    assert err.value.reason == "duplicate macro_event label 'x'"


@pytest.mark.parametrize(
    "kind, label", [("event", "Intro_1"), ("macro_event", "Think of family")]
)
def test_from_graph_rejects_a_repeated_unit_label(unified, kind, label):
    # The unit-label index could hold only one of the two nodes. Loading
    # checks single records, so the file loads and the index refuses it.
    doc = json.loads(serialize_graph(unified.graph))
    doc["nodes"].append({"id": "extra", "kind": kind, "attrs": {"label": label}})
    graph = deserialize_graph(json.dumps(doc))
    with pytest.raises(ng.SchemaError) as err:
        ng.UnifiedGraph.from_graph(graph)
    assert err.value.path == f"nodes[{unified.graph.node_count}].attrs"
    assert err.value.reason == f"duplicate {kind} label {label!r}"


def test_one_target_pairs_cover_the_contract():
    pairs = {(kind.value, rel.value) for kind, rels in _ONE_TARGET.items() for rel in rels}
    assert pairs == set(util.ONE_TARGET_PAIRS)


@pytest.mark.parametrize("edit", ["missing", "second"])
@pytest.mark.parametrize(
    "kind, rel", util.ONE_TARGET_PAIRS, ids=[f"{k}-{r}" for k, r in util.ONE_TARGET_PAIRS]
)
def test_from_graph_requires_exactly_one_target(unified, kind, rel, edit):
    # The queries follow each of these edges to one node; a missing one
    # used to drop the node's panels or mentions from every answer, and a
    # second one its second hub or identity.
    doc = json.loads(serialize_graph(unified.graph))
    index, reason = util.break_contract(doc, kind, rel, edit)
    graph = deserialize_graph(json.dumps(doc))
    with pytest.raises(ng.SchemaError) as err:
        ng.UnifiedGraph.from_graph(graph)
    assert (err.value.path, err.value.reason) == (f"nodes[{index}]", reason)


def _interleaved():
    """Two events whose reading-order spans interleave; generated events
    never overlap in reading order."""
    return util.corpus(
        [util.panel("p0", "s0", 0), util.panel("p1", "s1", 1), util.panel("p2", "s0", 2)]
    )


def test_from_graph_accepts_every_graph_integrate_writes(story):
    corpora = [story, _interleaved()] + [ng.generate(ng.GenParams(seed=s)) for s in range(20)]
    for corpus in corpora:
        unified = integrate(corpus)
        loaded = deserialize_graph(serialize_graph(unified.graph))
        assert ng.UnifiedGraph.from_graph(loaded).index == unified.index
        assert ng.UnifiedGraph.from_graph(unified.graph).index == unified.index


@st.composite
def _drawn_corpora(draw):
    """A seeded corpus, or one of panels in drawn segments and reading
    order whose characters repeat in other surface forms."""
    if draw(st.booleans()):
        return ng.generate(
            ng.GenParams(
                seed=draw(st.integers(0, 2**32)),
                n_macro=draw(st.integers(1, 4)),
                events_per_macro=(1, 3),
                segments_per_event=(1, 2),
                panels_per_segment=(1, 3),
            )
        )
    names = st.sampled_from(["A", "a", " A", "B", "C"])
    layout = draw(st.lists(st.tuples(st.integers(0, 5), st.lists(names, max_size=3)), min_size=1, max_size=10))
    orders = draw(st.permutations(range(len(layout))))
    panels = [
        util.panel(f"p{i}", f"s{seg}", order, characters=chars, actions=[(c, "wave") for c in chars[:1]])
        for i, ((seg, chars), order) in enumerate(zip(layout, orders))
    ]
    return util.corpus(panels, seg_event={f"s{seg}": f"ev{seg % 3}" for seg, _ in layout})


@settings(max_examples=100, deadline=None)
@given(corpus=_drawn_corpora())
def test_from_graph_gives_the_index_integrate_builds_on_drawn_corpora(corpus):
    # integrate indexes its units as it writes them and skips from_graph's
    # checks; from_graph must accept what it writes and index it alike.
    unified = integrate(corpus)
    assert ng.UnifiedGraph.from_graph(unified.graph).index == unified.index
    loaded = deserialize_graph(serialize_graph(unified.graph))
    assert ng.UnifiedGraph.from_graph(loaded).index == unified.index


@settings(max_examples=100, deadline=None)
@given(corpus=_drawn_corpora())
def test_character_nodes_follow_reading_order_on_drawn_corpora(corpus):
    # One character node per normalized label, in order of first appearance
    # in reading order, labelled with that first surface form (within a
    # panel, characters come before action agents); each mention refers to
    # the node of its own label.
    expected = {}
    for panel in sorted(corpus.panels, key=lambda p: p.reading_order):
        for label in [*panel.characters, *(action.agent for action in panel.actions)]:
            expected.setdefault(f"char:{normalize_token(label)}", label)
    g = integrate(corpus).graph
    characters = g.nodes_of_kind(NodeKind.CHARACTER)
    assert [(node, g.node_attrs(node)["label"]) for node in characters] == list(expected.items())
    for mention in g.nodes_of_kind(NodeKind.CHARACTER_MENTION):
        token = mention.rsplit("/char:", 1)[1]
        assert g.neighbors(mention, RelationKind.REFERS_TO, "out") == [f"char:{token}"]


def _generated(seed):
    return ng.generate(
        ng.GenParams(
            seed=seed,
            n_macro=1 + seed % 5,
            events_per_macro=(1, 2),
            segments_per_event=(1, 2),
            panels_per_segment=(1, 2),
        )
    )


def test_structural_invariants_on_generated_corpora():
    for seed in range(40):
        corpus = _generated(seed)
        u = integrate(corpus)
        g = u.graph
        for panel in g.nodes_of_kind(NodeKind.PANEL):
            assert len(g.neighbors(panel, RelationKind.INSTANTIATES, "out")) == 1
        for segment in g.nodes_of_kind(NodeKind.EVENT_SEGMENT):
            assert len(g.neighbors(segment, RelationKind.SUBEVENT_OF, "out")) == 1
        for event in g.nodes_of_kind(NodeKind.EVENT):
            assert len(g.neighbors(event, RelationKind.SUBEVENT_OF, "out")) == 1
        for mention in g.nodes_of_kind(NodeKind.CHARACTER_MENTION):
            assert len(g.neighbors(mention, RelationKind.REFERS_TO, "out")) == 1
        assert g.is_acyclic({RelationKind.PRECEDES})


def test_integrate_writes_only_edges_a_graph_file_may_hold(story):
    # Every edge integrate writes joins kinds its relation allows, and each
    # allowed pair is written somewhere, so the table holds nothing more.
    written = set()
    for corpus in [story, _interleaved()] + [_generated(seed) for seed in range(20)]:
        g = integrate(corpus).graph
        for src, rel, dst in g.edges():
            pair = (g.node_kind(src), g.node_kind(dst))
            assert pair in _ENDPOINTS[rel], (src, rel, dst)
            written.add((rel, pair))
    allowed = {
        (rel, pair)
        for rel, pairs in _ENDPOINTS.items()
        if rel is not RelationKind.FOLLOWS
        for pair in pairs
    }
    assert written == allowed
    assert _ENDPOINTS[RelationKind.FOLLOWS] == _ENDPOINTS[RelationKind.PRECEDES]


def test_tier_union_node_count_on_generated_corpora():
    # Panels are shared by their panel graph and the temporal tier; segments
    # by the temporal and event tiers. Character identity nodes exist only
    # in the unified graph, on top of the tier union.
    for seed in range(20):
        corpus = _generated(seed)
        tier_graphs = [build_panel_graph(p) for p in corpus.panels]
        tier_graphs.append(build_temporal_graph(corpus))
        tier_graphs.append(build_event_graph(corpus))
        tier_sum = sum(g.node_count for g in tier_graphs)
        n_characters = len(
            {normalize_token(c) for p in corpus.panels for c in p.characters}
        )
        expected = tier_sum - len(corpus.panels) - len(corpus.segments) + n_characters
        assert integrate(corpus).graph.node_count == expected


def test_integrate_is_deterministic():
    for seed in (0, 7):
        corpus = _generated(seed)
        text_a = serialize_graph(integrate(corpus).graph)
        text_b = serialize_graph(integrate(corpus).graph)
        assert text_a == text_b


def _pairwise_co_occurs(corpus):
    """The pairwise loop the sweep in build_event_graph replaced, kept as
    its reference: every pair of spanned events in list order."""
    segment_event = {s.id: s.event_id for s in corpus.segments}
    spans = {}
    for panel in corpus.panels:
        event_id = segment_event.get(panel.segment_id)
        if event_id is not None:
            lo, hi = spans.get(event_id, (panel.reading_order, panel.reading_order))
            spans[event_id] = (min(lo, panel.reading_order), max(hi, panel.reading_order))
    spanned = [e for e in corpus.events if e.id in spans]
    edges = []
    for i, a in enumerate(spanned):
        for b in spanned[i + 1 :]:
            a_lo, a_hi = spans[a.id]
            b_lo, b_hi = spans[b.id]
            if a_lo <= b_hi and b_lo <= a_hi:
                edges.append((event_node_id(a.id), RelationKind.CO_OCCURS, event_node_id(b.id)))
                edges.append((event_node_id(b.id), RelationKind.CO_OCCURS, event_node_id(a.id)))
    return list(dict.fromkeys(edges))


def _co_occurs_edges(corpus):
    return [e for e in build_event_graph(corpus).edges() if e[1] is RelationKind.CO_OCCURS]


def test_co_occurs_matches_pairwise_loop_on_seeded_corpora():
    for seed in range(30):
        corpus = ng.generate(
            ng.GenParams(
                seed=seed,
                n_macro=1 + seed % 4,
                events_per_macro=(1, 4),
                segments_per_event=(1, 3),
                panels_per_segment=(1, 3),
            )
        )
        assert _co_occurs_edges(corpus) == _pairwise_co_occurs(corpus)


def test_co_occurs_matches_pairwise_loop_on_nested_and_interleaved_spans():
    # (event, reading order) per panel, listed out of reading order so the
    # event list order differs from span-start order. Spans: e0 [0, 9]
    # holds e1 [1, 3], e2 [2, 5] and e4 [6, 6]; e2 interleaves e1; e3
    # [9, 12] touches e0 at 9; e5 [10, 10] sits inside e3; e6 [13, 13]
    # overlaps none. Six overlapping pairs.
    layout = [
        ("e2", 5), ("e0", 9), ("e3", 12), ("e1", 1), ("e0", 0), ("e4", 6),
        ("e2", 2), ("e1", 3), ("e5", 10), ("e3", 9), ("e6", 13),
    ]
    panels = [util.panel(f"p{i}", f"s_{event}", ro) for i, (event, ro) in enumerate(layout)]
    corpus = util.corpus(panels, seg_event={f"s_{e}": e for e, _ in layout})
    edges = _co_occurs_edges(corpus)
    assert edges == _pairwise_co_occurs(corpus)
    assert len(edges) == 2 * 6


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 15)), max_size=24))
def test_co_occurs_matches_pairwise_loop_on_random_spans(layout):
    panels = [util.panel(f"p{i}", f"s{seg}", ro) for i, (seg, ro) in enumerate(layout)]
    corpus = util.corpus(panels, seg_event={f"s{seg}": f"ev{seg % 5}" for seg, _ in layout})
    assert _co_occurs_edges(corpus) == _pairwise_co_occurs(corpus)


def _reference_integrate(corpus):
    """integrate as a merge of separately built tier graphs, the path the
    one-pass integrate replaced, indexed by ``UnifiedGraph.from_graph`` as
    it was then; returns the serialized graph and the index. Each tier is
    merged before the next is built, so errors come in the old order."""
    nodes, edges = {}, {}

    def merge(tier_graph):
        # A node both hold keeps its first position and gains the later
        # tier's attributes; a node id held with another kind raises.
        for node_id, kind, attrs in tier_graph.nodes():
            held, merged = nodes.setdefault(node_id, (kind, {}))
            if held is not kind:
                raise ng.DuplicateNodeError(
                    f"node {node_id!r} already exists with kind {held.value!r}, not {kind.value!r}"
                )
            merged.update(attrs)
        edges.update(dict.fromkeys(tier_graph.edges()))

    for panel in corpus.panels:
        merge(build_panel_graph(panel))
    merge(build_temporal_graph(corpus))
    merge(build_event_graph(corpus))
    unified = ng.NarrativeGraph(Tier.UNIFIED)
    for node_id, (kind, attrs) in nodes.items():
        unified.add_node(node_id, kind, attrs)
    for edge in edges:
        unified.add_edge(*edge)
    for panel in corpus.panels:
        unified.add_edge(
            panel_node_id(panel.panel_id), RelationKind.INSTANTIATES, segment_node_id(panel.segment_id)
        )
    for panel in sorted(corpus.panels, key=lambda p: p.reading_order):
        vnode = f"{panel_node_id(panel.panel_id)}/visual"
        for mention in unified.neighbors(vnode, RelationKind.HAS_CHARACTER, "out"):
            label = unified.node_attrs(mention)["label"]
            cnode = f"char:{normalize_token(label)}"
            if not unified.has_node(cnode):
                unified.add_node(cnode, NodeKind.CHARACTER, {"label": label})
            unified.add_edge(mention, RelationKind.REFERS_TO, cnode)
    assert unified.is_acyclic({RelationKind.PRECEDES})
    return serialize_graph(unified), ng.UnifiedGraph.from_graph(unified).index


def _integrated(corpus):
    unified = integrate(corpus)
    return serialize_graph(unified.graph), unified.index


def _outcome(build):
    try:
        return build()
    except ng.NarragraphError as exc:
        return type(exc), str(exc)


def test_integrate_matches_tier_merge_on_seeded_corpora(story):
    corpora = [story] + [_generated(seed) for seed in range(20)]
    corpora.append(ng.generate(ng.GenParams(seed=3)))
    for corpus in corpora:
        assert _integrated(corpus) == _reference_integrate(corpus)


def test_integrate_matches_tier_merge_on_unvalidated_corpora():
    rich = util.panel(
        "p0", "s0", 0,
        characters=("A", " a", "B"),
        objects=("Pot", "pot"),
        actions=[("C", "wave"), ("A", "hold", "B")],
        dialogues=[("d0", "hi", "Z")],
        captions=[("c0", "")],
        background="street",
    )
    # Agent and speaker not in the panel, repeated surface forms, repeated
    # reading orders, segments sharing an event: integrate builds these.
    # A macro-event and an event may share a label: the index keys units by kind.
    shared_label = util.corpus([util.panel("p0", "s0", 0)], macro_label="ev_s0")
    built = [
        util.corpus([rich, util.panel("p1", "s1", 0, characters=("a",)), util.panel("p2", "s0", 7)]),
        util.corpus([util.panel("p0", "s0", 0), util.panel("p1", "s1", 1)], seg_event={"s0": "x", "s1": "x"}),
        shared_label,
    ]
    two = util.corpus([util.panel("p0", "s0", 0), util.panel("p1", "s1", 1)])
    three = util.corpus([util.panel(f"p{i}", f"s{i}", i) for i in range(3)])
    relabel = dataclasses.replace
    same_event_labels = relabel(two, events=tuple(relabel(e, label="x") for e in two.events))
    same_macro_labels = relabel(two, macro_events=(two.macro_events[0], relabel(two.macro_events[0], id="m1")))
    # Each of these raises, with the same error in both paths. A repeated
    # label is reported at the second unit's node once every write has
    # succeeded, so a missing or repeated id is reported first.
    failing = [
        ("node 'panel:p0' already exists", util.corpus(
            [util.panel("p0", "s0", 0, characters=("A",)), util.panel("p0", "s1", 1, characters=("a",))]
        )),
        ("node 'panel:a/visual' already exists with kind 'panel_visual', not 'panel'", util.corpus(
            [util.panel("a", "s0", 0), util.panel("a/visual", "s0", 1)]
        )),
        ("node 'panel:a/char:x' already exists with kind 'panel', not 'character_mention'", util.corpus(
            [util.panel("a/char:x", "s0", 0), util.panel("a", "s0", 1, characters=("X",))]
        )),
        ("node 'seg:s0' already exists", relabel(two, segments=two.segments + two.segments[:1])),
        ("node 'macro:m0' already exists", relabel(two, macro_events=two.macro_events * 2)),
        ("node 'seg:s1' is not in the graph", relabel(two, segments=two.segments[:1])),
        # The only panel's segment names nothing, so no segment chain reaches
        # it first: the event tier skips the panel and its link raises.
        ("node 'seg:ghost' is not in the graph", relabel(two, panels=(util.panel("p0", "ghost", 0),))),
        ("nodes[10].attrs: duplicate event label 'x'", same_event_labels),
        ("nodes[9].attrs: duplicate macro_event label 'arc_0'", same_macro_labels),
        ("node 'event:e3' is not in the graph", relabel(
            same_event_labels, segments=(two.segments[0], relabel(two.segments[1], event_id="e3")))),
        ("node 'macro:m0' already exists", relabel(
            same_macro_labels, macro_events=same_macro_labels.macro_events + two.macro_events)),
        # Macro-events are written before events, so theirs is the first repeat.
        ("nodes[9].attrs: duplicate macro_event label 'arc_0'", relabel(
            same_macro_labels, events=same_event_labels.events)),
        ("nodes[14].attrs: duplicate event label 'x'", relabel(
            three, events=tuple(relabel(e, label="x") for e in three.events))),
    ]
    for corpus in built:
        assert _integrated(corpus) == _reference_integrate(corpus)
    assert set(integrate(shared_label).index) == {
        (NodeKind.MACRO_EVENT, "ev_s0"), (NodeKind.EVENT, "ev_s0")
    }
    for message, corpus in failing:
        outcome = _outcome(lambda: _integrated(corpus))
        assert outcome == _outcome(lambda: _reference_integrate(corpus))
        assert outcome[1] == message
