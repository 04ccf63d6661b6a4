"""The bulk graph loader against the per-record reference it replaced.

On the bundled story's graph, seeded graphs and mutations of all of them,
``deserialize_graph`` must build the graph the reference builds, or raise
the ``SchemaError`` the reference raises, at the same path with the same
reason.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narragraph as ng
from narragraph import NodeKind, RelationKind, SchemaError, deserialize_graph, serialize_graph

import reference_graph
from test_cli_robustness import GRAPH, mutated
from util import node_link, triples


def _seeded(seed):
    return json.loads(serialize_graph(ng.integrate(ng.generate(ng.GenParams(seed=seed))).graph))


BASES = {"paper": GRAPH, **{f"seed{seed}": _seeded(seed) for seed in range(10)}}


def _load(loader, text):
    try:
        return loader(text)
    except SchemaError as exc:
        return (exc.path, exc.reason)


def _assert_same_as_reference(text):
    expected = _load(reference_graph.deserialize_graph, text)
    got = _load(deserialize_graph, text)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, ng.NarrativeGraph), got
    assert got == expected
    assert serialize_graph(got) == serialize_graph(expected)
    for node_id, _, _ in expected.nodes():
        for rel in RelationKind:
            for direction in ("out", "in"):
                assert got.neighbors(node_id, rel, direction) == expected.neighbors(node_id, rel, direction)
    # Each node has its own attribute map, also when its record had none.
    assert len({id(attrs) for _, _, attrs in got.nodes()}) == got.node_count


@pytest.mark.parametrize("name", BASES)
def test_loader_matches_reference_on_base_graphs(name):
    text = json.dumps(BASES[name])
    assert isinstance(_load(deserialize_graph, text), ng.NarrativeGraph)
    _assert_same_as_reference(text)


def _as_follows(doc):
    """``doc`` with every ``precedes`` record written as its ``follows``
    inverse, as graph files held story order before ``precedes`` became the
    one order relation; also the number of the first such record."""
    doc = copy.deepcopy(doc)
    first = None
    edges = doc["edges"]
    for i, (src, rel, dst) in enumerate(triples(edges)):
        if rel == "precedes":
            edges[3 * i : 3 * i + 3] = [dst, "follows", src]
            first = i if first is None else first
    return doc, first


@pytest.mark.parametrize("name", BASES)
def test_loader_refuses_a_follows_record_as_the_reference_does(name):
    """Each base written with ``follows`` records: both loaders refuse the
    first of them at its ``rel``, past the valid records before it."""
    doc, first = _as_follows(BASES[name])
    text = json.dumps(doc)
    assert _load(deserialize_graph, text) == (f"edges[{first}].rel", "unknown relation 'follows'")
    _assert_same_as_reference(text)


@pytest.mark.parametrize("name", BASES)
def test_loader_refuses_a_node_link_file_as_the_reference_does(name):
    """Each base in the layout of the files written before format 2: both
    loaders refuse it at ``$``, before reading any record."""
    text = json.dumps(node_link(BASES[name]))
    reason = "not a format 2 graph file; narragraph build writes one from its corpus"
    assert _load(deserialize_graph, text) == ("$", reason)
    _assert_same_as_reference(text)


def test_records_without_attrs_get_their_own_map():
    nodes = ["a", "caption", {}, "b", "caption", {}]
    _assert_same_as_reference(json.dumps({"format": 2, "tier": "panel", "nodes": nodes, "edges": []}))


@settings(max_examples=300, deadline=None)
@given(doc=st.sampled_from(list(BASES.values())).flatmap(mutated))
def test_loader_matches_reference_on_mutated_graphs(doc):
    _assert_same_as_reference(json.dumps(doc))


DROP = object()

#: Values that are not a record, standing in for a whole node or edge record.
NOT_AN_OBJECT = [[], "x", 3, True, None]
#: Values the loader's table lookups cannot hash, or that a lookup keyed by
#: strings misses although they hash: lists and objects, booleans, floats.
NOT_A_KEY = [["p0"], {}, True, False, 1.5]

#: Values a node or edge field may take instead of its own, besides DROP
#: (the item taken out of its list), the id of an earlier node (a duplicate
#: id or another endpoint) and, for attrs, the record's own map with one
#: value changed or one key dropped.
FIELD_FAULTS = {
    "nodes": {
        "id": [None, 7] + NOT_A_KEY,
        "kind": [None, "blob", [], {}] + [kind.value for kind in NodeKind] + NOT_A_KEY,
        "attrs": [None, [], {}],
    },
    "edges": {
        "rel": [None, "blob", "follows", []] + [rel.value for rel in RelationKind] + NOT_A_KEY,
        "src": [None, 1, "ghost"] + NOT_A_KEY,
        "dst": [None, 1, "ghost"] + NOT_A_KEY,
    },
}
#: The position of each field within its record.
POSITION = {"id": 0, "kind": 1, "attrs": 2, "src": 0, "rel": 1, "dst": 2}


def _set_fields(items, i, values):
    """Set fields of record ``i`` of the flat list ``items`` to ``values``
    (field -> value), taking out each field whose value is DROP, last
    position first, so that each edit finds its item."""
    for field in sorted(values, key=POSITION.get, reverse=True):
        if values[field] is DROP:
            del items[3 * i + POSITION[field]]
        else:
            items[3 * i + POSITION[field]] = values[field]


@st.composite
def with_record_faults(draw, original):
    """``original`` with one to three fields of one node or edge record made
    faulty, so that the order of the checks shows, with a ``precedes``
    record added reversed, which closes a cycle, with one node or edge
    record replaced by one value, or with three items taken out at a place
    that is not a record's start, which shifts every later record."""
    doc = copy.deepcopy(original)
    key = draw(st.sampled_from(["nodes", "edges", "reverse", "record", "shift"]))
    if key == "reverse":
        src, rel, dst = draw(st.sampled_from([e for e in triples(doc["edges"]) if e[1] == "precedes"]))
        doc["edges"] += [dst, rel, src]
        return doc
    if key == "record":
        items = doc[draw(st.sampled_from(["nodes", "edges"]))]
        i = draw(st.integers(0, len(items) // 3 - 1))
        items[3 * i : 3 * i + 3] = [draw(st.sampled_from(NOT_AN_OBJECT))]
        return doc
    if key == "shift":
        items = doc[draw(st.sampled_from(["nodes", "edges"]))]
        start = 3 * draw(st.integers(0, len(items) // 3 - 2)) + draw(st.integers(1, 2))
        del items[start : start + 3]
        return doc
    items = doc[key]
    i = draw(st.integers(0, len(items) // 3 - 1))
    earlier = [node[0] for node in triples(doc["nodes"])[: i if key == "nodes" else None]]
    fields = st.sampled_from(sorted(FIELD_FAULTS[key]))
    values = {}
    for field in draw(st.lists(fields, min_size=1, max_size=3, unique=True)):
        options = [st.sampled_from(FIELD_FAULTS[key][field] + [DROP])]
        if field in ("id", "src", "dst") and earlier:
            options.append(st.sampled_from(earlier))
        attrs = items[3 * i + 2]
        if field == "attrs" and attrs:
            name = draw(st.sampled_from(sorted(attrs)))
            options.append(st.sampled_from([None, 1, "-1", "x"]).map(lambda v: {**attrs, name: v}))
            options.append(st.just({k: v for k, v in attrs.items() if k != name}))
        values[field] = draw(st.one_of(options))
    _set_fields(items, i, values)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=st.sampled_from(list(BASES.values())).flatmap(with_record_faults))
def test_loader_matches_reference_on_faulty_records(doc):
    _assert_same_as_reference(json.dumps(doc))


def _with_fault(key, i, field, value):
    doc = copy.deepcopy(GRAPH)
    if field is None:
        doc[key][3 * i : 3 * i + 3] = [value]
    else:
        _set_fields(doc[key], i, {field: value})
    return doc


def _fault_id(key, field, value):
    text = "missing" if value is DROP else json.dumps(value)
    return f"{key}[i]={text}" if field is None else f"{key}[i].{field}={text}"


#: Each fault of ``FIELD_FAULTS`` and each record replaced by one value,
#: once, by id.
EACH_FAULT = {
    _fault_id(*fault): fault
    for fault in [
        (key, field, value)
        for key, fields in FIELD_FAULTS.items()
        for field, values in fields.items()
        for value in values + [DROP]
    ]
    + [(key, None, value) for key in FIELD_FAULTS for value in NOT_AN_OBJECT]
}


@pytest.mark.parametrize("key, field, value", EACH_FAULT.values(), ids=EACH_FAULT)
def test_loader_matches_reference_on_each_fault_at_first_and_last_record(key, field, value):
    """Every fault of ``FIELD_FAULTS`` and every record replaced by one
    value, at the first and at the last record of its list."""
    for i in (0, len(GRAPH[key]) // 3 - 1):
        _assert_same_as_reference(json.dumps(_with_fault(key, i, field, value)))
