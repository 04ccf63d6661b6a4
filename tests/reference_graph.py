"""``deserialize_graph`` as it was before the bulk loader: each record is
checked on its own and inserted through the public ``add_node`` and
``add_edge``, which copy and check it again. It reads graph file format 2,
each record list by its item positions.

It is kept only as the reference the bulk loader is checked against
(``test_graph_reference.py``): the same graph for every file it accepts,
and the same ``SchemaError`` path and reason for every file it rejects.
"""

from narragraph import (
    DuplicateNodeError,
    NarrativeGraph,
    NodeKind,
    RelationKind,
    SchemaError,
    Tier,
)
from narragraph.errors import parse_json
from narragraph.graph import _ENDPOINTS, _REQUIRED_ATTRS


def _record_list(doc, key):
    items = doc.get(key)
    if not isinstance(items, list):
        raise SchemaError(key, f"missing or non-list {key}")
    if len(items) % 3 != 0:
        raise SchemaError(key, f"{len(items)} items do not make whole records of 3")
    return items


def deserialize_graph(text: str) -> NarrativeGraph:
    doc = parse_json(text, unique_keys=True)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")
    if not (type(doc.get("format")) is int and doc["format"] == 2):
        raise SchemaError("$", "not a format 2 graph file; narragraph build writes one from its corpus")
    for key in doc:
        if key not in ("format", "tier", "nodes", "edges"):
            raise SchemaError(key, "unknown key; a graph file holds format, tier, nodes and edges")

    tier_raw = doc.get("tier")
    if not isinstance(tier_raw, str):
        raise SchemaError("tier", "missing or non-string tier")
    try:
        tier = Tier(tier_raw)
    except ValueError:
        raise SchemaError("tier", f"unknown tier {tier_raw!r}") from None

    graph = NarrativeGraph(tier)

    nodes = _record_list(doc, "nodes")
    for i in range(len(nodes) // 3):
        path = f"nodes[{i}]"
        node_id, kind_raw, attrs = nodes[3 * i], nodes[3 * i + 1], nodes[3 * i + 2]
        if not isinstance(node_id, str):
            raise SchemaError(f"{path}.id", "missing or non-string id")
        try:
            kind = NodeKind(kind_raw)
        except ValueError:
            raise SchemaError(f"{path}.kind", f"unknown node kind {kind_raw!r}") from None
        if not isinstance(attrs, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in attrs.items()
        ):
            raise SchemaError(f"{path}.attrs", "attrs must map strings to strings")
        for key, form in _REQUIRED_ATTRS.get(kind, {}).items():
            if key not in attrs:
                raise SchemaError(f"{path}.attrs", f"{kind.value} node lacks attribute {key!r}")
            if form is not None and not form[0](attrs[key]):
                raise SchemaError(f"{path}.attrs", f"{key} must be {form[1]}, got {attrs[key]!r}")
        try:
            graph.add_node(node_id, kind, attrs)
        except DuplicateNodeError:
            raise SchemaError(f"{path}.id", f"duplicate node id {node_id!r}") from None

    edges = _record_list(doc, "edges")
    for i in range(len(edges) // 3):
        path = f"edges[{i}]"
        src, rel_raw, dst = edges[3 * i], edges[3 * i + 1], edges[3 * i + 2]
        try:
            rel = RelationKind(rel_raw)
        except ValueError:
            raise SchemaError(f"{path}.rel", f"unknown relation {rel_raw!r}") from None
        for key, endpoint in (("src", src), ("dst", dst)):
            if not isinstance(endpoint, str):
                raise SchemaError(f"{path}.{key}", "missing or non-string node id")
            if not graph.has_node(endpoint):
                raise SchemaError(f"{path}.{key}", f"edge references unknown node {endpoint!r}")
        src_kind, dst_kind = graph.node_kind(src), graph.node_kind(dst)
        if (src_kind, dst_kind) not in _ENDPOINTS[rel]:
            raise SchemaError(path, f"{rel.value} cannot join {src_kind.value} to {dst_kind.value}")
        graph.add_edge(src, rel, dst)

    if not graph.is_acyclic():
        raise SchemaError("edges", "precedes edges form a cycle")
    return graph
