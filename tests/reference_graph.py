"""``deserialize_graph`` as it was before the bulk loader: each record is
checked on its own and inserted through the public ``add_node`` and
``add_edge``, which copy and check it again.

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


def deserialize_graph(text: str) -> NarrativeGraph:
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")

    tier_raw = doc.get("tier")
    if not isinstance(tier_raw, str):
        raise SchemaError("tier", "missing or non-string tier")
    try:
        tier = Tier(tier_raw)
    except ValueError:
        raise SchemaError("tier", f"unknown tier {tier_raw!r}") from None

    graph = NarrativeGraph(tier)

    nodes = doc.get("nodes")
    if not isinstance(nodes, list):
        raise SchemaError("nodes", "missing or non-list nodes")
    for i, entry in enumerate(nodes):
        path = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        node_id = entry.get("id")
        if not isinstance(node_id, str):
            raise SchemaError(f"{path}.id", "missing or non-string id")
        kind_raw = entry.get("kind")
        try:
            kind = NodeKind(kind_raw)
        except ValueError:
            raise SchemaError(f"{path}.kind", f"unknown node kind {kind_raw!r}") from None
        attrs = entry.get("attrs", {})
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

    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise SchemaError("edges", "missing or non-list edges")
    for i, entry in enumerate(edges):
        path = f"edges[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        rel_raw = entry.get("rel")
        try:
            rel = RelationKind(rel_raw)
        except ValueError:
            raise SchemaError(f"{path}.rel", f"unknown relation {rel_raw!r}") from None
        src, dst = entry.get("src"), entry.get("dst")
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
