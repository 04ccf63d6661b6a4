"""DOT and induced-subgraph views of narrative graphs.

DOT output reproduces graph content, not any particular layout; rendering
is left to downstream Graphviz tooling. The graph stores no ``follows``
edges (they are the inverse view of ``precedes``), so DOT draws none.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .build import panel_id_of, segment_id_of
from .graph import NarrativeGraph, NodeKind

#: shape and fill per node kind; listed in the legend header.
_NODE_STYLE: dict[NodeKind, tuple[str, str]] = {
    NodeKind.PANEL: ("box", "#aed6f1"),
    NodeKind.PANEL_VISUAL: ("ellipse", "#d6eaf8"),
    NodeKind.PANEL_TEXTUAL: ("ellipse", "#fdebd0"),
    NodeKind.CHARACTER_MENTION: ("egg", "#f9e79f"),
    NodeKind.CHARACTER: ("house", "#f7dc6f"),
    NodeKind.ACTION: ("diamond", "#f5b7b1"),
    NodeKind.SCENE_OBJECT: ("trapezium", "#d2b4de"),
    NodeKind.DIALOGUE: ("note", "#d5f5e3"),
    NodeKind.DIALOGUE_CONTENT: ("parallelogram", "#eafaf1"),
    NodeKind.CAPTION: ("tab", "#fcf3cf"),
    NodeKind.EVENT_SEGMENT: ("folder", "#f5cba7"),
    NodeKind.EVENT: ("octagon", "#e59866"),
    NodeKind.MACRO_EVENT: ("doubleoctagon", "#dc7633"),
}


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _node_label(node_id: str, kind: NodeKind, attrs: dict[str, str]) -> str:
    if kind is NodeKind.PANEL:
        return panel_id_of(node_id)
    if kind is NodeKind.EVENT_SEGMENT:
        return segment_id_of(node_id)
    if kind in (NodeKind.EVENT, NodeKind.MACRO_EVENT, NodeKind.CHARACTER,
                NodeKind.CHARACTER_MENTION, NodeKind.SCENE_OBJECT):
        return attrs.get("label", node_id)
    if kind is NodeKind.ACTION:
        return attrs.get("verb", node_id)
    if kind is NodeKind.DIALOGUE_CONTENT:
        return attrs.get("text", node_id)
    if kind is NodeKind.PANEL_VISUAL:
        return "visual"
    if kind is NodeKind.PANEL_TEXTUAL:
        return "textual"
    return kind.value


def induced_subgraph(graph: NarrativeGraph, kinds: Iterable[NodeKind]) -> NarrativeGraph:
    """Subgraph on the nodes of the given kinds and the edges between them."""
    keep = set(kinds)
    sub = NarrativeGraph(graph.tier)
    for node_id, kind, attrs in graph.nodes():
        if kind in keep:
            sub.add_node(node_id, kind, dict(attrs))
    for src, rel, dst in graph.edges():
        if sub.has_node(src) and sub.has_node(dst):
            sub.add_edge(src, rel, dst)
    return sub


def to_dot(graph: NarrativeGraph, kinds: Optional[Iterable[NodeKind]] = None) -> str:
    """Graphviz DOT rendering of the graph, optionally restricted to the
    induced subgraph on ``kinds``. Statement order follows insertion order,
    so output is deterministic for a fixed input."""
    g = induced_subgraph(graph, kinds) if kinds is not None else graph
    lines = [
        f"// narrative graph export, tier={g.tier.value}",
        "// follows edges are implied inverses of precedes and are not drawn",
        "// legend:",
    ]
    for kind, (shape, color) in _NODE_STYLE.items():
        lines.append(f"//   kind={kind.value} shape={shape} fillcolor={color}")
    lines.append("digraph {")
    lines.append("  node [style=filled];")
    for node_id, kind, attrs in g.nodes():
        shape, color = _NODE_STYLE[kind]
        lines.append(
            f"  {_quote(node_id)} [label={_quote(_node_label(node_id, kind, attrs))}, "
            f"shape={shape}, fillcolor={_quote(color)}];"
        )
    for src, rel, dst in g.edges():
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(rel.value)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
