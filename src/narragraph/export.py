"""DOT and induced-subgraph views of narrative graphs.

DOT output reproduces graph content, not any particular layout; rendering
is left to downstream Graphviz tooling. Story order is drawn as the one
relation the graph stores for it, ``precedes``; the header's note on its
inverse is kept word for word, so that exports stay byte-identical.
"""

from __future__ import annotations

from typing import Iterable

from .build import panel_id_of, segment_id_of
from .graph import NarrativeGraph, NodeKind, RelationKind

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
    # Ids and labels almost never hold a character to escape.
    if "\\" in text or '"' in text or "\n" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


#: The fixed part of each kind's node statement, and each relation's quoted label.
_NODE_TAIL = {kind: f"shape={shape}, fillcolor={_quote(color)}];" for kind, (shape, color) in _NODE_STYLE.items()}
_EDGE_TAIL = {rel: f" [label={_quote(rel.value)}];" for rel in RelationKind}


#: The attribute that labels a node of each kind, the id standing in when
#: it is absent; panels and segments show their id, other kinds fixed text.
_LABEL_ATTR = {
    NodeKind.EVENT: "label",
    NodeKind.MACRO_EVENT: "label",
    NodeKind.CHARACTER: "label",
    NodeKind.CHARACTER_MENTION: "label",
    NodeKind.SCENE_OBJECT: "label",
    NodeKind.ACTION: "verb",
    NodeKind.DIALOGUE_CONTENT: "text",
}
_FIXED_LABEL = {
    NodeKind.PANEL_VISUAL: "visual",
    NodeKind.PANEL_TEXTUAL: "textual",
    NodeKind.DIALOGUE: NodeKind.DIALOGUE.value,
    NodeKind.CAPTION: NodeKind.CAPTION.value,
}
_PANEL, _SEGMENT = NodeKind.PANEL, NodeKind.EVENT_SEGMENT


def _node_label(node_id: str, kind: NodeKind, attrs: dict[str, str]) -> str:
    key = _LABEL_ATTR.get(kind)
    if key is not None:
        return attrs.get(key, node_id)
    if kind is _PANEL:
        return panel_id_of(node_id)
    if kind is _SEGMENT:
        return segment_id_of(node_id)
    return _FIXED_LABEL[kind]


def induced_subgraph(graph: NarrativeGraph, kinds: Iterable[NodeKind]) -> NarrativeGraph:
    """Subgraph on the nodes of the given kinds and the edges between them."""
    keep = set(kinds)
    sub = NarrativeGraph(graph.tier)
    for node_id, kind, attrs in graph.nodes():
        if kind in keep:
            sub.add_node(node_id, kind, attrs)
    for src, rel, dst in graph.edges():
        if sub.has_node(src) and sub.has_node(dst):
            sub.add_edge(src, rel, dst)
    return sub


def to_dot(graph: NarrativeGraph) -> str:
    """Graphviz DOT rendering of exactly ``graph``, statements in insertion
    order, so output is deterministic for a fixed input."""
    lines = [
        f"// narrative graph export, tier={graph.tier.value}",
        "// follows edges are implied inverses of precedes and are not drawn",
        "// legend:",
    ]
    for kind, (shape, color) in _NODE_STYLE.items():
        lines.append(f"//   kind={kind.value} shape={shape} fillcolor={color}")
    lines.append("digraph {")
    lines.append("  node [style=filled];")
    for node_id, kind, attrs in graph.nodes():
        label = _quote(_node_label(node_id, kind, attrs))
        lines.append(f"  {_quote(node_id)} [label={label}, {_NODE_TAIL[kind]}")
    for src, rel, dst in graph.edges():
        lines.append(f"  {_quote(src)} -> {_quote(dst)}{_EDGE_TAIL[rel]}")
    lines.append("}")
    return "\n".join(lines) + "\n"
