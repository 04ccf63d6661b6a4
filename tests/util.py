"""Compact factories shared by the test modules."""

from narragraph import (
    ActionTriple,
    AnnotationCorpus,
    Event,
    EventSegment,
    MacroEvent,
    PanelAnnotation,
    ShotType,
    Utterance,
    cli,
)


def panel(
    pid,
    seg,
    ro,
    *,
    page=0,
    shot=ShotType.MEDIUM_SHOT,
    characters=(),
    objects=(),
    actions=(),
    dialogues=(),
    captions=(),
    **extra,
):
    """Panel factory: actions as (agent, verb[, object]) tuples, dialogues
    and captions as (id, text[, speaker]) tuples."""
    return PanelAnnotation(
        panel_id=pid,
        segment_id=seg,
        page_index=page,
        reading_order=ro,
        shot_type=shot,
        characters=tuple(characters),
        objects=tuple(objects),
        actions=tuple(
            ActionTriple(a[0], a[1], a[2] if len(a) > 2 else None) for a in actions
        ),
        dialogues=tuple(
            Utterance(
                id=d[0],
                text=d[1],
                speaker=d[2] if len(d) > 2 else None,
            )
            for d in dialogues
        ),
        captions=tuple(
            Utterance(id=c[0], text=c[1]) for c in captions
        ),
        **extra,
    )


def corpus(panels, *, seg_event=None, story_id="t", macro_label="arc_0"):
    """Single-macro corpus with hierarchy inferred from the panels.

    Each distinct segment id becomes one segment; ``seg_event`` maps
    segment id to event label to group segments, otherwise every segment
    gets its own event labelled ``ev_<segment>``.
    """
    panels = tuple(panels)
    seg_event = seg_event or {}
    seg_ids = list(dict.fromkeys(p.segment_id for p in panels))
    event_labels = list(dict.fromkeys(seg_event.get(s, f"ev_{s}") for s in seg_ids))
    return AnnotationCorpus(
        story_id=story_id,
        macro_events=(MacroEvent(id="m0", label=macro_label, description=""),),
        events=tuple(
            Event(id=f"e_{label}", macro_event_id="m0", label=label, description="")
            for label in event_labels
        ),
        segments=tuple(
            EventSegment(
                id=s, event_id=f"e_{seg_event.get(s, f'ev_{s}')}", description=""
            )
            for s in seg_ids
        ),
        panels=panels,
    )


def run_cli(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: (node kind, relation) of every edge the queries follow to exactly one
#: target, as ``UnifiedGraph.from_graph`` requires.
ONE_TARGET_PAIRS = [
    ("panel", "has_visual"),
    ("panel", "has_textual"),
    ("panel", "instantiates"),
    ("event_segment", "subevent_of"),
    ("event", "subevent_of"),
    ("character_mention", "refers_to"),
]


def break_contract(doc, kind, rel, edit):
    """Edit a graph document so that its first ``kind`` node has no ``rel``
    edge (``edit="missing"``) or a second one, to a new node of the same
    kind as the first target (``edit="second"``). Returns the node's record
    index and the reason ``UnifiedGraph.from_graph`` gives for it."""
    i, node_id = next((i, n["id"]) for i, n in enumerate(doc["nodes"]) if n["kind"] == kind)
    edge = next(e for e in doc["edges"] if e["src"] == node_id and e["rel"] == rel)
    if edit == "missing":
        doc["edges"].remove(edge)
        count = 0
    else:
        target_kind = next(n["kind"] for n in doc["nodes"] if n["id"] == edge["dst"])
        doc["nodes"].append({"id": "extra", "kind": target_kind, "attrs": {"label": "extra"}})
        doc["edges"].append({"src": node_id, "rel": rel, "dst": "extra"})
        count = 2
    return i, f"{kind} {node_id!r} has {count} {rel} edges, not 1"
