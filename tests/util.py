"""Compact factories shared by the test modules."""

import dataclasses

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


def verb_corpus(verbs):
    """One character doing one action per panel, ``verbs[i]`` in panel
    ``p{i}``, with every segment under event ``main`` of macro-event
    ``arc_main``."""
    panels = [
        panel(f"p{i}", f"s{i}", i, characters=("c",), actions=[("c", verb)])
        for i, verb in enumerate(verbs)
    ]
    seg_event = {f"s{i}": "main" for i in range(len(verbs))}
    return corpus(panels, seg_event=seg_event, macro_label="arc_main")


def with_panelless_units(base):
    """``base`` plus units that no panel instantiates: segment ``idle``
    under its first event, and segment ``empty`` under event ``empty
    event`` under macro-event ``empty arc``."""
    return dataclasses.replace(
        base,
        macro_events=base.macro_events + (MacroEvent(id="m_empty", label="empty arc", description=""),),
        events=base.events
        + (Event(id="e_empty", macro_event_id="m_empty", label="empty event", description=""),),
        segments=base.segments
        + (
            EventSegment(id="idle", event_id=base.events[0].id, description=""),
            EventSegment(id="empty", event_id="e_empty", description=""),
        ),
    )


def interleaved_story():
    """A valid story whose narrative order is not its list order.

    Macro-event ``m_late`` is listed before ``m_early``, and each lists its
    later event first: ``e_last`` (reading order 5) before ``e_follow`` (4),
    ``e_second`` before ``e_first``. The spans of ``e_first`` (reading
    orders 0 and 2) and ``e_second`` (1 and 3) overlap, so the two co-occur.
    Segments and panels are listed out of reading order too."""
    panels = (
        panel("p3", "s_second", 3, page=1, characters=("Ana", "Ben"),
              actions=[("Ben", "hand", "key")], dialogues=[("d3", "Take it.", "Ben")]),
        panel("p0", "s_first", 0, characters=("Ana",), objects=("door",),
              actions=[("Ana", "open", "door")], dialogues=[("d0", "Anyone home?", "Ana")],
              captions=[("c0", "Night.")], shot=ShotType.LONG_SHOT, background="porch"),
        panel("p5", "s_last", 5, page=1, characters=("Ben",),
              actions=[("Ben", "leave")], dialogues=[("d5", "Goodbye.", "Ben")]),
        panel("p1", "s_second", 1, characters=("Ben",),
              actions=[("Ben", "wave")], dialogues=[("d1", "Over here!", "Ben")]),
        panel("p2", "s_first_end", 2, characters=("Ana", "Ben"), objects=("key",),
              actions=[("Ana", "take", "key")], dialogues=[("d2", "Thanks.", "Ana")]),
        panel("p4", "s_follow", 4, page=1, characters=("Ana",),
              actions=[("Ana", "follow", "Ben")], dialogues=[("d4", "Wait for me!", "Ana")]),
    )
    return AnnotationCorpus(
        story_id="interleaved",
        macro_events=(
            MacroEvent(id="m_late", label="Leaving", description="They part."),
            MacroEvent(id="m_early", label="The key", description="A key changes hands."),
        ),
        events=(
            Event(id="e_last", macro_event_id="m_late", label="Farewell"),
            Event(id="e_second", macro_event_id="m_early", label="Ben calls"),
            Event(id="e_first", macro_event_id="m_early", label="Ana arrives"),
            Event(id="e_follow", macro_event_id="m_late", label="Ana follows"),
        ),
        segments=(
            EventSegment(id="s_last", event_id="e_last", description="Ben leaves."),
            EventSegment(id="s_second", event_id="e_second", description="Ben waves."),
            EventSegment(id="s_first_end", event_id="e_first", description="Ana takes the key."),
            EventSegment(id="s_first", event_id="e_first", description="Ana at the door."),
            EventSegment(id="s_follow", event_id="e_follow", description="Ana runs after Ben."),
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


def triples(items):
    """A flat record list of a graph file, ``[a, b, c, a, b, c, ...]``, as a
    list of its ``(a, b, c)`` records; a last, partial record is left out."""
    it = iter(items)
    return list(zip(it, it, it))


def node_index(doc, node_id):
    """The record number of node ``node_id`` in a graph document."""
    return [node[0] for node in triples(doc["nodes"])].index(node_id)


def node_link(doc):
    """A graph document in the node-link layout that files had before format
    2: one object per node and per edge, and no ``format``."""
    return {
        "tier": doc["tier"],
        "nodes": [{"id": i, "kind": kind, "attrs": attrs} for i, kind, attrs in triples(doc["nodes"])],
        "edges": [{"src": src, "rel": rel, "dst": dst} for src, rel, dst in triples(doc["edges"])],
    }


def break_contract(doc, kind, rel, edit):
    """Edit a graph document so that its first ``kind`` node has no ``rel``
    edge (``edit="missing"``) or a second one, to a new node of the same
    kind as the first target (``edit="second"``). Returns the node's record
    number and the reason ``UnifiedGraph.from_graph`` gives for it."""
    nodes = triples(doc["nodes"])
    i, node_id = next((i, node[0]) for i, node in enumerate(nodes) if node[1] == kind)
    j, edge = next((j, e) for j, e in enumerate(triples(doc["edges"])) if e[0] == node_id and e[1] == rel)
    if edit == "missing":
        del doc["edges"][3 * j : 3 * j + 3]
        count = 0
    else:
        target_kind = next(node[1] for node in nodes if node[0] == edge[2])
        doc["nodes"] += ["extra", target_kind, {"label": "extra"}]
        doc["edges"] += [node_id, rel, "extra"]
        count = 2
    return i, f"{kind} {node_id!r} has {count} {rel} edges, not 1"
