"""Seeded edits to a built graph file, each with the exact damage it does
to the ``eval --per-unit`` report.

An edit takes the corpus a graph was built from, the graph document (a
format 2 graph file read by ``json.loads``, its records flat lists of
three items each) and a ``random.Random``. It changes the
document in place and returns an :class:`Edit`: the change it makes to the
``(tp, fp, fn)`` counts of each unit it touches. Every other unit and every
other task keeps its counts. The prediction is read from the corpus alone,
never from the graph or the package's queries.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

from narragraph import AnnotationCorpus, PanelAnnotation, normalize_token, normalize_utterance

from util import triples


@dataclass(frozen=True)
class Edit:
    #: (task, unit label) -> change in (tp, fp, fn) for that unit.
    damage: dict[tuple[str, str], tuple[int, int, int]]
    #: A ``--synonyms`` map under which the edit does no damage, if any.
    synonyms: Optional[dict[str, str]] = None


def macro_panels(corpus: AnnotationCorpus) -> dict[str, list[PanelAnnotation]]:
    """Each macro-event label mapped to its panels in reading order."""
    event_macro = {e.id: e.macro_event_id for e in corpus.events}
    segment_macro = {s.id: event_macro[s.event_id] for s in corpus.segments}
    labels = {m.id: m.label for m in corpus.macro_events}
    panels: dict[str, list[PanelAnnotation]] = {m.label: [] for m in corpus.macro_events}
    for panel in sorted(corpus.panels, key=lambda p: p.reading_order):
        panels[labels[segment_macro[panel.segment_id]]].append(panel)
    return panels


def _flat(records: list[tuple]) -> list:
    return [item for record in records for item in record]


def _attrs(doc: dict, node_id: str) -> dict:
    return next(attrs for i, _, attrs in triples(doc["nodes"]) if i == node_id)


def _drop(doc: dict, node_ids: set[str], edges: int) -> None:
    """Remove the nodes ``node_ids`` and their ``edges`` edges from ``doc``."""
    nodes, all_edges = triples(doc["nodes"]), triples(doc["edges"])
    kept_nodes = [node for node in nodes if node[0] not in node_ids]
    kept = [edge for edge in all_edges if not node_ids & {edge[0], edge[2]}]
    assert (len(nodes) - len(kept_nodes), len(all_edges) - len(kept)) == (len(node_ids), edges)
    doc["nodes"], doc["edges"] = _flat(kept_nodes), _flat(kept)


def _retarget(doc: dict, src: str, rel: str, dst: str) -> None:
    """Point the one ``rel`` edge from ``src`` at ``dst``."""
    (i,) = (i for i, edge in enumerate(triples(doc["edges"])) if edge[:2] == (src, rel))
    doc["edges"][3 * i + 2] = dst


def swap_reading_order(corpus: AnnotationCorpus, doc: dict, rng: random.Random) -> Edit:
    """Swap the ``reading_order`` of two neighbouring panels of one
    macro-event's timeline, neither of them its first or last.

    The timeline ``... a b c d ...`` reads ``... a c b d ...``: the three
    gold pairs (a, b), (b, c) and (c, d) are lost and three pairs that are
    not gold take their place."""
    timelines = {label: panels for label, panels in macro_panels(corpus).items() if len(panels) >= 4}
    label = rng.choice(list(timelines))
    panels = timelines[label]
    k = rng.randrange(1, len(panels) - 2)
    first, second = (_attrs(doc, f"panel:{p.panel_id}") for p in panels[k : k + 2])
    first["reading_order"], second["reading_order"] = second["reading_order"], first["reading_order"]
    return Edit(damage={("timeline", label): (-3, 3, 3)})


def _unique_verb(corpus: AnnotationCorpus, rng: random.Random) -> tuple[str, PanelAnnotation, int]:
    """One action whose normalized verb occurs once in its macro-event, as
    (macro-event label, panel, action index)."""
    candidates = []
    for label, panels in macro_panels(corpus).items():
        counts = Counter(normalize_token(a.verb) for p in panels for a in p.actions)
        candidates += [
            (label, panel, i)
            for panel in panels
            for i, action in enumerate(panel.actions)
            if counts[normalize_token(action.verb)] == 1
        ]
    return rng.choice(candidates)


def rename_verb(
    corpus: AnnotationCorpus, doc: dict, rng: random.Random, new_verb: str = "renamed_verb"
) -> Edit:
    """Rename one action whose normalized verb occurs once in its
    macro-event to ``new_verb``, which no action of the corpus uses.

    That macro-event's actions lose the old verb (one fn) and gain the new
    one (one fp). A synonym map from the new verb to the old undoes it."""
    assert new_verb == normalize_token(new_verb)
    assert all(normalize_token(a.verb) != new_verb for p in corpus.panels for a in p.actions)
    label, panel, i = _unique_verb(corpus, rng)
    _attrs(doc, f"panel:{panel.panel_id}/action:{i}")["verb"] = new_verb
    old_verb = normalize_token(panel.actions[i].verb)
    return Edit(damage={("actions", label): (-1, 1, 1)}, synonyms={new_verb: old_verb})


def retarget_mention(corpus: AnnotationCorpus, doc: dict, rng: random.Random) -> Edit:
    """Point one mention's ``refers_to`` at a character of the corpus that
    is not in the mention's panel.

    The characters task loses the pair (old character, panel) (one fn) and
    gains the pair (new character, panel) (one fp)."""
    characters = list(dict.fromkeys(normalize_token(c) for p in corpus.panels for c in p.characters))
    candidates = []
    for panel in corpus.panels:
        present = list(dict.fromkeys(normalize_token(c) for c in panel.characters))
        absent = [c for c in characters if c not in present]
        if absent:
            candidates += [(panel, token, absent) for token in present]
    panel, token, absent = rng.choice(candidates)
    _retarget(doc, f"panel:{panel.panel_id}/char:{token}", "refers_to", f"char:{rng.choice(absent)}")
    return Edit(damage={("characters", corpus.story_id): (-1, 1, 1)})


def drop_dialogue(corpus: AnnotationCorpus, doc: dict, rng: random.Random) -> Edit:
    """Remove one dialogue line whose normalized text occurs once in its
    event: its dialogue node, its content node and their two edges.

    That event's dialogue loses the line (one fn) and gains nothing."""
    event_labels = {e.id: e.label for e in corpus.events}
    segment_event = {s.id: event_labels[s.event_id] for s in corpus.segments}
    lines: dict[str, list[tuple[PanelAnnotation, int, str]]] = defaultdict(list)
    for panel in corpus.panels:
        for i, line in enumerate(panel.dialogues):
            lines[segment_event[panel.segment_id]].append((panel, i, normalize_utterance(line.text)))
    candidates = []
    for label, event_lines in lines.items():
        counts = Counter(text for _, _, text in event_lines)
        candidates += [(label, panel, i) for panel, i, text in event_lines if counts[text] == 1]
    label, panel, i = rng.choice(candidates)
    utterance = f"panel:{panel.panel_id}/dlg:{i}"
    _drop(doc, {utterance, f"{utterance}/text"}, edges=2)
    return Edit(damage={("dialogue", label): (-1, 0, 1)})


def drop_action(corpus: AnnotationCorpus, doc: dict, rng: random.Random) -> Edit:
    """Remove one action whose normalized verb occurs once in its
    macro-event: its action node and its ``has_action`` and ``agent_of``
    edges. The agent's mention stays, as it is among the panel's characters.

    That macro-event's actions lose the verb (one fn) and gain nothing."""
    label, panel, i = _unique_verb(corpus, rng)
    _drop(doc, {f"panel:{panel.panel_id}/action:{i}"}, edges=2)
    return Edit(damage={("actions", label): (-1, 0, 1)})


def move_panel(corpus: AnnotationCorpus, doc: dict, rng: random.Random) -> Edit:
    """Point the ``instantiates`` edge of one panel with dialogue at a
    segment of another event under the same macro-event.

    Per distinct normalized line of the panel's dialogue: the panel's event
    loses it (one fn) unless another of its panels has the line, and the
    other event gains it (one fp) unless one of its panels has it. The
    panel stays under its macro-event, so the actions, timeline and
    characters tasks keep their counts."""
    event_of = {s.id: s.event_id for s in corpus.segments}
    macro_of = {e.id: e.macro_event_id for e in corpus.events}
    candidates = [
        (panel, segment)
        for panel in corpus.panels
        if panel.dialogues
        for segment in corpus.segments
        if event_of[segment.id] != event_of[panel.segment_id]
        and macro_of[event_of[segment.id]] == macro_of[event_of[panel.segment_id]]
    ]
    assert candidates
    panel, segment = rng.choice(candidates)
    _retarget(doc, f"panel:{panel.panel_id}", "instantiates", f"seg:{segment.id}")

    def lines(event_id: str, moved: Optional[PanelAnnotation] = None) -> set[str]:
        """Normalized dialogue lines of the event's panels, less ``moved``."""
        return {
            normalize_utterance(d.text)
            for p in corpus.panels
            if event_of[p.segment_id] == event_id and p is not moved
            for d in p.dialogues
        }

    source, target = event_of[panel.segment_id], event_of[segment.id]
    moved = {normalize_utterance(d.text) for d in panel.dialogues}
    lost, gained = len(moved - lines(source, panel)), len(moved - lines(target))
    labels = {e.id: e.label for e in corpus.events}
    return Edit(
        damage={("dialogue", labels[source]): (-lost, 0, lost), ("dialogue", labels[target]): (0, gained, 0)}
    )
