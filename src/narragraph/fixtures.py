"""Deterministic synthetic corpora plus the bundled demo story.

Generation is driven by splitmix64, a tiny published 64-bit generator with
exactly defined semantics, so one seed always yields one corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .annotations import (
    ActionTriple,
    AnnotationCorpus,
    Event,
    EventSegment,
    MacroEvent,
    NarrativeRole,
    PanelAnnotation,
    ShotType,
    Utterance,
    parse_corpus,
)

_MASK64 = (1 << 64) - 1

_STORY_RESOURCE = "data/think_of_family.json"

_PHRASES = (
    "Hello there.",
    "Wait for me!",
    "It is already late.",
    "What do you mean?",
    "I will be right back.",
    "That smells wonderful.",
    "Do you remember this place?",
    "Let us go home.",
)

_CAPTION_PHRASES = (
    "Later that day.",
    "Meanwhile, across town.",
    "The next morning.",
    "Somewhere far away.",
)

_OBJECT_POOL = ("letter", "pot", "door", "lantern")

_SHOT_TYPES = tuple(ShotType)

_VERBS = ("hold_hand", "look_at_letter", "cook_rice", "walk_away", "open_door", "wave")

_N_CHARACTERS = 4
_ACTION_PROB = 0.7
_DIALOGUE_PROB = 0.6


class SplitMix64:
    """splitmix64 sequence for a 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, low: int, high: int) -> int:
        """Uniform-ish integer in [low, high], both ends inclusive."""
        if high < low:
            raise ValueError("empty range")
        return low + self.next_u64() % (high - low + 1)

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffled(self, seq) -> list:
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint(0, i)
            out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class GenParams:
    """Knobs for :func:`generate`; ranges are inclusive (low, high) pairs."""

    seed: int
    n_macro: int = 2
    events_per_macro: tuple[int, int] = (1, 3)
    segments_per_event: tuple[int, int] = (1, 2)
    panels_per_segment: tuple[int, int] = (1, 3)


def _random_panel(
    rng: SplitMix64,
    segment_id: str,
    reading_order: int,
    character_pool: list[str],
) -> PanelAnnotation:
    panel_id = f"g{reading_order:03d}"
    n_chars = rng.randint(0, min(3, len(character_pool)))
    characters = tuple(rng.shuffled(character_pool)[:n_chars])
    objects = tuple(rng.shuffled(_OBJECT_POOL)[: rng.randint(0, 2)])

    actions = []
    if characters and rng.random() < _ACTION_PROB:
        for _ in range(rng.randint(1, 2)):
            obj = rng.choice(objects + (None,)) if objects else None
            actions.append(
                ActionTriple(
                    agent=rng.choice(characters),
                    verb=rng.choice(_VERBS),
                    object=obj,
                )
            )

    dialogues = []
    if rng.random() < _DIALOGUE_PROB:
        for i in range(rng.randint(1, 2)):
            speaker = rng.choice(characters + (None,)) if characters else None
            dialogues.append(
                Utterance(
                    id=f"{panel_id}_d{i}",
                    text=rng.choice(_PHRASES),
                    speaker=speaker,
                )
            )

    captions = []
    if rng.random() < _DIALOGUE_PROB / 2:
        captions.append(
            Utterance(
                id=f"{panel_id}_c0",
                text=rng.choice(_CAPTION_PHRASES),
            )
        )

    return PanelAnnotation(
        panel_id=panel_id,
        segment_id=segment_id,
        page_index=reading_order // 4,
        reading_order=reading_order,
        shot_type=rng.choice(_SHOT_TYPES),
        characters=characters,
        objects=objects,
        actions=tuple(actions),
        dialogues=tuple(dialogues),
        captions=tuple(captions),
    )


def generate(params: GenParams) -> AnnotationCorpus:
    """Build a valid synthetic corpus; the same params give identical output."""
    rng = SplitMix64(params.seed)
    character_pool = [f"char_{i}" for i in range(_N_CHARACTERS)]
    roles = (None,) + tuple(NarrativeRole)

    macros: list[MacroEvent] = []
    events: list[Event] = []
    segments: list[EventSegment] = []
    panels: list[PanelAnnotation] = []
    reading_order = 0

    for mi in range(params.n_macro):
        macro = MacroEvent(id=f"m{mi}", label=f"arc_{mi}", description=f"story arc {mi}")
        macros.append(macro)
        for _ in range(rng.randint(*params.events_per_macro)):
            ei = len(events)
            events.append(
                Event(
                    id=f"e{ei}",
                    macro_event_id=macro.id,
                    label=f"scene_{ei}",
                    description=f"scene {ei}",
                )
            )
            for _ in range(rng.randint(*params.segments_per_event)):
                si = len(segments)
                segments.append(
                    EventSegment(
                        id=f"s{si}",
                        event_id=f"e{ei}",
                        narrative_role=rng.choice(roles),
                        description=f"beat {si}",
                    )
                )
                for _ in range(rng.randint(*params.panels_per_segment)):
                    panels.append(
                        _random_panel(rng, f"s{si}", reading_order, character_pool)
                    )
                    reading_order += 1

    return AnnotationCorpus(
        story_id=f"synthetic_{params.seed}",
        macro_events=tuple(macros),
        events=tuple(events),
        segments=tuple(segments),
        panels=tuple(panels),
    )


def bundled_story_text() -> str:
    """Raw JSON text of the checked-in demo story."""
    return resources.files(__package__).joinpath(_STORY_RESOURCE).read_text(encoding="utf-8")


def bundled_story() -> AnnotationCorpus:
    """The demo story: one macro-event ("Think of family") over nine panels."""
    return parse_corpus(bundled_story_text())
