from collections import Counter

import pytest

import narragraph as ng
from narragraph import GenParams, generate, serialize_corpus, validate_corpus
from narragraph.fixtures import SplitMix64


def test_same_seed_same_corpus():
    params = GenParams(seed=42)
    assert serialize_corpus(generate(params)) == serialize_corpus(generate(params))


def test_different_seeds_differ():
    assert serialize_corpus(generate(GenParams(seed=1))) != serialize_corpus(
        generate(GenParams(seed=2))
    )


def test_minimal_params_single_panel():
    params = GenParams(
        seed=5,
        n_macro=1,
        events_per_macro=(1, 1),
        segments_per_event=(1, 1),
        panels_per_segment=(1, 1),
    )
    corpus = generate(params)
    assert len(corpus.panels) == 1
    assert len(corpus.macro_events) == len(corpus.events) == len(corpus.segments) == 1


def test_generated_corpora_are_valid():
    for seed in range(50):
        assert validate_corpus(generate(GenParams(seed=seed))).ok


def test_hierarchy_sizes_within_ranges():
    params = GenParams(
        seed=9,
        n_macro=3,
        events_per_macro=(1, 3),
        segments_per_event=(1, 2),
        panels_per_segment=(2, 3),
    )
    corpus = generate(params)
    assert len(corpus.macro_events) == 3
    events_per_macro = Counter(e.macro_event_id for e in corpus.events)
    assert all(1 <= n <= 3 for n in events_per_macro.values())
    segments_per_event = Counter(s.event_id for s in corpus.segments)
    assert all(1 <= n <= 2 for n in segments_per_event.values())
    panels_per_segment = Counter(p.segment_id for p in corpus.panels)
    assert all(2 <= n <= 3 for n in panels_per_segment.values())


def test_reading_order_is_generation_order():
    corpus = generate(GenParams(seed=13))
    assert [p.reading_order for p in corpus.panels] == list(range(len(corpus.panels)))


def test_duplicate_verbs_appear_across_seeds():
    # distribution sanity: the dedup code paths must actually be exercised
    hit = 0
    for seed in range(100):
        corpus = generate(GenParams(seed=seed))
        verbs = Counter(ng.normalize_token(a.verb) for p in corpus.panels for a in p.actions)
        if any(count >= 2 for count in verbs.values()):
            hit += 1
    assert hit >= 1


def test_splitmix64_reference_sequence():
    # splitmix64 of seed 1234567: published reference outputs
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_helpers_stay_in_bounds():
    rng = SplitMix64(99)
    values = [rng.randint(2, 5) for _ in range(200)]
    assert set(values) <= {2, 3, 4, 5}
    floats = [rng.random() for _ in range(200)]
    assert all(0.0 <= x < 1.0 for x in floats)
    assert sorted(rng.shuffled([1, 2, 3, 4])) == [1, 2, 3, 4]
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(5, 4)


def test_bundled_story_matches_checked_in_file(story):
    text = ng.bundled_story_text()
    assert ng.parse_corpus(text) == story
    assert ng.serialize_corpus(story) == text


def test_bundled_story_is_valid(story):
    assert validate_corpus(story).ok
    assert len(story.panels) == 9
