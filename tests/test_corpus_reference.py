"""The table-driven corpus parser and the corpus writer against the
references they replaced.

On the bundled story, seeded corpora and mutations of both, ``parse_corpus``
must return the corpus the reference returns, or raise the ``SchemaError``
the reference raises, at the same path with the same reason. The one new
error is a key repeated within one object, which the reference, reading
JSON as ``json.loads`` does, lets through with its last value. Every
corpus the parser accepts must also survive ``serialize_corpus`` and a
second parse unchanged, and ``serialize_corpus`` must write the text the
``json.dumps`` reference writes: on those corpora and on two built by hand
that hold every optional field both None and set, every record list both
empty and not, and strings that the JSON encoder must escape.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narragraph as ng
from narragraph import (
    ActionTriple,
    AnnotationCorpus,
    Event,
    EventSegment,
    MacroEvent,
    NarrativeRole,
    PanelAnnotation,
    SchemaError,
    ShotType,
    Utterance,
    parse_corpus,
)

import reference_corpus
from test_cli_robustness import STORY, mutated


def _seeded(seed):
    params = ng.GenParams(seed=seed, n_macro=1 + seed % 3, panels_per_segment=(1, 3))
    return json.loads(ng.serialize_corpus(ng.generate(params)))


BASES = {"paper": STORY, **{f"seed{seed}": _seeded(seed) for seed in range(8)}}


def _parse(parser, text):
    try:
        return parser(text)
    except SchemaError as exc:
        return (exc.path, exc.reason)


def _repeated_key(text):
    """The first key repeated within one object of ``text``, else None."""
    repeats = []

    def pairs_hook(pairs):
        keys = [key for key, _ in pairs]
        repeats.extend(key for i, key in enumerate(keys) if key in keys[:i])
        return dict(pairs)

    json.loads(text, object_pairs_hook=pairs_hook)
    return repeats[0] if repeats else None


def _assert_same_as_reference(text):
    got = _parse(parse_corpus, text)
    key = _repeated_key(text)
    if key is not None:
        assert got == ("$", f"repeated key {key!r} in one object")
        return
    expected = _parse(reference_corpus.parse_corpus, text)
    assert got == expected
    if not isinstance(expected, tuple):
        assert ng.serialize_corpus(got) == ng.serialize_corpus(expected)
        assert ng.serialize_corpus(got) == reference_corpus.serialize_corpus(got)
        assert parse_corpus(ng.serialize_corpus(got)) == got


@pytest.mark.parametrize("name", BASES)
def test_parser_matches_reference_on_base_corpora(name):
    text = json.dumps(BASES[name])
    assert isinstance(_parse(parse_corpus, text), ng.AnnotationCorpus)
    _assert_same_as_reference(text)


@settings(max_examples=400, deadline=None)
@given(doc=st.sampled_from(list(BASES.values())).flatmap(mutated))
def test_parser_matches_reference_on_mutated_corpora(doc):
    _assert_same_as_reference(json.dumps(doc))


#: Strings the encoder must escape or pass through as they are: a quote, a
#: backslash, control characters, non-ASCII text and lone surrogates.
ODD = ('say "hi"', "back\\slash", "\x00\x01\x1f\x7f\n\t\r\b\f", "Ça va, 日本, \U0001f600", "\ud800", "x\udfffy")


def _hand_built():
    """A corpus with every optional field both None and set, every record
    list empty and not, and the strings of ``ODD`` in every kind of field."""
    panels = (
        PanelAnnotation(
            panel_id=ODD[0], segment_id=ODD[1], page_index=0, reading_order=0, shot_type=ShotType.NONE,
        ),
        PanelAnnotation(
            panel_id="p1",
            segment_id="s1",
            page_index=12,
            reading_order=1,
            shot_type=ShotType.CLOSE_SHOT,
            image_path=ODD[4],
            characters=ODD,
            background=ODD[2],
            objects=(ODD[3],),
            actions=(ActionTriple(ODD[0], ODD[5]), ActionTriple("b", "wave", ODD[3])),
            dialogues=(Utterance("d0", ODD[2]), Utterance("d1", ODD[3], speaker=ODD[1])),
            captions=(Utterance("c0", ODD[5]),),
            event_description=ODD[3],
        ),
    )
    return AnnotationCorpus(
        story_id=ODD[2],
        macro_events=(MacroEvent("m0", ODD[3]), MacroEvent("m1", "arc", ODD[4])),
        events=(Event("e0", "m0", ODD[0]), Event("e1", "m1", "beat", ODD[1])),
        segments=(
            EventSegment("s0", "e0"),
            *(EventSegment(f"s{i}", "e1", role, ODD[i % len(ODD)]) for i, role in enumerate(NarrativeRole, 1)),
        ),
        panels=panels,
    )


@pytest.mark.parametrize("corpus", [AnnotationCorpus(story_id=""), _hand_built()], ids=["empty", "hand_built"])
def test_writer_matches_reference_on_hand_built_corpora(corpus):
    text = ng.serialize_corpus(corpus)
    assert text == reference_corpus.serialize_corpus(corpus)
    assert parse_corpus(text) == corpus
