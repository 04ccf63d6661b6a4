"""The table-driven corpus parser and the corpus writer against the
references they replaced.

On the bundled story, seeded corpora and mutations of both, ``parse_corpus``
must return the corpus the reference returns, or raise the ``SchemaError``
the reference raises, at the same path with the same reason. A key
repeated within one object is refused by both at ``$``, before any field
is read, so it is checked against the key itself, not the reference. Every
corpus the parser accepts must also survive ``serialize_corpus`` and a
second parse unchanged, and ``serialize_corpus`` must write the text the
``json.dumps`` reference writes: on those corpora and on two built by hand
that hold every optional field both None and set, every record list both
empty and not, and strings that the JSON encoder must escape.
"""

import copy
import dataclasses
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

from narragraph.annotations import _ENUMS, _NAT, _RECORDS, _STORY, _STR_LIST

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


def _first_records(obj, kind, path, found):
    """The path of the first record of each kind under ``obj``, a record of
    ``kind`` at ``path``, in file order, into ``found``."""
    found.setdefault(kind, path)
    for name, (form, arg) in zip(kind.names, kind.forms):
        if form is _RECORDS:
            for j, item in enumerate(obj[name]):
                _first_records(item, arg, (*path, name, j), found)
    return found


#: One JSON value of each type but null, by the forms it is right for.
VALUES = {"string": "x", "integer": 3, "float": 1.5, "bool": True, "list": [], "object": {}}
RIGHT = {_NAT: {"integer"}, _STR_LIST: {"list"}, _RECORDS: {"list"}}


def _faults():
    """(id, path to the record, field, fault) for every field of the first
    record of each kind in the bundled story: its key dropped, null, each
    JSON type its form does not take, -1 and true for an integer, and an
    unknown string for an enum."""
    cases = []
    for kind, path in _first_records(STORY, _STORY, (), {}).items():
        at = "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path).lstrip(".")
        for name, (form, _) in zip(kind.names, kind.forms):
            faults = {"dropped": KeyError, "null": None}
            right = RIGHT.get(form, {"string"})
            faults.update({type_name: value for type_name, value in VALUES.items() if type_name not in right})
            if form is _NAT:
                faults["minus_one"] = -1
            if form in _ENUMS:
                faults["unknown"] = "no_such_member"
            cases += [(f"{at}.{name}:{fault}".lstrip("."), path, name, value) for fault, value in faults.items()]
    return cases


FAULTS = _faults()


@pytest.mark.parametrize("path, name, value", [case[1:] for case in FAULTS], ids=[case[0] for case in FAULTS])
def test_each_field_fault_matches_reference(path, name, value):
    doc = copy.deepcopy(STORY)
    record = doc
    for step in path:
        record = record[step]
    if value is KeyError:
        record.pop(name, None)
    else:
        record[name] = value
    _assert_same_as_reference(json.dumps(doc))


def test_fault_cases_cover_every_field_of_every_kind():
    kinds = _first_records(STORY, _STORY, (), {})
    assert len(kinds) == 8  # the story, macro-event, event, segment, panel, action, dialogue, caption
    covered = {(path, name) for _, path, name, _ in FAULTS}
    assert covered == {(path, name) for kind, path in kinds.items() for name in kind.names}


def _records(corpus):
    """Every record of ``corpus``, the corpus first, then depth first."""
    out = [corpus]
    for field in dataclasses.fields(corpus):
        value = getattr(corpus, field.name)
        if isinstance(value, tuple):
            for item in value:
                if dataclasses.is_dataclass(item):
                    out += _records(item)
    return out


@pytest.mark.parametrize("name", BASES)
def test_parsed_records_are_the_records_their_constructors_build(name):
    """A parsed record is frozen, equal and hash-equal to the record its
    class's constructor builds from its fields, and holds its fields in
    dataclass field order."""
    for record in _records(parse_corpus(json.dumps(BASES[name]))):
        names = [field.name for field in dataclasses.fields(record)]
        built = type(record)(*(getattr(record, field) for field in names))
        assert record == built and hash(record) == hash(built)
        assert list(vars(record)) == list(vars(built)) == names
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, names[0], getattr(record, names[0]))
