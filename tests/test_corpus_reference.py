"""The table-driven corpus parser against the per-field reference it replaced.

On the bundled story, seeded corpora and mutations of both, ``parse_corpus``
must return the corpus the reference returns, or raise the ``SchemaError``
the reference raises, at the same path with the same reason. The one new
error is a key repeated within one object, which the reference, reading
JSON as ``json.loads`` does, lets through with its last value. Every
corpus the parser accepts must also survive ``serialize_corpus`` and a
second parse unchanged.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narragraph as ng
from narragraph import SchemaError, parse_corpus

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
