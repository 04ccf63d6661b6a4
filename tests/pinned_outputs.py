"""Pinned sha256 digests of build and eval outputs, and the code that
recomputes them.

Each digest was recorded from the code before a refactor, so a change
that alters one output byte fails ``test_output_digests.py`` and
``scripts/check_output_digests.py``. A deliberate format change updates
the digests in the same commit. This module imports nothing outside the
standard library and the package, so that the script runs it under every
supported interpreter, with or without pytest.
"""

import hashlib

import narragraph as ng
from narragraph import (
    build_event_graph,
    build_panel_graph,
    build_temporal_graph,
    evaluate_all,
    integrate,
    serialize_graph,
    to_dot,
)

CORPORA = {
    "paper": ng.bundled_story,
    **{
        f"seed{seed}": (lambda seed=seed: ng.generate(ng.GenParams(seed=seed)))
        for seed in range(3)
    },
}


def build_outputs(corpus):
    """Each pinned build output of ``corpus`` by name; the panel tier is
    every panel graph's JSON, joined in corpus order."""
    temporal, event = build_temporal_graph(corpus), build_event_graph(corpus)
    return {
        "integrate": serialize_graph(integrate(corpus).graph),
        "panel": "".join(serialize_graph(build_panel_graph(p)) for p in corpus.panels),
        "temporal": serialize_graph(temporal),
        "event": serialize_graph(event),
        "temporal_dot": to_dot(temporal),
        "event_dot": to_dot(event),
    }


def eval_outputs(corpus):
    """The per-unit JSON report and the table of ``evaluate_all(integrate(c), c)``."""
    report = evaluate_all(integrate(corpus), corpus)
    return {"per_unit": report.to_json(per_unit=True), "table": report.to_table()}


def digests(outputs):
    """sha256 of each output's UTF-8 bytes, by name."""
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in outputs.items()}


#: Digests of ``build_outputs`` per corpus.
DIGESTS = {
    "paper": {
        "integrate": "09e5175a8b9d6f44f1faef5cf7ea9eae4a80dba759567ca2fb3d9dd541cadc51",
        "panel": "00692dbeb6c13d4becdaecb73fc17d7e7156895b06bd6ace940ce33b1492b17a",
        "temporal": "aacd87d58fcf23d7e8c4a6d20d9c4f2d4153499468abf8d7611e4f0c8c63d2e0",
        "event": "cccf84083edd1ac0be785e1841b989f262058ff1439c38abbc27b17b9b08d074",
        "temporal_dot": "2183c7aaab4ad6bdaa02e9da6c42a26f1e580e509c1427387049dc3cc894a79e",
        "event_dot": "a3ee3fb64300694cb920a69555f1183eeda5872d8f7308a2180ec44a8b595335",
    },
    "seed0": {
        "integrate": "360afd71f32116bf8d3d2c4cb34a3641a0305888d3b198ec11c4ad666563e27d",
        "panel": "542aaacf1d486009ddb840cee8b31d02bc9f0437f38f87dbb896a6b6e793751d",
        "temporal": "dc5584b888c4305e646a408a551b62ad1285e170d9f8e9563f2ea8476d5aa19c",
        "event": "a38bb19b39692819fd414dda8b521a5887cc8db9dfd1d03207905ba6f6f080a7",
        "temporal_dot": "99fe9dbbaefc3ad1f36c54ad1eb890a7e10af0383ba62d85596bcfffc67391b6",
        "event_dot": "9f1694fb4e3a10546966a4a43e6436cb701a2d0ab670db77d8e6a6637bbd158e",
    },
    "seed1": {
        "integrate": "d6f8ecb5b118f435233cc060f47e6cc662c1a37c06ce50fc36081cc79df941d8",
        "panel": "bc49b32eb33342192762cea833ad3570b2262c3799c71ea7e8e83b72d94bd7c0",
        "temporal": "3ba8c8796fda080658253c0848f6fb58402a732a1e6c7c78949e5498490885c8",
        "event": "bba43ca8419991775c159f0536fce166d6ef30b67325c13bf01041c03488ee10",
        "temporal_dot": "95d7bce7670be14eaab712ac5dab36ffc279d705c314e6e9671e567aa966312d",
        "event_dot": "537d65463efa8d9895b13944cca9c6a77b5f16357b18e042e6fedc821cc31f92",
    },
    "seed2": {
        "integrate": "84c26678693725314d7a31b153e77dbbf2065413a2c8fcb028c3035552663882",
        "panel": "09aabb670bd71b0f73056d486d911acce0384945ae989f149f6ee97a814d865c",
        "temporal": "64e609291499da4533f1883b8d39cd45bd782a7d687a706a14115b8e50b161dc",
        "event": "1d5125417e5139e90b3453eb522e4089a7e6a259434f8922f592235309b3d76a",
        "temporal_dot": "bc86297f7913254128d053755b6a30aa3d574ad6ae927f87435fa464479f489b",
        "event_dot": "1fd72ccc5bed9ac2720da299bdd8f2bb6cc618c4ea842c4d40302fc217697366",
    },
}


#: Digests of ``eval_outputs`` per corpus.
EVAL_DIGESTS = {
    "paper": {
        "per_unit": "0fbe2e99191d868bc9da300ebb5fb28182edb845e2efb3d1ef2d314161aeff5b",
        "table": "ee3fa93ad130547d2325379b73e6ecaa9ef66898cb060e0aca99126b28906328",
    },
    "seed0": {
        "per_unit": "23a8c083acb67c9368efe2b32c131207aa4a0abb596e12201701093473618361",
        "table": "ee3fa93ad130547d2325379b73e6ecaa9ef66898cb060e0aca99126b28906328",
    },
    "seed1": {
        "per_unit": "4afb758202c5ebd49ff7b5460025f47cc0b9b543140da20f4d8b18a61cb8eaaf",
        "table": "ee3fa93ad130547d2325379b73e6ecaa9ef66898cb060e0aca99126b28906328",
    },
    "seed2": {
        "per_unit": "8a4a2661d498bb2bd7295fd089ea603b802fec4ac8b120dc1295aed2fbf78635",
        "table": "ee3fa93ad130547d2325379b73e6ecaa9ef66898cb060e0aca99126b28906328",
    },
}
