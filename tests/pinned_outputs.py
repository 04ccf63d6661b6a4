"""Pinned sha256 digests of build and eval outputs and of the CLI's bytes,
and the code that recomputes them.

Each digest was recorded from the code before a refactor, so a change
that alters one output byte fails ``test_output_digests.py`` and
``scripts/check_output_digests.py``. A deliberate format change updates
the digests in the same commit. The CLI's graph file and eval reports are
checked against the same digests, so the command-line path must write the
library's bytes; its ``export`` and ``query`` output has digests of its
own. This module imports nothing outside the standard library, the
package and the tests' ``util`` factories, so that the script runs it
under every supported interpreter, with or without pytest.
"""

import hashlib
import io
import os
import tempfile
from contextlib import redirect_stdout

import narragraph as ng
from narragraph import (
    build_event_graph,
    build_panel_graph,
    build_temporal_graph,
    cli,
    evaluate_all,
    integrate,
    serialize_corpus,
    serialize_graph,
    to_dot,
)

import util

CORPORA = {
    "paper": ng.bundled_story,
    **{
        f"seed{seed}": (lambda seed=seed: ng.generate(ng.GenParams(seed=seed)))
        for seed in range(3)
    },
    "interleaved": util.interleaved_story,
}


def build_outputs(corpus):
    """Each pinned build output of ``corpus`` by name: the corpus document
    itself, and each graph; the panel tier is every panel graph's JSON,
    joined in corpus order."""
    temporal, event = build_temporal_graph(corpus), build_event_graph(corpus)
    return {
        "corpus": serialize_corpus(corpus),
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


#: The node kinds of the event hierarchy, as ``export --kinds`` takes them.
EVENT_KINDS = "event,macro_event,event_segment"


def cli_outputs(corpus):
    """The CLI's bytes for ``corpus`` written to a temporary directory: the
    graph file of ``build`` and the stdout of ``eval --per-unit`` and
    ``eval --table``, under the names of the library outputs they equal;
    then the stdout of the commands that read that graph file: ``export``
    whole and cut to the event hierarchy, and each ``query`` task on the
    corpus's first macro-event or event label."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path, graph_path = os.path.join(tmp, "corpus.json"), os.path.join(tmp, "graph.json")
        with open(corpus_path, "w", encoding="utf-8") as handle:
            handle.write(serialize_corpus(corpus))
        _run_cli(["build", corpus_path, graph_path])
        with open(graph_path, "rb") as handle:
            outputs = {"integrate": handle.read().decode("utf-8")}
        outputs["per_unit"] = _run_cli(["eval", corpus_path, "--per-unit"])
        outputs["table"] = _run_cli(["eval", corpus_path, "--table"])
        export = ["export", graph_path, "--format"]
        outputs["export_dot"] = _run_cli(export + ["dot"])
        outputs["export_dot_events"] = _run_cli(export + ["dot", "--kinds", EVENT_KINDS])
        outputs["export_json_events"] = _run_cli(export + ["json", "--kinds", EVENT_KINDS])
        macro, event = ["--unit", corpus.macro_events[0].label], ["--unit", corpus.events[0].label]
        for task, unit in (("actions", macro), ("dialogue", event), ("characters", []), ("timeline", macro)):
            outputs[f"query_{task}"] = _run_cli(["query", graph_path, task] + unit)
    return outputs


def _run_cli(argv):
    """Stdout of ``narragraph argv``, which must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"narragraph {' '.join(argv)} exited {code}")
    return out.getvalue()


def digests(outputs):
    """sha256 of each output's UTF-8 bytes, by name."""
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in outputs.items()}


#: Digests of ``build_outputs`` per corpus.
DIGESTS = {
    "paper": {
        "corpus": "0c2b2439fbfd85ec37641feb0784c9c15e33758afa8fe49cff7ad155603284fb",
        "integrate": "09e5175a8b9d6f44f1faef5cf7ea9eae4a80dba759567ca2fb3d9dd541cadc51",
        "panel": "00692dbeb6c13d4becdaecb73fc17d7e7156895b06bd6ace940ce33b1492b17a",
        "temporal": "aacd87d58fcf23d7e8c4a6d20d9c4f2d4153499468abf8d7611e4f0c8c63d2e0",
        "event": "cccf84083edd1ac0be785e1841b989f262058ff1439c38abbc27b17b9b08d074",
        "temporal_dot": "2183c7aaab4ad6bdaa02e9da6c42a26f1e580e509c1427387049dc3cc894a79e",
        "event_dot": "a3ee3fb64300694cb920a69555f1183eeda5872d8f7308a2180ec44a8b595335",
    },
    "seed0": {
        "corpus": "46261c72a3245f4758f36b5a94b375b295abc69939b384ac47d6628bba3f84c6",
        "integrate": "360afd71f32116bf8d3d2c4cb34a3641a0305888d3b198ec11c4ad666563e27d",
        "panel": "542aaacf1d486009ddb840cee8b31d02bc9f0437f38f87dbb896a6b6e793751d",
        "temporal": "dc5584b888c4305e646a408a551b62ad1285e170d9f8e9563f2ea8476d5aa19c",
        "event": "a38bb19b39692819fd414dda8b521a5887cc8db9dfd1d03207905ba6f6f080a7",
        "temporal_dot": "99fe9dbbaefc3ad1f36c54ad1eb890a7e10af0383ba62d85596bcfffc67391b6",
        "event_dot": "9f1694fb4e3a10546966a4a43e6436cb701a2d0ab670db77d8e6a6637bbd158e",
    },
    "seed1": {
        "corpus": "f0c7639fedd64515e73b8494a10f112c9b7d9b17491fd7bb6172cf120a8589ce",
        "integrate": "d6f8ecb5b118f435233cc060f47e6cc662c1a37c06ce50fc36081cc79df941d8",
        "panel": "bc49b32eb33342192762cea833ad3570b2262c3799c71ea7e8e83b72d94bd7c0",
        "temporal": "3ba8c8796fda080658253c0848f6fb58402a732a1e6c7c78949e5498490885c8",
        "event": "bba43ca8419991775c159f0536fce166d6ef30b67325c13bf01041c03488ee10",
        "temporal_dot": "95d7bce7670be14eaab712ac5dab36ffc279d705c314e6e9671e567aa966312d",
        "event_dot": "537d65463efa8d9895b13944cca9c6a77b5f16357b18e042e6fedc821cc31f92",
    },
    "seed2": {
        "corpus": "5406dd3278d135a1c6dda251c433f4a65850beda1721abd5c633716d2207c790",
        "integrate": "84c26678693725314d7a31b153e77dbbf2065413a2c8fcb028c3035552663882",
        "panel": "09aabb670bd71b0f73056d486d911acce0384945ae989f149f6ee97a814d865c",
        "temporal": "64e609291499da4533f1883b8d39cd45bd782a7d687a706a14115b8e50b161dc",
        "event": "1d5125417e5139e90b3453eb522e4089a7e6a259434f8922f592235309b3d76a",
        "temporal_dot": "bc86297f7913254128d053755b6a30aa3d574ad6ae927f87435fa464479f489b",
        "event_dot": "1fd72ccc5bed9ac2720da299bdd8f2bb6cc618c4ea842c4d40302fc217697366",
    },
    "interleaved": {
        "corpus": "6463231b2bf77f996b674f2af7454f2458d78a27789a3df11bfb924efea1022c",
        "integrate": "fb622ef744123b8bccfe450c9c6799348e47d4f0a99bfa073f29e26eece35b61",
        "panel": "84ee41f6fa6e5a698f02105434596620da3327aa5fcdae1fbb71bed9b2ac6f7d",
        "temporal": "972f8e64d9d1e72a6a7b6bc477a1e9e5f0dc6828e7999df8b4d2d5091d6aa655",
        "event": "08d4badc352830531bbdb0edde9d4741e9ef8e21abbf60445723a7f9246892d6",
        "temporal_dot": "9b36c9681084877412fa6b14901e38010dd5256d1696a01f112ff13f2ccf623b",
        "event_dot": "518c3e4bb5baf2cbc2d5653480729258db14cdfe3e77b469546efd6696ef6dde",
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
    "interleaved": {
        "per_unit": "10064593bb83ea0cc0aeed87518dab67563d3a00eef077700b5e33f94d25f854",
        "table": "ee3fa93ad130547d2325379b73e6ecaa9ef66898cb060e0aca99126b28906328",
    },
}


#: Digests of the read commands in ``cli_outputs`` per corpus, which no library
#: output equals: ``export`` and the four ``query`` tasks on the built graph file.
READ_DIGESTS = {
    "paper": {
        "export_dot": "052bf4a5a03c55a7c33f495d2897bccaf819b8f819a11622fcb6a9bcf5d03131",
        "export_dot_events": "d53e247cb8c8576e253ee671707d0bb5b5f479f2b45c944539cd55f8cb4acbc2",
        "export_json_events": "b5bae8025a30dc8f7b5c5cfcfa181ffe4ec1378985d618018ff9614903739b8a",
        "query_actions": "6196829f65d34fc788f9c4bcb189d375fa21c27af32985dbd7b56e9464f4148e",
        "query_dialogue": "65470e791a0d49db38dd58f29968f505c6bcfc6c04be5dd4012c8b5c4bb44479",
        "query_characters": "fb2f2990ff71c8cea6e08a9a629039f115f7150cc98b27f389cefae8ba7b22a7",
        "query_timeline": "01b126976a4e7ba902baea752b04a52b8e3704e57d0d50619f3b94ac7d3bc974",
    },
    "seed0": {
        "export_dot": "57596315e3ac0511277d123f19e842bf157e5494a26927119bd3d6e1af3b2802",
        "export_dot_events": "ca2edec3eb1234068bda1ddbd5fa8b99deb16f6f9adf566a72b031043e623fdc",
        "export_json_events": "2f949dfe4ccf4fd8dbdcc4eec7f9c50677ff6e52644e5d16f26f81e243c23c06",
        "query_actions": "dba89f7e76e0f13e58bf020367108fca93af10c6002e6041c9671180e9afefe3",
        "query_dialogue": "00ba8b0f22825061f0e47339ce8e9395992aa20240df34722472a0a65692020e",
        "query_characters": "a5e32b4cb9efc76cc5685a6450da19d971a6e78a255d1687cde3cda9ddde43bc",
        "query_timeline": "bb45c9f3cefd68e4a83fc0ddc68e3d0768345dacb9b8d900472063eb76fc98ce",
    },
    "seed1": {
        "export_dot": "299498887de0a2528ca828ac69530e9ef34c2b991572789acbddb24eae594215",
        "export_dot_events": "f9d32aceec4ab200eeb6a639e7e4d8f12daa6216d97994ed2d3f8366fa5819cf",
        "export_json_events": "7844cc49ed0bacfeebe8b59f5537e8173bf93948ef2320f707f50be94c52d876",
        "query_actions": "d4d285ecac5e810f020965453d03a421e055ad8337bf0735d915b2904ad23e2a",
        "query_dialogue": "28d497ac4f7c0aa33c66772074fe11eaeccbcdb8bb46923f46bc76a2588627dc",
        "query_characters": "8baaadd0b39e7fb873431da59bc1d2180b0721e9dc34f42fb38f189b5616347b",
        "query_timeline": "3c09318c4fa42da78f507ee0be5986edb7084ab1528ed8a7297e560e53174f10",
    },
    "seed2": {
        "export_dot": "7df33b3f6642dc408bf192f3fccf02c87107f7847c3419315ddc58263cae2e24",
        "export_dot_events": "f195d3b3593d6c8fb1384b764b4ae82cb342ede3d3e26f5ef490238435fc4e1c",
        "export_json_events": "031bb6544535a99a112e52478eec01f642e731bec2732defb2fef58704484cd2",
        "query_actions": "77da1a6cb66bd83b7a4094a7f4d401b09c8c5bcfee9c9295b604ec71a3994842",
        "query_dialogue": "00ba8b0f22825061f0e47339ce8e9395992aa20240df34722472a0a65692020e",
        "query_characters": "514bd268c6d8825614890356547597b765080377fea64f4ca13551fbc039b99d",
        "query_timeline": "d61bd820f15551f69f8507c62e965cb871a8ece83acdf94afe4e1fb88793850e",
    },
    "interleaved": {
        "export_dot": "b503fa2b04799b8b84ed9999b0563f9456f0b3357ac023bc88cbc8b69ce4e07f",
        "export_dot_events": "374b2b8d213b23f7264a90ab54fbccd6dc9940d219f33eff0a19f3335fe27052",
        "export_json_events": "26417e2b92b5d0100d09c02036f93387d53460b3a83faf9a07fd4b9f8d65e36b",
        "query_actions": "ce2e43afb60661606adfcffac341c3d0795ff5c3d2799a268841bf3dc32f3277",
        "query_dialogue": "de13f36e983d778772b467b37357528158a1ad95c5918b5e9b8db2587bfdae0b",
        "query_characters": "97ed30014f665959ad647725a7680c57ab28d3dd99de4de5212b34fd8053d496",
        "query_timeline": "7f2699b7eedbda3b4cc6f95371041565ed9df296ed484fdf5e5c66a882b962e1",
    },
}


#: Digests of ``cli_outputs`` per corpus. ``build`` and ``eval`` write the
#: library's bytes, so theirs are taken from the two tables above, not
#: recorded again.
CLI_DIGESTS = {
    name: {
        "integrate": DIGESTS[name]["integrate"],
        "per_unit": EVAL_DIGESTS[name]["per_unit"],
        "table": EVAL_DIGESTS[name]["table"],
        **READ_DIGESTS[name],
    }
    for name in CORPORA
}
