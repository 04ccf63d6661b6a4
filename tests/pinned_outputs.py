"""Pinned sha256 digests of build and eval outputs and of the CLI's bytes,
and the code that recomputes them.

Each digest was recorded from the code before a refactor, so a change
that alters one output byte fails ``test_output_digests.py`` and
``scripts/check_output_digests.py``. A deliberate format change updates
the digests in the same commit. The CLI's generated corpora, graph file
and eval reports are checked against the same digests, so the
command-line path must write the library's bytes; its ``export`` and
``query`` output has digests of its own. This module imports nothing
outside the standard library, the package and the tests' ``util``
factories, so that the script runs it under every supported interpreter,
with or without pytest.
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

#: The ``gen-fixture`` arguments that write each story of ``CORPORA`` that
#: the CLI can generate.
GEN_FIXTURE = {"paper": ["--paper"], **{f"seed{seed}": ["--seed", str(seed)] for seed in range(3)}}


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


def cli_outputs(name):
    """The CLI's bytes for story ``name`` of ``CORPORA``, written to a
    temporary directory: the stdout of ``gen-fixture``, where it writes the
    story, the graph file of ``build`` and the stdout of ``eval --per-unit``
    and ``eval --table``, under the names of the library outputs they equal;
    then the stdout of the commands that read that graph file: ``export``
    whole and cut to the event hierarchy, and each ``query`` task on the
    corpus's first macro-event or event label."""
    corpus = CORPORA[name]()
    outputs = {"corpus": _run_cli(["gen-fixture", *GEN_FIXTURE[name]])} if name in GEN_FIXTURE else {}
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path, graph_path = os.path.join(tmp, "corpus.json"), os.path.join(tmp, "graph.json")
        with open(corpus_path, "w", encoding="utf-8") as handle:
            handle.write(serialize_corpus(corpus))
        _run_cli(["build", corpus_path, graph_path])
        with open(graph_path, "rb") as handle:
            outputs["integrate"] = handle.read().decode("utf-8")
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
        "integrate": "427e75c5d39b9c26aa86c8dfbe0b9d306ace19d03d5b4a41384142a50e1a16f4",
        "panel": "71c8e7ab920a53494e0c389e19fd2eaffec6f93f6d6783bb0c2de3a799c12f64",
        "temporal": "495fe637ee8a8a5fe0e9d8b8a6772bd15662aba65f3c830be49848140b0a939a",
        "event": "d507deeb51805376b0e7de42c6e1c78f9df6fe5d9e6839d824ace2819128f372",
        "temporal_dot": "2183c7aaab4ad6bdaa02e9da6c42a26f1e580e509c1427387049dc3cc894a79e",
        "event_dot": "a3ee3fb64300694cb920a69555f1183eeda5872d8f7308a2180ec44a8b595335",
    },
    "seed0": {
        "corpus": "46261c72a3245f4758f36b5a94b375b295abc69939b384ac47d6628bba3f84c6",
        "integrate": "cc6ae921d77fa80263b9981b194961f0eb2c0cc423bb8fe4b2ec7ad5e8576ee4",
        "panel": "8cc586b9900f005a4fa8fbad47d91da5cacd4f234c41d12520184f8e593323b8",
        "temporal": "b9c50ba69db1d8125e4230cdce34d004c3e42bb86be31b8b994fda6a00b3224d",
        "event": "796734013ed0bdb19887acfd5f8ac080c34435aa214b80ba2dedda97c1f7f33f",
        "temporal_dot": "99fe9dbbaefc3ad1f36c54ad1eb890a7e10af0383ba62d85596bcfffc67391b6",
        "event_dot": "9f1694fb4e3a10546966a4a43e6436cb701a2d0ab670db77d8e6a6637bbd158e",
    },
    "seed1": {
        "corpus": "f0c7639fedd64515e73b8494a10f112c9b7d9b17491fd7bb6172cf120a8589ce",
        "integrate": "370d201b6ca52729af51c7d3a8f123c5041419f219fa24c110bea8e0a1760d3b",
        "panel": "a64e93e5fbbb29acf241cefd63aaa8206b30ef099cfb9827d398e85a8eefa013",
        "temporal": "42ba3b91fea1a4a97be655f30d9d985395d6e560e36ddfe185d8512d5a561896",
        "event": "7cfbf90ef75cdc50c9c3e512e8285e321fad6ecc038718a3ed5a5e3e9b6de804",
        "temporal_dot": "95d7bce7670be14eaab712ac5dab36ffc279d705c314e6e9671e567aa966312d",
        "event_dot": "537d65463efa8d9895b13944cca9c6a77b5f16357b18e042e6fedc821cc31f92",
    },
    "seed2": {
        "corpus": "5406dd3278d135a1c6dda251c433f4a65850beda1721abd5c633716d2207c790",
        "integrate": "4011aad67bb05e3198b9692536ce5df46cfbcaf92c39f0c4242efb4cb04b675b",
        "panel": "06e5e9b980353da32b63051471084f2f9a60dd8ce4572e4eac39bc005b588dc5",
        "temporal": "4304238c1f9f0a01d5eb0d32cf7a3248278264d31ba6332f5abb05483f07ef13",
        "event": "123524d6537ebb697e8de356a5aef7eaa3de5f50031efa1322310b013832dadc",
        "temporal_dot": "bc86297f7913254128d053755b6a30aa3d574ad6ae927f87435fa464479f489b",
        "event_dot": "1fd72ccc5bed9ac2720da299bdd8f2bb6cc618c4ea842c4d40302fc217697366",
    },
    "interleaved": {
        "corpus": "6463231b2bf77f996b674f2af7454f2458d78a27789a3df11bfb924efea1022c",
        "integrate": "1c5d2f7b4a8ba703a41958bca0879eb1ae8ae627894c7f91db72a34948c4a8b4",
        "panel": "045fee2f0d237c0b88ea53add68c569ce3ec98512fb3e7a939ce681b0a75b400",
        "temporal": "fdd7a21cf09adb5bb1d99ef125b9f7c7c35ea54422fa2ea447f51d64a59d3ca9",
        "event": "324e2b8b25ca1448e3a6d6d090637c879d2bfbbee89b54b1f7ad14387f6041a5",
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
        "export_json_events": "a478af96fa1bae457f89e3e748f469836cbf139a1dc8067dd8d730ad183ebf39",
        "query_actions": "6196829f65d34fc788f9c4bcb189d375fa21c27af32985dbd7b56e9464f4148e",
        "query_dialogue": "65470e791a0d49db38dd58f29968f505c6bcfc6c04be5dd4012c8b5c4bb44479",
        "query_characters": "fb2f2990ff71c8cea6e08a9a629039f115f7150cc98b27f389cefae8ba7b22a7",
        "query_timeline": "01b126976a4e7ba902baea752b04a52b8e3704e57d0d50619f3b94ac7d3bc974",
    },
    "seed0": {
        "export_dot": "57596315e3ac0511277d123f19e842bf157e5494a26927119bd3d6e1af3b2802",
        "export_dot_events": "ca2edec3eb1234068bda1ddbd5fa8b99deb16f6f9adf566a72b031043e623fdc",
        "export_json_events": "9975f8368f6be9ce27b05098a69fa0ef00bb7f503722373d98c4d6e8be3407b3",
        "query_actions": "dba89f7e76e0f13e58bf020367108fca93af10c6002e6041c9671180e9afefe3",
        "query_dialogue": "00ba8b0f22825061f0e47339ce8e9395992aa20240df34722472a0a65692020e",
        "query_characters": "a5e32b4cb9efc76cc5685a6450da19d971a6e78a255d1687cde3cda9ddde43bc",
        "query_timeline": "bb45c9f3cefd68e4a83fc0ddc68e3d0768345dacb9b8d900472063eb76fc98ce",
    },
    "seed1": {
        "export_dot": "299498887de0a2528ca828ac69530e9ef34c2b991572789acbddb24eae594215",
        "export_dot_events": "f9d32aceec4ab200eeb6a639e7e4d8f12daa6216d97994ed2d3f8366fa5819cf",
        "export_json_events": "dc785615ea90ef80d4d15a22f07198a2bb2cd18da060e6bcc8ad4d1d8b031c35",
        "query_actions": "d4d285ecac5e810f020965453d03a421e055ad8337bf0735d915b2904ad23e2a",
        "query_dialogue": "28d497ac4f7c0aa33c66772074fe11eaeccbcdb8bb46923f46bc76a2588627dc",
        "query_characters": "8baaadd0b39e7fb873431da59bc1d2180b0721e9dc34f42fb38f189b5616347b",
        "query_timeline": "3c09318c4fa42da78f507ee0be5986edb7084ab1528ed8a7297e560e53174f10",
    },
    "seed2": {
        "export_dot": "7df33b3f6642dc408bf192f3fccf02c87107f7847c3419315ddc58263cae2e24",
        "export_dot_events": "f195d3b3593d6c8fb1384b764b4ae82cb342ede3d3e26f5ef490238435fc4e1c",
        "export_json_events": "b8e4cbb0ff3512de310fac848b533a1ff21f6039d904d24aa47a35ee56e208f0",
        "query_actions": "77da1a6cb66bd83b7a4094a7f4d401b09c8c5bcfee9c9295b604ec71a3994842",
        "query_dialogue": "00ba8b0f22825061f0e47339ce8e9395992aa20240df34722472a0a65692020e",
        "query_characters": "514bd268c6d8825614890356547597b765080377fea64f4ca13551fbc039b99d",
        "query_timeline": "d61bd820f15551f69f8507c62e965cb871a8ece83acdf94afe4e1fb88793850e",
    },
    "interleaved": {
        "export_dot": "b503fa2b04799b8b84ed9999b0563f9456f0b3357ac023bc88cbc8b69ce4e07f",
        "export_dot_events": "374b2b8d213b23f7264a90ab54fbccd6dc9940d219f33eff0a19f3335fe27052",
        "export_json_events": "e391513c9d302844a6d07e7b9f56df6955c2a746db725a177f3020fb3f550002",
        "query_actions": "ce2e43afb60661606adfcffac341c3d0795ff5c3d2799a268841bf3dc32f3277",
        "query_dialogue": "de13f36e983d778772b467b37357528158a1ad95c5918b5e9b8db2587bfdae0b",
        "query_characters": "97ed30014f665959ad647725a7680c57ab28d3dd99de4de5212b34fd8053d496",
        "query_timeline": "7f2699b7eedbda3b4cc6f95371041565ed9df296ed484fdf5e5c66a882b962e1",
    },
}


#: Digests of ``cli_outputs`` per corpus. ``gen-fixture``, ``build`` and
#: ``eval`` write the library's bytes, so theirs are taken from the two
#: tables above, not recorded again.
CLI_DIGESTS = {
    name: {
        **({"corpus": DIGESTS[name]["corpus"]} if name in GEN_FIXTURE else {}),
        "integrate": DIGESTS[name]["integrate"],
        "per_unit": EVAL_DIGESTS[name]["per_unit"],
        "table": EVAL_DIGESTS[name]["table"],
        **READ_DIGESTS[name],
    }
    for name in CORPORA
}
