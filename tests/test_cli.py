import dataclasses
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import narragraph as ng
from narragraph import cli

import util
from util import run_cli


@pytest.fixture()
def story_file(tmp_path):
    path = tmp_path / "story.json"
    path.write_text(ng.bundled_story_text(), encoding="utf-8")
    return str(path)


@pytest.fixture()
def graph_file(tmp_path, story_file, capsys):
    out = str(tmp_path / "graph.json")
    code, _, err = run_cli(["build", story_file, out], capsys)
    assert code == 0, err
    return out


def test_validate_clean_story(story_file, capsys):
    code, out, _ = run_cli(["validate", story_file], capsys)
    assert code == 0
    assert out == ""


def test_validate_dangling_reference(tmp_path, capsys):
    doc = json.loads(ng.bundled_story_text())
    doc["panels"][0]["segment_id"] = "ghost"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert len((out + err).strip().splitlines()) == 1
    assert "ghost" in out + err


def test_validate_violations_listed(tmp_path, capsys):
    corpus = util.corpus([util.panel("a", "s0", 3), util.panel("b", "s0", 3)])
    path = tmp_path / "dup.json"
    path.write_text(ng.serialize_corpus(corpus), encoding="utf-8")
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "not a permutation" in out


def test_validate_lists_dangling_reference_with_other_violations(tmp_path, capsys):
    doc = json.loads(ng.bundled_story_text())
    doc["panels"][0]["segment_id"] = "ghost"
    doc["panels"][1]["reading_order"] = doc["panels"][2]["reading_order"]
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    expected = (
        "error at panels[0].segment_id: unknown segment id 'ghost'\n"
        "error at panels: reading_order not a permutation of 0..N-1\n"
    )
    code, out, err = run_cli(["validate", str(src)], capsys)
    assert (code, out, err) == (1, expected, "")

    dest = tmp_path / "should_not_exist.json"
    code, out, err = run_cli(["build", str(src), str(dest)], capsys)
    assert (code, out, err) == (1, "", expected)
    assert not dest.exists()


def test_validate_non_json_file(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("definitely: not json", encoding="utf-8")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "JSON" in err


def test_panel_id_with_slash_is_a_violation(tmp_path, capsys):
    # The panel's node "panel:0_0_1/visual" is also panel 0_0_1's visual hub.
    doc = json.loads(ng.bundled_story_text())
    doc["panels"].append({**doc["panels"][1], "panel_id": "0_0_1/visual", "reading_order": 9})
    src = tmp_path / "slash.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    expected = "error at panels[9].panel_id: panel id '0_0_1/visual' contains '/'\n"
    assert run_cli(["validate", str(src)], capsys) == (1, expected, "")
    dest = tmp_path / "graph.json"
    assert run_cli(["build", str(src), str(dest)], capsys) == (1, "", expected)
    assert not dest.exists()
    assert run_cli(["eval", str(src)], capsys) == (1, "", expected)


_UNDECODABLE = {
    "too_many_digits": ("[" + "1" * 4301 + "]").encode(),
    "too_deep": b"[" * 200_000,
    "not_utf8": b"\xff{}",
}


@pytest.mark.parametrize("name", list(_UNDECODABLE))
def test_undecodable_input_exits_2(tmp_path, story_file, graph_file, capsys, name):
    bad = str(tmp_path / f"{name}.json")
    with open(bad, "wb") as handle:
        handle.write(_UNDECODABLE[name])
    not_json = f"{bad}: schema error: $: not valid JSON: "
    cases = [
        (["validate", bad], not_json),
        (["build", bad, str(tmp_path / "g.json")], not_json),
        (["eval", bad], not_json),
        (["query", bad, "timeline", "--unit", "Think of family"], not_json),
        (["export", bad, "--format", "dot"], not_json),
        (["eval", story_file, "--graph", bad], not_json),
        (["eval", story_file, "--graph", graph_file, "--synonyms", bad], f"{bad}: $: not valid JSON: "),
    ]
    for argv, prefix in cases:
        if name == "not_utf8":
            prefix = f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 0"
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith(prefix) and err.count("\n") == 1, (argv, err[:200])


def test_lone_surrogate_exits_2_and_writes_nothing(tmp_path, story_file, graph_file, capsys):
    # json.dumps writes the lone surrogates as the escapes \ud800 and \udfff:
    # json.loads accepts them, but no UTF-8 output can hold them.
    story = json.loads(ng.bundled_story_text())
    story["macro_events"][0]["description"] = "lone \ud800"
    graph = json.loads(Path(graph_file).read_text(encoding="utf-8"))
    graph["nodes"][2]["lone \udfff"] = "x"  # the first node's attrs
    bad_story, bad_graph, bad_synonyms = (tmp_path / f"{name}.json" for name in ("s", "g", "syn"))
    bad_story.write_text(json.dumps(story), encoding="utf-8")
    bad_graph.write_text(json.dumps(graph), encoding="utf-8")
    bad_synonyms.write_text(json.dumps({"insert_into": "\ud800"}), encoding="utf-8")
    out = tmp_path / "out.json"
    out.write_text("kept", encoding="utf-8")
    s, g, syn = str(bad_story), str(bad_graph), str(bad_synonyms)
    story_err = f"{s}: schema error: $: not valid JSON: lone surrogate '\\ud800' in a string\n"
    graph_err = f"{g}: schema error: $: not valid JSON: lone surrogate '\\udfff' in a string\n"
    cases = [
        (["validate", s], story_err),
        (["build", s, str(out)], story_err),
        (["eval", s], story_err),
        (["eval", story_file, "--graph", g], graph_err),
        (["query", g, "characters"], graph_err),
        (["export", g, "--format", "dot"], graph_err),
        (
            ["eval", story_file, "--graph", graph_file, "--synonyms", syn],
            f"{syn}: $: not valid JSON: lone surrogate '\\ud800' in a string\n",
        ),
    ]
    for argv, err in cases:
        assert run_cli(argv, capsys) == (2, "", err), argv
    assert out.read_text(encoding="utf-8") == "kept"


def test_repeated_key_exits_2_naming_the_key(tmp_path, story_file, graph_file, capsys):
    # json.loads keeps the last of two equal keys: the story below used to
    # validate and score under the label "Other arc", and the synonym map
    # to use the last target.
    story = ng.bundled_story_text()
    first = '"label": "Think of family"'
    assert story.count(first) == 1
    bad_story = tmp_path / "repeated.json"
    bad_story.write_text(story.replace(first, first + ', "label": "Other arc"'), encoding="utf-8")
    bad_synonyms = tmp_path / "syn.json"
    bad_synonyms.write_text('{"insert_into": "insert", "insert_into": "put"}', encoding="utf-8")
    s, syn, out_path = str(bad_story), str(bad_synonyms), tmp_path / "g.json"
    in_story = f"{s}: schema error: $: repeated key 'label' in one object\n"
    cases = [
        (["validate", s], in_story),
        (["build", s, str(out_path)], in_story),
        (["eval", s], in_story),
        (["eval", s, "--graph", graph_file], in_story),
        (["eval", story_file, "--synonyms", syn], f"{syn}: $: repeated key 'insert_into' in one object\n"),
    ]
    for argv, err in cases:
        assert run_cli(argv, capsys) == (2, "", err), argv
    assert not out_path.exists()


#: (original, replacement, path, reason) of a graph file edit the loader
#: refuses before it reads a record.
GRAPH_KEY_FAULTS = {
    "repeated_top_key": (
        '"tier": "unified"', '"tier": "panel", "tier": "unified"', "$", "repeated key 'tier' in one object"
    ),
    "repeated_attr_key": (
        '{"label": "Think of family"',
        '{"label": "Other arc", "label": "Think of family"',
        "$",
        "repeated key 'label' in one object",
    ),
    "unknown_top_key": (
        '"tier": "unified"',
        '"tier": "unified",\n  "links": []',
        "links",
        "unknown key; a graph file holds format, tier, nodes and edges",
    ),
}


@pytest.mark.parametrize("original, replacement, path, reason", GRAPH_KEY_FAULTS.values(), ids=GRAPH_KEY_FAULTS)
def test_graph_file_with_a_repeated_or_unknown_key_exits_2(
    graph_file, story_file, capsys, original, replacement, path, reason
):
    # json.loads keeps the last of two equal keys, and the loader used to
    # skip a key it does not read: each file lost a value silently.
    text = Path(graph_file).read_text(encoding="utf-8")
    assert text.count(original) == 1
    Path(graph_file).write_text(text.replace(original, replacement), encoding="utf-8")
    expected = f"{graph_file}: schema error: {path}: {reason}\n"
    for argv in (
        ["query", graph_file, "timeline", "--unit", "Think of family"],
        ["export", graph_file, "--format", "json"],
        ["eval", story_file, "--graph", graph_file],
    ):
        assert run_cli(argv, capsys) == (2, "", expected), argv


def test_surrogate_pair_escape_still_loads(tmp_path, capsys):
    story = json.loads(ng.bundled_story_text())
    story["macro_events"][0]["description"] = "smile \U0001f600"
    src = tmp_path / "s.json"
    src.write_text(json.dumps(story), encoding="utf-8")
    assert "\\ud83d\\ude00" in src.read_text(encoding="utf-8")
    out = tmp_path / "g.json"
    assert run_cli(["build", str(src), str(out)], capsys) == (0, "", "")
    graph = ng.deserialize_graph(out.read_text(encoding="utf-8"))
    assert graph.node_attrs("macro:m1")["description"] == "smile \U0001f600"


def test_build_writes_graph_with_nine_panels(graph_file):
    graph = ng.deserialize_graph(Path(graph_file).read_text(encoding="utf-8"))
    assert len(graph.nodes_of_kind(ng.NodeKind.PANEL)) == 9


def test_build_empty_corpus(tmp_path, capsys):
    src = tmp_path / "empty.json"
    src.write_text(
        '{"story_id":"s","macro_events":[],"events":[],"segments":[],"panels":[]}',
        encoding="utf-8",
    )
    out = tmp_path / "g.json"
    code, _, _ = run_cli(["build", str(src), str(out)], capsys)
    assert code == 0
    graph = ng.deserialize_graph(out.read_text(encoding="utf-8"))
    assert graph.node_count == 0


def test_build_invalid_corpus_writes_nothing(tmp_path, capsys):
    corpus = util.corpus([util.panel("a", "s0", 5)])  # reading_order gap
    src = tmp_path / "bad.json"
    src.write_text(ng.serialize_corpus(corpus), encoding="utf-8")
    out = tmp_path / "should_not_exist.json"
    code, _, err = run_cli(["build", str(src), str(out)], capsys)
    assert code == 1
    assert not out.exists()
    assert "not a permutation" in err


def test_build_to_a_path_it_cannot_write_exits_2(tmp_path, story_file, capsys):
    out = tmp_path / "no_such_dir" / "graph.json"
    code, stdout, err = run_cli(["build", story_file, str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"cannot write {out}: ")
    assert not out.exists()


def _story_of(tmp_path, n_macro, **params):
    path = tmp_path / "story.json"
    path.write_text(ng.serialize_corpus(ng.generate(ng.GenParams(seed=1, n_macro=n_macro, **params))), encoding="utf-8")
    return path


def _traced_peak(run):
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_holds_less_than_its_output_on_top_of_the_graph(tmp_path):
    """``build`` writes the graph file in chunks, so its peak exceeds that of
    parsing and integrating the same text by less than the file's size. The
    ladder corpus at n_macro=48: about 1.5k panels and a 2.1 MB graph file
    (0.27 times the size on CPython 3.11); holding the whole text before
    writing it exceeded by 3.5 times the size."""
    src = _story_of(tmp_path, 48, events_per_macro=(3, 5), segments_per_event=(2, 3), panels_per_segment=(2, 4))
    out = tmp_path / "graph.json"
    text = src.read_text(encoding="utf-8")
    graph_peak = _traced_peak(lambda: ng.integrate(ng.parse_corpus(text)))
    build_peak = _traced_peak(lambda: cli.main(["build", str(src), str(out)]))
    size = out.stat().st_size
    assert size > 2_000_000
    assert build_peak - graph_peak < size


def test_load_holds_little_beyond_the_graph_it_returns():
    """``deserialize_graph`` frees the node list before its edge walk, so its
    traced peak is less than 1.2 times the bytes of the graph it returns.
    The ladder corpus at n_macro=32 (a 1.4 MB graph file) reads 1.12 on
    CPython 3.11; a loader that keeps the node list through the edge walk
    reads 1.30, and the node-link loader before format 2 read 1.58."""
    params = ng.GenParams(seed=1, n_macro=32, events_per_macro=(3, 5), segments_per_event=(2, 3), panels_per_segment=(2, 4))
    text = ng.serialize_graph(ng.integrate(ng.generate(params)).graph)
    gc.collect()
    tracemalloc.start()
    try:
        graph = ng.deserialize_graph(text)
        retained, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 1_000_000
    assert load_peak < 1.2 * retained


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_build_to_a_full_device_exits_2(tmp_path, capsys):
    """A write that fails midway through the chunks, or at close, is one
    message and exit 2, not a traceback."""
    src = _story_of(tmp_path, 100)
    assert run_cli(["build", str(src), "/dev/full"], capsys) == (
        2, "", "cannot write /dev/full: [Errno 28] No space left on device\n",
    )


def test_units_without_panels_through_the_cli(tmp_path, capsys):
    src = tmp_path / "story.json"
    src.write_text(ng.serialize_corpus(util.with_panelless_units(ng.bundled_story())), encoding="utf-8")
    graph = tmp_path / "graph.json"
    assert run_cli(["validate", str(src)], capsys) == (0, "", "")
    assert run_cli(["build", str(src), str(graph)], capsys) == (0, "", "")
    doc = json.loads(graph.read_text(encoding="utf-8"))
    attrs = {node_id: node_attrs for node_id, _, node_attrs in util.triples(doc["nodes"])}
    assert "first_reading_order" not in attrs["seg:idle"]
    assert "first_reading_order" not in attrs["seg:empty"]
    panelless = {"seg:idle", "seg:empty", "event:e_empty", "macro:m_empty"}
    assert not [
        (src, rel, dst) for src, rel, dst in util.triples(doc["edges"])
        if rel in ("precedes", "co_occurs") and {src, dst} & panelless
    ]
    for task, unit in (("actions", "empty arc"), ("timeline", "empty arc"), ("dialogue", "empty event")):
        code, out, _ = run_cli(["query", str(graph), task, "--unit", unit], capsys)
        assert code == 0
        assert json.loads(out)["items"] == []
    code, out, _ = run_cli(["eval", str(src), "--graph", str(graph), "--table"], capsys)
    assert code == 0
    assert [row.split()[-1] for row in out.splitlines()[2:]] == ["1.00"] * 4


def test_query_actions(graph_file, capsys):
    code, out, _ = run_cli(
        ["query", graph_file, "actions", "--unit", "Think of family"], capsys
    )
    assert code == 0
    assert json.loads(out)["items"] == [
        "hold_hand",
        "look_at_letter",
        "cook_rice",
        "walk_away",
    ]


def test_query_timeline_unknown_unit(graph_file, capsys):
    code, _, err = run_cli(["query", graph_file, "timeline", "--unit", "nope"], capsys)
    assert code == 1
    assert "unknown" in err.lower()


def test_query_graph_with_precedes_cycle(graph_file, capsys):
    doc = json.loads(Path(graph_file).read_text(encoding="utf-8"))
    doc["edges"] += ["panel:0_0_0", "precedes", "panel:0_0_0"]
    with open(graph_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    code, out, err = run_cli(["query", graph_file, "timeline", "--unit", "Think of family"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"{graph_file}: schema error: edges: precedes edges form a cycle\n"


def test_query_graph_with_a_follows_record_exits_2(graph_file, capsys):
    # precedes is the one order relation: a graph file written while
    # follows was stored is refused at the record's rel, in one line.
    doc = json.loads(Path(graph_file).read_text(encoding="utf-8"))
    i, (src, _, dst) = next((i, edge) for i, edge in enumerate(util.triples(doc["edges"])) if edge[1] == "precedes")
    doc["edges"][3 * i : 3 * i + 3] = [dst, "follows", src]
    with open(graph_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    expected = f"{graph_file}: schema error: edges[{i}].rel: unknown relation 'follows'\n"
    argv = ["query", graph_file, "timeline", "--unit", "Think of family"]
    assert run_cli(argv, capsys) == (2, "", expected)
    env = {**os.environ, "PYTHONPATH": SRC}
    script = subprocess.run([sys.executable, "-m", "narragraph.cli", *argv], capture_output=True, env=env)
    assert (script.returncode, script.stdout, script.stderr) == (2, b"", expected.encode("utf-8"))


def test_node_link_graph_file_exits_2_naming_build(graph_file, story_file, capsys):
    # Graph files written before format 2 held one object per record and no
    # "format"; they are refused before any record is read, in one line.
    doc = util.node_link(json.loads(Path(graph_file).read_text(encoding="utf-8")))
    Path(graph_file).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    expected = (
        f"{graph_file}: schema error: $: not a format 2 graph file; narragraph build writes one from its corpus\n"
    )
    for argv in (
        ["query", graph_file, "characters"],
        ["export", graph_file, "--format", "dot"],
        ["export", graph_file, "--format", "json"],
        ["eval", story_file, "--graph", graph_file],
    ):
        assert run_cli(argv, capsys) == (2, "", expected), argv
    env = {**os.environ, "PYTHONPATH": SRC}
    script = subprocess.run([sys.executable, "-m", "narragraph.cli", "query", graph_file, "characters"], capture_output=True, env=env)
    assert (script.returncode, script.stdout, script.stderr) == (2, b"", expected.encode("utf-8"))


def _set_attr(graph_file, node_id, key, value):
    """Rewrite one node attribute of a graph file (``None`` deletes it);
    returns the node's record number in the file."""
    with open(graph_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    index = util.node_index(doc, node_id)
    attrs = doc["nodes"][3 * index + 2]
    if value is None:
        del attrs[key]
    else:
        attrs[key] = value
    with open(graph_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return index


@pytest.mark.parametrize(
    "node_id, key, value, reason",
    [
        ("panel:0_0_1", "reading_order", None, "panel node lacks attribute 'reading_order'"),
        (
            "panel:0_0_1",
            "reading_order",
            "x",
            "reading_order must be a non-negative decimal integer, got 'x'",
        ),
        (
            "panel:0_0_1",
            "reading_order",
            "9" * 5000,
            f"reading_order must be a non-negative decimal integer, got '{'9' * 5000}'",
        ),
        ("panel:0_0_1/action:0", "verb", None, "action node lacks attribute 'verb'"),
        ("macro:m1", "label", None, "macro_event node lacks attribute 'label'"),
    ],
    ids=[
        "panel_without_reading_order",
        "non_integer_reading_order",
        "too_many_digits_for_int",
        "action_without_verb",
        "macro_event_without_label",
    ],
)
def test_graph_with_missing_or_bad_attr_exits_2(graph_file, story_file, capsys, node_id, key, value, reason):
    index = _set_attr(graph_file, node_id, key, value)
    expected = f"{graph_file}: schema error: nodes[{index}].attrs: {reason}\n"
    for argv in (
        ["query", graph_file, "timeline", "--unit", "Think of family"],
        ["query", graph_file, "actions", "--unit", "Think of family"],
        ["eval", story_file, "--graph", graph_file],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", expected), argv


def test_graph_with_action_edge_to_scene_object_exits_2(graph_file, story_file, capsys):
    with open(graph_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["edges"] += ["panel:0_0_0/visual", "has_action", "panel:0_0_1/obj:letter"]
    with open(graph_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    expected = (
        f"{graph_file}: schema error: edges[{len(doc['edges']) // 3 - 1}]: "
        "has_action cannot join panel_visual to scene_object\n"
    )
    for argv in (
        ["query", graph_file, "actions", "--unit", "Think of family"],
        ["eval", story_file, "--graph", graph_file],
    ):
        assert run_cli(argv, capsys) == (2, "", expected), argv


def _append_records(graph_file, nodes=(), edges=()):
    """Append node and edge records to a graph file."""
    with open(graph_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["nodes"] += [item for record in nodes for item in record]
    doc["edges"] += [item for record in edges for item in record]
    with open(graph_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _node_index(graph_file, node_id):
    with open(graph_file, encoding="utf-8") as handle:
        return util.node_index(json.load(handle), node_id)


@pytest.mark.parametrize(
    "nodes, edges, src, reason",
    [
        (
            [
                ("panel:0_0_0/visual2", "panel_visual", {}),
                ("panel:0_0_0/visual2/action:0", "action", {"verb": "jump"}),
            ],
            [
                ("panel:0_0_0", "has_visual", "panel:0_0_0/visual2"),
                ("panel:0_0_0/visual2", "has_action", "panel:0_0_0/visual2/action:0"),
            ],
            "panel:0_0_0",
            "panel 'panel:0_0_0' has 2 has_visual edges, not 1",
        ),
        (
            [("char:zed", "character", {"label": "Zed"})],
            [("panel:0_0_0/char:a", "refers_to", "char:zed")],
            "panel:0_0_0/char:a",
            "character_mention 'panel:0_0_0/char:a' has 2 refers_to edges, not 1",
        ),
    ],
    ids=["second_visual_hub", "second_identity"],
)
def test_graph_with_a_second_hub_or_identity_exits_2(
    graph_file, story_file, capsys, nodes, edges, src, reason
):
    # Loading such a graph used to drop the second hub or identity silently.
    _append_records(graph_file, nodes, edges)
    expected = f"{graph_file}: schema error: nodes[{_node_index(graph_file, src)}]: {reason}\n"
    for argv in (
        ["query", graph_file, "actions", "--unit", "Think of family"],
        ["query", graph_file, "characters"],
        ["eval", story_file, "--graph", graph_file],
    ):
        assert run_cli(argv, capsys) == (2, "", expected), argv
    # Export draws what the file holds, the second hub or identity too.
    code, out, _ = run_cli(["export", graph_file, "--format", "dot"], capsys)
    assert code == 0
    assert f'"{edges[0][0]}" -> "{edges[0][2]}"' in out


@pytest.mark.parametrize("edit", ["missing", "second"])
@pytest.mark.parametrize(
    "kind, rel", util.ONE_TARGET_PAIRS, ids=[f"{k}-{r}" for k, r in util.ONE_TARGET_PAIRS]
)
def test_graph_that_breaks_the_story_contract_exits_2(
    graph_file, story_file, capsys, kind, rel, edit
):
    # A missing link used to exit 0 with the node's panels or mentions left
    # out of the answer.
    with open(graph_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    index, reason = util.break_contract(doc, kind, rel, edit)
    with open(graph_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    expected = f"{graph_file}: schema error: nodes[{index}]: {reason}\n"
    for argv in (
        ["query", graph_file, "timeline", "--unit", "Think of family"],
        ["eval", story_file, "--graph", graph_file],
    ):
        assert run_cli(argv, capsys) == (2, "", expected), argv


def test_filtered_export_stays_a_readable_graph_file(graph_file, story_file, tmp_path, capsys):
    kinds = "panel,event_segment,event,macro_event"
    code, out, _ = run_cli(["export", graph_file, "--format", "json", "--kinds", kinds], capsys)
    assert code == 0
    sub = tmp_path / "sub.json"
    sub.write_text(out, encoding="utf-8")
    for fmt in ("dot", "json"):
        assert run_cli(["export", str(sub), "--format", fmt], capsys)[0] == 0, fmt
    # It holds no hubs, so the queries refuse it rather than answer nothing.
    reason = "panel 'panel:0_0_0' has 0 has_visual edges, not 1"
    expected = f"{sub}: schema error: nodes[0]: {reason}\n"
    for argv in (
        ["query", str(sub), "actions", "--unit", "Think of family"],
        ["eval", story_file, "--graph", str(sub)],
    ):
        assert run_cli(argv, capsys) == (2, "", expected), argv


def test_graph_with_a_repeated_unit_label_exits_2(tmp_path, capsys):
    # Loading such a graph used to answer arc_0 from only its first node and
    # leave arc_1 unknown.
    corpus = tmp_path / "story.json"
    corpus.write_text(ng.serialize_corpus(ng.generate(ng.GenParams(seed=0))), encoding="utf-8")
    graph_file = str(tmp_path / "graph.json")
    assert run_cli(["build", str(corpus), graph_file], capsys)[0] == 0
    index = _set_attr(graph_file, "macro:m1", "label", "arc_0")
    expected = (
        f"{graph_file}: schema error: nodes[{index}].attrs: duplicate macro_event label 'arc_0'\n"
    )
    for argv in (
        ["query", graph_file, "timeline", "--unit", "arc_0"],
        ["query", graph_file, "timeline", "--unit", "arc_1"],
        ["eval", str(corpus), "--graph", graph_file],
    ):
        assert run_cli(argv, capsys) == (2, "", expected), argv


def test_query_characters_full_map(graph_file, capsys):
    code, out, _ = run_cli(["query", graph_file, "characters"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["map"]["A"][:3] == ["0_0_0", "0_0_1", "0_1_1"]
    assert obj["map"]["B"][:2] == ["0_0_1", "0_1_0"]


def test_query_requires_unit_for_unit_tasks(graph_file, capsys):
    code, _, _ = run_cli(["query", graph_file, "actions"], capsys)
    assert code == 2


def test_query_characters_rejects_unit(graph_file, capsys):
    code, _, _ = run_cli(["query", graph_file, "characters", "--unit", "x"], capsys)
    assert code == 2


def test_eval_table(story_file, capsys):
    code, out, _ = run_cli(["eval", story_file, "--table"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.rstrip().endswith("1.00") for line in lines[2:])


def test_eval_json_matches_library(story_file, story, capsys):
    code, out, _ = run_cli(["eval", story_file], capsys)
    assert code == 0
    expected = ng.evaluate_all(ng.integrate(story), story).to_obj()
    assert json.loads(out) == expected


def test_eval_per_unit_breakdown(story_file, capsys):
    code, out, _ = run_cli(["eval", story_file, "--per-unit"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["tasks"][0]["units"][0]["unit"] == "Think of family"


def test_eval_table_with_per_unit_is_a_usage_error(story_file, capsys):
    # The table has no per-unit rows, so the pair would drop the counts.
    code, out, err = run_cli(["eval", story_file, "--table", "--per-unit"], capsys)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_eval_with_variant_graph_and_synonyms(tmp_path, capsys):
    verbs = ["insert"] + [f"act_{i:02d}" for i in range(1, 25)]
    gold_path = tmp_path / "gold.json"
    gold_path.write_text(ng.serialize_corpus(util.verb_corpus(verbs)), encoding="utf-8")
    variant_path = tmp_path / "variant.json"
    variant_path.write_text(
        ng.serialize_corpus(util.verb_corpus(["insert_into"] + verbs[1:])), encoding="utf-8"
    )
    graph_path = tmp_path / "variant_graph.json"
    assert run_cli(["build", str(variant_path), str(graph_path)], capsys)[0] == 0

    code, out, _ = run_cli(
        ["eval", str(gold_path), "--graph", str(graph_path)], capsys
    )
    assert code == 0
    by_task = {t["task"]: t for t in json.loads(out)["tasks"]}
    assert by_task["actions"]["f1"] < 1.0
    assert abs(by_task["actions"]["f1"] - 0.96) < 1e-12

    synonyms_path = tmp_path / "syn.json"
    synonyms_path.write_text('{"insert_into": "insert"}', encoding="utf-8")
    code, out, _ = run_cli(
        ["eval", str(gold_path), "--graph", str(graph_path), "--synonyms", str(synonyms_path)],
        capsys,
    )
    assert code == 0
    by_task = {t["task"]: t for t in json.loads(out)["tasks"]}
    assert by_task["actions"]["f1"] == 1.0


@pytest.mark.parametrize(
    "synonyms, reason",
    [
        ('{"Insert Into": "insert", "insert_into": "put"}', "'insert_into' maps to both 'insert' and 'put'"),
        ('{"a": "b", "b": "c"}', "'a' maps to 'b', which maps to 'c'"),
    ],
)
def test_eval_with_ambiguous_synonyms_exits_2(tmp_path, story_file, capsys, synonyms, reason):
    path = tmp_path / "syn.json"
    path.write_text(synonyms, encoding="utf-8")
    code, out, err = run_cli(["eval", story_file, "--synonyms", str(path)], capsys)
    assert (code, out, err) == (2, "", f"{path}: $: {reason}\n")


def test_export_dot(graph_file, capsys):
    from dot_grammar import parse_dot

    code, out, _ = run_cli(["export", graph_file, "--format", "dot"], capsys)
    assert code == 0
    parse_dot(out)
    assert "has_action" in out


def test_export_json_with_kinds(graph_file, capsys):
    code, out, _ = run_cli(
        ["export", graph_file, "--format", "json", "--kinds", "event,macro_event,event_segment"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    kinds = {kind for _, kind, _ in util.triples(obj["nodes"])}
    assert kinds <= {"event", "macro_event", "event_segment"}


@pytest.mark.parametrize("kinds", ["event,macro_event,event_segment", "panel,event_segment,event,macro_event"])
def test_filtered_dot_is_the_dot_of_the_filtered_graph_file(graph_file, tmp_path, capsys, kinds):
    code, sub, _ = run_cli(["export", graph_file, "--format", "json", "--kinds", kinds], capsys)
    assert code == 0
    sub_file = tmp_path / "sub.json"
    sub_file.write_text(sub, encoding="utf-8")
    filtered = run_cli(["export", graph_file, "--format", "dot", "--kinds", kinds], capsys)
    assert filtered == run_cli(["export", str(sub_file), "--format", "dot"], capsys)
    assert filtered[0] == 0


def test_export_unknown_kind(graph_file, capsys):
    code, _, err = run_cli(
        ["export", graph_file, "--format", "dot", "--kinds", "wibble"], capsys
    )
    assert code == 2
    assert "wibble" in err


def test_gen_fixture_paper_is_byte_identical(capsys):
    code, out, _ = run_cli(["gen-fixture", "--paper"], capsys)
    assert code == 0
    assert out == ng.bundled_story_text()


def test_gen_fixture_seed_deterministic(capsys):
    first = run_cli(["gen-fixture", "--seed", "42"], capsys)
    second = run_cli(["gen-fixture", "--seed", "42"], capsys)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert json.loads(first[1])["story_id"] == "synthetic_42"


def test_gen_fixture_seed_without_value_is_usage_error(capsys):
    code, _, _ = run_cli(["gen-fixture", "--seed"], capsys)
    assert code == 2


def test_gen_fixture_requires_a_mode(capsys):
    code, _, _ = run_cli(["gen-fixture"], capsys)
    assert code == 2


def test_gen_fixture_underscore_alias(capsys):
    code, out, _ = run_cli(["gen_fixture", "--paper"], capsys)
    assert code == 0
    assert out == ng.bundled_story_text()


@pytest.fixture()
def restore_gc():
    """Leaves the collector switched as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize(
    "path, want", [("exit_0", 0), ("exit_1", 1), ("exit_2", 2), ("usage_error", 2), ("raises", None)]
)
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, story_file, graph_file, capsys, monkeypatch, restore_gc, path, want, enabled
):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("[", encoding="utf-8")
    argv = {
        "exit_0": ["build", story_file, str(tmp_path / "out.json")],
        "exit_1": ["query", graph_file, "timeline", "--unit", "nope"],
        "exit_2": ["query", str(corrupt), "characters"],
        "usage_error": ["query", graph_file],
        "raises": ["build", story_file, str(tmp_path / "out.json")],
    }[path]
    seen = []

    def watched(func):
        def call(*args):
            seen.append(gc.isenabled())
            return func(*args)

        return call

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_parser", watched(cli._parser))
    monkeypatch.setattr(cli, "cmd_query", watched(cli.cmd_query))
    monkeypatch.setattr(cli, "cmd_build", watched(boom if path == "raises" else cli.cmd_build))

    (gc.enable if enabled else gc.disable)()
    if path == "raises":
        with pytest.raises(RuntimeError, match="boom"):
            cli.main(argv)
        code = None
    else:
        code = run_cli(argv, capsys)[0]
    assert gc.isenabled() is enabled
    assert code == want
    # The parser is built, and the command (if parsing gets that far) runs, with the collector off.
    assert seen == [False] * (1 if path == "usage_error" else 2)


@pytest.fixture(scope="module")
def story_files(tmp_path_factory):
    """(corpus path, graph path) of a small and a six-times larger generated story."""
    files = []
    for n_macro in (2, 12):
        root = tmp_path_factory.mktemp(f"macro{n_macro}")
        corpus, graph = root / "corpus.json", root / "graph.json"
        corpus.write_text(ng.serialize_corpus(ng.generate(ng.GenParams(seed=1, n_macro=n_macro))), encoding="utf-8")
        assert cli.main(["build", str(corpus), str(graph)]) == 0
        files.append((str(corpus), str(graph)))
    return files


_COMMANDS = {
    "build": lambda corpus, graph: ["build", corpus, graph],
    "eval": lambda corpus, graph: ["eval", corpus],
    "query_actions": lambda corpus, graph: ["query", graph, "actions", "--unit", "arc_0"],
    "query_dialogue": lambda corpus, graph: ["query", graph, "dialogue", "--unit", "scene_0"],
    "query_characters": lambda corpus, graph: ["query", graph, "characters"],
    "query_timeline": lambda corpus, graph: ["query", graph, "timeline", "--unit", "arc_0"],
    "export_dot": lambda corpus, graph: ["export", graph, "--format", "dot"],
    "validate": lambda corpus, graph: ["validate", corpus],
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_paused_collector_leaves_garbage_that_does_not_grow_with_the_story(
    story_files, capsys, restore_gc, command
):
    """With the collector off while ``main`` runs, its cyclic garbage waits
    for the next collection; that must be a fixed amount per command, not
    an amount per panel. The counts are compared across sizes, not pinned,
    because argparse's share differs between Python versions."""
    garbage = []
    for corpus, graph in story_files:
        argv = _COMMANDS[command](corpus, graph)
        gc.disable()  # no automatic collection between main's return and the count
        gc.collect()
        assert cli.main(argv) == 0
        garbage.append(gc.collect())
        capsys.readouterr()
    assert garbage[0] == garbage[1]


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _utf8_stories(tmp_path):
    """The bundled story with a non-ASCII macro-event label and dialogue
    line, its graph file, and a copy whose line has a speaker not in the
    panel, so that ``validate`` quotes a non-ASCII name."""
    story = ng.bundled_story()
    panel = story.panels[0]
    line = dataclasses.replace(panel.dialogues[0], text="Ça commence en mai — 五月。")
    macro = dataclasses.replace(story.macro_events[0], label="Thïnk of family")
    good = dataclasses.replace(
        story,
        macro_events=(macro,),
        panels=(dataclasses.replace(panel, dialogues=(line,)),) + story.panels[1:],
    )
    bad_line = dataclasses.replace(line, speaker="Ä")
    bad = dataclasses.replace(
        good, panels=(dataclasses.replace(panel, dialogues=(bad_line,)),) + story.panels[1:]
    )
    paths = {}
    for name, corpus in (("good", good), ("bad", bad)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(ng.serialize_corpus(corpus), encoding="utf-8")
    paths["graph"] = tmp_path / "graph.json"
    assert cli.main(["build", str(paths["good"]), str(paths["graph"])]) == 0
    return story.events[0].label, {name: str(path) for name, path in paths.items()}


def test_cli_stdout_is_utf8_whatever_the_locale(tmp_path, capsys):
    event, path = _utf8_stories(tmp_path)
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "ascii"}
    for argv in (
        ["query", path["graph"], "actions", "--unit", "Thïnk of family"],
        ["query", path["graph"], "dialogue", "--unit", event],
        ["validate", path["bad"]],
    ):
        code, out, _ = run_cli(argv, capsys)
        assert not out.isascii()
        # The console script's entry point, in a process whose stdout
        # encoding is ASCII.
        script = subprocess.run(
            [sys.executable, "-m", "narragraph.cli", *argv], capture_output=True, env=env
        )
        assert script.returncode == code, script.stderr
        assert script.stdout.decode("utf-8") == out
    # A process started with no fd 1 has no stdout to reconfigure; a
    # command that prints nothing still succeeds there, and one that has
    # output to write exits 2, as for any output that cannot be written.
    for argv, code, err in (
        (["validate", path["good"]], 0, b""),
        (["gen-fixture", "--paper"], 2, b"cannot write output: stdout is closed\n"),
    ):
        closed = subprocess.run(
            ["sh", "-c", 'exec "$0" -m narragraph.cli "$@" >&-', sys.executable, *argv],
            capture_output=True,
            env=env,
        )
        assert (closed.returncode, closed.stderr) == (code, err)
    # With no fd 2 the exit code is the only report: print and argparse
    # would fall back to stdout for a stderr that is None.
    for argv, code in (
        (["query", str(tmp_path / "missing.json"), "characters"], 2),
        (["query", path["graph"], "actions", "--unit", "nope"], 1),
        (["query", path["graph"]], 2),
    ):
        closed = subprocess.run(
            ["sh", "-c", 'exec "$0" -m narragraph.cli "$@" 2>&-', sys.executable, *argv],
            stdout=subprocess.PIPE,
            env=env,
        )
        assert (closed.returncode, closed.stdout) == (code, b"")


@pytest.mark.parametrize("argv", [
    ["query", "{graph}", "characters"],
    ["eval", "{story}"],
    ["export", "{graph}", "--format", "dot"],
    ["gen-fixture", "--seed", "0"],
])
def test_command_with_no_stdout_exits_2(argv, tmp_path, capsys, monkeypatch):
    story = tmp_path / "story.json"
    story.write_text(ng.bundled_story_text(), encoding="utf-8")
    graph = tmp_path / "graph.json"
    assert cli.main(["build", str(story), str(graph)]) == 0
    argv = [arg.format(story=story, graph=graph) for arg in argv]
    # sys.stdout is None in a process started with fd 1 closed.
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "cannot write output: stdout is closed\n")


def test_cli_stderr_is_utf8_whatever_the_locale(tmp_path, capsys):
    _, path = _utf8_stories(tmp_path)
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "ascii"}
    argv = ["query", path["graph"], "actions", "--unit", "Thïnk"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    script = subprocess.run([sys.executable, "-m", "narragraph.cli", *argv], capture_output=True, env=env)
    assert (script.returncode, script.stdout) == (1, b"")
    assert script.stderr == err.encode("utf-8")
    # A file name that UTF-8 cannot encode prints escaped, not as a traceback.
    script = subprocess.run(
        [sys.executable, "-m", "narragraph.cli", "validate", b"no\xffsuch.json"],
        capture_output=True,
        env=env,
        cwd=tmp_path,
    )
    assert script.returncode == 2
    assert script.stderr.startswith(b"cannot read no\\udcffsuch.json: ")
    assert b"Traceback" not in script.stderr


# Python reads an empty PYTHONUNBUFFERED as unset.
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_reader_closing_stdout_early_exits_2_without_a_traceback(tmp_path, unbuffered):
    story = tmp_path / "story.json"
    story.write_text(ng.serialize_corpus(ng.generate(ng.GenParams(seed=1, n_macro=20))), encoding="utf-8")
    graph = tmp_path / "graph.json"
    assert cli.main(["build", str(story), str(graph)]) == 0
    # Its DOT (about 180 KB) is more than a pipe holds, so the export is
    # still writing when the reader goes away, as under `| head -c 100`.
    # Unbuffered stdout's text layer would drop the rest of the write the
    # reader cut short, with no error, were it left as it is.
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen(
        [sys.executable, "-m", "narragraph.cli", "export", str(graph), "--format", "dot"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as script:
        assert len(script.stdout.read(100)) == 100
        script.stdout.close()
        err = script.stderr.read()
    assert script.returncode == 2
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err
