import subprocess
import sys
from pathlib import Path

import narragraph as ng


def test_every_exported_name_resolves():
    missing = [name for name in ng.__all__ if not hasattr(ng, name)]
    assert missing == []


def test_exports_are_unique_and_sorted():
    assert len(set(ng.__all__)) == len(ng.__all__)
    assert ng.__all__ == sorted(ng.__all__)


# The whole public surface, pinned so that any addition or removal is a
# deliberate diff. ``set_prf`` and ``ordering_prf`` stay because the
# acceptance suite defines its metrics through them; the tier builders and
# ``gold_*`` stay because the benchmark looks them up by name, and the
# builders are the reference that ``integrate`` is checked against.
EXPORTS = [
    "ActionTriple", "AnnotationCorpus", "DuplicateNodeError", "EvaluationReport",
    "Event", "EventSegment", "GenParams", "GoldSet", "MacroEvent", "Metrics",
    "MissingNodeError", "NarragraphError", "NarrativeGraph", "NarrativeRole",
    "NodeKind", "PanelAnnotation", "QueryResult", "ReasoningTask", "RelationKind",
    "SchemaError", "ShotType", "Tier", "UnifiedGraph", "UnknownUnitError",
    "Utterance", "ValidationReport", "Violation", "actions_by_macro_event",
    "build_event_graph", "build_panel_graph", "build_temporal_graph",
    "bundled_story", "bundled_story_text", "character_appearances",
    "deserialize_graph", "dialogue_by_event", "evaluate_all", "generate",
    "gold_actions", "gold_characters", "gold_dialogue", "gold_timeline",
    "induced_subgraph", "integrate", "load_synonym_map", "normalize_token",
    "normalize_utterance", "ordering_prf", "panel_timeline", "parse_corpus",
    "serialize_corpus", "serialize_graph", "set_prf", "to_dot", "validate_corpus",
]


def test_exports_are_pinned():
    assert ng.__all__ == EXPORTS


def test_graph_members_are_pinned():
    # ``neighbors`` is the one adjacency read and ``is_acyclic`` the load's
    # precedes check; a degree is ``len(neighbors(...))``.
    public = {name for name in vars(ng.NarrativeGraph) if not name.startswith("_")}
    assert public == {
        "add_node", "add_edge", "node_count", "edge_count", "has_node", "node_kind",
        "node_attrs", "nodes", "nodes_of_kind", "edges", "neighbors", "is_acyclic",
    }


def test_relation_and_node_kind_values_are_pinned():
    # Graph files hold these values, so adding or removing one changes
    # which files load. ``precedes`` is the one order relation.
    assert [rel.value for rel in ng.RelationKind] == [
        "has_visual", "has_textual", "has_character", "has_action", "has_object",
        "agent_of", "part_of", "content_of", "instantiates", "subevent_of",
        "precedes", "co_occurs", "refers_to",
    ]
    assert [kind.value for kind in ng.NodeKind] == [
        "panel", "panel_visual", "panel_textual", "character_mention", "character",
        "action", "scene_object", "dialogue", "dialogue_content", "caption",
        "event_segment", "event", "macro_event",
    ]


def test_split_mix_is_reached_through_fixtures():
    from narragraph.fixtures import SplitMix64

    assert SplitMix64.__module__ == "narragraph.fixtures"
    assert not hasattr(ng, "SplitMix64")


def test_package_imports_only_the_standard_library():
    # The package keeps zero runtime dependencies. ``-I`` ignores
    # PYTHONPATH and the user site, so the import sees src/ and the stdlib.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import narragraph, narragraph.cli\n"
        "assert narragraph.__file__.startswith(sys.path[0]), narragraph.__file__\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print('\\n'.join(sorted(new)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "narragraph" in loaded
    assert sorted(loaded - sys.stdlib_module_names - {"narragraph"}) == []
