"""Command-line pipeline: validate, build, query, eval, export, gen-fixture.

Exit codes: 0 success, 1 domain failure (validation violations, unknown
unit), 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Callable, Optional, TypeVar

from .annotations import AnnotationCorpus, parse_corpus, serialize_corpus, validate_corpus
from .build import UnifiedGraph, integrate
from .errors import SchemaError, UnknownUnitError
from .evaluation import evaluate_all, load_synonym_map
from .export import induced_subgraph, to_dot
from .fixtures import GenParams, bundled_story_text, generate
from .graph import NodeKind, deserialize_graph, serialize_graph
from .reasoning import (
    ReasoningTask,
    actions_by_macro_event,
    character_appearances,
    dialogue_by_event,
    panel_timeline,
)


T = TypeVar("T")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from None


def _load(path: str, parse: Callable[[str], T]) -> T:
    """``parse`` of the file's text; a ``SchemaError`` exits 2."""
    text = _read_text(path)
    try:
        return parse(text)
    except SchemaError as exc:
        raise _CliError(2, f"{path}: schema error: {exc}") from None


def _parse_unified(text: str) -> UnifiedGraph:
    return UnifiedGraph.from_graph(deserialize_graph(text))


def _load_valid_corpus(path: str) -> AnnotationCorpus:
    """Parsed corpus that passed validation; else every violation, exit 1."""
    corpus = _load(path, parse_corpus)
    report = validate_corpus(corpus)
    if not report.ok:
        raise _CliError(1, "\n".join(str(violation) for violation in report.violations))
    return corpus


def cmd_validate(args: argparse.Namespace) -> int:
    corpus = _load(args.corpus, parse_corpus)
    report = validate_corpus(corpus)
    for violation in report.violations:
        print(violation)
    return 0 if report.ok else 1


def cmd_build(args: argparse.Namespace) -> int:
    corpus = _load_valid_corpus(args.corpus)
    unified = integrate(corpus)
    text = serialize_graph(unified.graph)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliError(2, f"cannot write {args.out}: {exc}") from None
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    task = ReasoningTask(args.task)
    if task is ReasoningTask.CHARACTERS:
        if args.unit is not None:
            raise _CliError(2, "the characters task takes no --unit")
    elif args.unit is None:
        raise _CliError(2, f"the {task.value} task requires --unit")

    unified = _load(args.graph, _parse_unified)
    if task is ReasoningTask.ACTIONS:
        result = actions_by_macro_event(unified, args.unit)
    elif task is ReasoningTask.DIALOGUE:
        result = dialogue_by_event(unified, args.unit)
    elif task is ReasoningTask.CHARACTERS:
        result = character_appearances(unified)
    else:
        result = panel_timeline(unified, args.unit)
    sys.stdout.write(result.to_json())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    corpus = _load_valid_corpus(args.corpus)
    if args.graph is not None:
        unified = _load(args.graph, _parse_unified)
    else:
        unified = integrate(corpus)
    synonyms = None
    if args.synonyms is not None:
        try:
            synonyms = load_synonym_map(_read_text(args.synonyms))
        except SchemaError as exc:
            raise _CliError(2, f"{args.synonyms}: {exc}") from None
    evaluation = evaluate_all(unified, corpus, synonyms=synonyms)
    if args.table:
        sys.stdout.write(evaluation.to_table())
    else:
        sys.stdout.write(evaluation.to_json(per_unit=args.per_unit))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    graph = _load(args.graph, deserialize_graph)
    kinds = None
    if args.kinds is not None:
        kinds = []
        for name in args.kinds.split(","):
            name = name.strip()
            try:
                kinds.append(NodeKind(name))
            except ValueError:
                raise _CliError(2, f"unknown node kind {name!r}") from None
    if args.format == "dot":
        sys.stdout.write(to_dot(graph, kinds))
    else:
        if kinds is not None:
            graph = induced_subgraph(graph, kinds)
        sys.stdout.write(serialize_graph(graph))
    return 0


def cmd_gen_fixture(args: argparse.Namespace) -> int:
    if args.paper:
        sys.stdout.write(bundled_story_text())
    else:
        sys.stdout.write(serialize_corpus(generate(GenParams(seed=args.seed))))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narragraph",
        description="Hierarchical knowledge graphs and reasoning over annotated comic stories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus file against the schema invariants")
    p.add_argument("corpus", help="path to an annotation JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="build the unified graph from a corpus file")
    p.add_argument("corpus", help="path to an annotation JSON file")
    p.add_argument("out", help="path to write the graph JSON to")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="run a reasoning query over a built graph")
    p.add_argument("graph", help="path to a graph JSON file")
    p.add_argument("task", choices=[t.value for t in ReasoningTask])
    p.add_argument("--unit", help="macro-event or event label (not used by characters)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score reasoning output against annotation-derived gold")
    p.add_argument("corpus", help="path to an annotation JSON file")
    p.add_argument("--graph", help="score this graph instead of rebuilding from the corpus")
    p.add_argument("--synonyms", help="JSON object mapping verb variants to canonical forms")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--per-unit", action="store_true", help="include per-unit counts in the JSON")
    output.add_argument("--table", action="store_true", help="print a plain-text table instead of JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="emit a graph as DOT or node-link JSON")
    p.add_argument("graph", help="path to a graph JSON file")
    p.add_argument("--format", choices=["dot", "json"], required=True)
    p.add_argument("--kinds", help="comma-separated node kinds to keep (induced subgraph)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "gen-fixture",
        aliases=["gen_fixture"],
        help="write a corpus JSON to stdout",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int, help="generate a synthetic corpus from this seed")
    group.add_argument("--paper", action="store_true", help="emit the bundled demo story verbatim")
    p.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; returns its exit code.

    The process's cyclic garbage collector is paused for the whole call,
    argument parsing included, and re-enabled on the way out only if it
    was enabled on entry, whichever way the call ends. A command runs
    once in a one-shot, single-threaded process, so ``main`` owns that
    process-wide switch. Collections there do no useful work: a command
    leaves a fixed amount of cyclic garbage, mostly argparse's, whatever
    the story's size, yet the collector's passes over the growing corpus
    and graph cost about 8% of a ``build`` of a 5k-panel story. The
    library functions never touch the collector.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        try:
            return args.func(args)
        except _CliError as exc:
            print(exc.message, file=sys.stderr)
            return exc.code
        except UnknownUnitError as exc:  # a query or eval unit the graph lacks
            print(exc, file=sys.stderr)
            return 1
    finally:
        if was_enabled:
            gc.enable()


def run() -> None:
    """Console-script and ``python -m`` entry: ``main``, stdout in UTF-8 whatever the locale."""
    if sys.stdout is not None:  # None when the process starts with no fd 1
        sys.stdout.reconfigure(encoding="utf-8")
    raise SystemExit(main())


if __name__ == "__main__":
    run()
