"""Time one stage of two checkouts side by side in one process: an A/B run
with an A/A control.

    python3 scripts/ab.py --base ../parent --stage deserialize --rounds 40
    python3 scripts/ab.py --base ../parent --stage "cli:query {graph} characters" --rounds 40 --n-macro 12

The package of the ``--base`` checkout (``src/narragraph``), the package of
this checkout and a second copy of the base package are copied into a
temporary directory under private names and imported side by side; the
package uses only relative imports, so the copies need no edits. Each
round runs the stage once per copy, in a shuffled order, each call timed
alone from a collected heap (with ``--gc-off`` the collector is paused
around it), on fresh inputs made untimed by that copy.

A stage is a ``scripts/ladder.py`` stage, or ``cli:`` and a command line
for ``narragraph.cli.main``, in which ``{story}`` and ``{graph}`` name the
corpus file and its graph file. The input is the bundled story, or
with ``--n-macro N`` the ladder's corpus of that size. Each copy reads the
graph text and file that its own ``serialize_graph`` wrote, so two
checkouts of different graph file formats compare too.

The report gives, for this checkout against the base (A/B) and for the
base's copy against the base (A/A), the median over rounds of the paired
difference in percent of the base's time, the rounds in which the other
copy was faster, and each side's minimum. An A/B difference is a
difference in code only as far as it stands clear of the A/A one. For a
``cli:`` stage it also says whether the three copies wrote the same
output. Needs only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import shlex
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import ladder  # noqa: E402  (puts this checkout's src/ on the path)
import narragraph  # noqa: E402

#: Private package names: the base, this checkout, the base again.
COPIES = ("_ab_base", "_ab_work", "_ab_aa")


#: Ladder stage -> ``(call, args)`` for package ``ng``, the corpus text
#: ``story`` and its graph text ``graph``; the inputs are made afresh, untimed.
STAGE_CALLS = {
    "control": lambda ng, story, graph: (json.loads, (story,)),
    "graph_control": lambda ng, story, graph: (json.loads, (graph,)),
    "parse": lambda ng, story, graph: (ng.parse_corpus, (story,)),
    "write_corpus": lambda ng, story, graph: (ng.serialize_corpus, (ng.parse_corpus(story),)),
    "validate": lambda ng, story, graph: (ng.validate_corpus, (ng.parse_corpus(story),)),
    "integrate": lambda ng, story, graph: (ng.integrate, (ng.parse_corpus(story),)),
    "serialize": lambda ng, story, graph: (ng.serialize_graph, (ng.integrate(ng.parse_corpus(story)).graph,)),
    "deserialize": lambda ng, story, graph: (ng.deserialize_graph, (graph,)),
    "from_graph": lambda ng, story, graph: (ng.UnifiedGraph.from_graph, (ng.deserialize_graph(graph),)),
    "gold_index": lambda ng, story, graph: (ng.gold.GoldIndex, (ng.parse_corpus(story),)),
    "eval_built": lambda ng, story, graph: (
        ng.evaluate_all, (ng.integrate(ng.parse_corpus(story)), ng.parse_corpus(story))
    ),
    "eval_loaded": lambda ng, story, graph: (
        ng.evaluate_all, (ng.UnifiedGraph.from_graph(ng.deserialize_graph(graph)), ng.parse_corpus(story))
    ),
}


def _cli_main(main, argv: list[str]):
    """``main(argv)`` with stdout and stderr captured; returns (code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _copy_packages(base: Path, into: Path) -> dict:
    """Copy the two packages under ``COPIES`` into ``into``; import them."""
    sources = dict(zip(COPIES, (base, ROOT / "src" / "narragraph", base)))
    for name, source in sources.items():
        shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    return {name: importlib.import_module(name) for name in COPIES}


def run(base: Path, stage: str, rounds: int, gc_on: bool, n_macro, workdir: Path) -> dict:
    """Seconds per round and copy, and for a ``cli:`` stage whether the outputs matched."""
    if n_macro is None:
        story = narragraph.bundled_story_text()
    else:
        params = narragraph.GenParams(n_macro=n_macro, **ladder.PARAMS)
        story = narragraph.serialize_corpus(narragraph.generate(params))
    (workdir / "story.json").write_text(story, encoding="utf-8")
    packages = _copy_packages(base, workdir)
    graphs = {}
    for name, ng in packages.items():
        graphs[name] = ng.serialize_graph(ng.integrate(ng.parse_corpus(story)).graph)
        (workdir / f"{name}.graph.json").write_text(graphs[name], encoding="utf-8")
    cli = stage.startswith("cli:")
    if cli:
        argvs = {
            name: [
                arg.format(story=workdir / "story.json", graph=workdir / f"{name}.graph.json")
                for arg in shlex.split(stage[4:])
            ]
            for name in COPIES
        }
        mains = {name: importlib.import_module(name + ".cli").main for name in COPIES}

        def make(name):
            return _cli_main, (mains[name], argvs[name])
    else:
        def make(name):
            return STAGE_CALLS[stage](packages[name], story, graphs[name])

    seconds = {name: [] for name in COPIES}
    outputs = {}
    order = list(COPIES)
    shuffle = random.Random(0).shuffle
    for _ in range(rounds):
        shuffle(order)
        for name in order:
            call, args = make(name)
            elapsed, result = ladder._timed(gc_on, call, *args)
            seconds[name].append(elapsed)
            if cli:
                outputs.setdefault(name, result)
    same = outputs[COPIES[0]] == outputs[COPIES[1]] == outputs[COPIES[2]] if cli else None
    return {"seconds": seconds, "same_output": same}


def report(stage: str, rounds: int, gc_on: bool, input_name: str, result: dict) -> str:
    seconds = result["seconds"]
    base = seconds[COPIES[0]]
    lines = [
        f"stage {stage}: {input_name}, {rounds} rounds, GC {'on' if gc_on else 'paused'}",
        f"{'pair':5} {'median diff':>11} {'won':>9} {'base min ms':>12} {'other min ms':>13}",
    ]
    for pair, name in (("A/B", COPIES[1]), ("A/A", COPIES[2])):
        other = seconds[name]
        diffs = [(o - b) / b * 100 for b, o in zip(base, other)]
        won = sum(o < b for b, o in zip(base, other))
        lines.append(
            f"{pair:5} {statistics.median(diffs):+10.2f}% {won:>4}/{rounds:<4} "
            f"{min(base) * 1e3:12.3f} {min(other) * 1e3:13.3f}"
        )
    if result["same_output"] is not None:
        lines.append(f"output: {'same' if result['same_output'] else 'DIFFERS'} in all three copies")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--stage", required=True, help="a ladder stage, or cli:<argv>")
    parser.add_argument("--rounds", type=int, default=40, help="rounds (default 40)")
    parser.add_argument("--gc-off", action="store_true", help="pause the collector around each timed call")
    parser.add_argument("--n-macro", type=int, help="the ladder corpus of this size, not the bundled story")
    args = parser.parse_args(argv)

    base = args.base / "src" / "narragraph"
    if not (base / "__init__.py").is_file():
        parser.error(f"no package at {base}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.stage not in STAGE_CALLS and not args.stage.startswith("cli:"):
        parser.error(f"unknown stage {args.stage!r}: one of {', '.join(STAGE_CALLS)}, or cli:<argv>")
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        result = run(base, args.stage, args.rounds, not args.gc_off, args.n_macro, Path(workdir))
    input_name = "bundled story" if args.n_macro is None else f"ladder corpus N={args.n_macro}"
    print(report(args.stage, args.rounds, not args.gc_off, input_name, result), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
