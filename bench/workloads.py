"""The three benchmark workloads and the correctness gate of each operation.

A workload writes its seeded inputs into a work directory, names the argv of
its next CLI operation and checks that operation's exit code and output. Every
expected answer comes from ``narragraph.gold`` and the generated corpus, never
from a graph the program wrote. Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from narragraph import (
    GenParams,
    UnifiedGraph,
    deserialize_graph,
    evaluate_all,
    generate,
    gold_actions,
    gold_characters,
    gold_dialogue,
    gold_timeline,
    normalize_token,
    normalize_utterance,
    serialize_corpus,
    serialize_graph,
)

SPECS = json.loads((Path(__file__).parent / "workloads.json").read_text(encoding="utf-8"))["workloads"]
TASKS = ("actions", "dialogue", "characters", "timeline")
DOT_KINDS = "event,macro_event,event_segment"
UNKNOWN_UNIT = "no_such_unit"


def gen_params(spec: dict, seed: int, scale: float) -> GenParams:
    """GenParams of a story; ``scale`` multiplies n_macro (at least 1)."""
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["gen_params"].items()}
    fields["n_macro"] = max(1, round(fields["n_macro"] * scale))
    return GenParams(seed=seed, **fields)


def _unique(labels) -> list[str]:
    return list(dict.fromkeys(labels))


def _pairs(items) -> set:
    return set(zip(items, items[1:]))


def expected_tp(corpus) -> dict[str, int]:
    """Size of each task's gold set, micro-summed over units as eval does."""
    macros = _unique(m.label for m in corpus.macro_events)
    events = _unique(e.label for e in corpus.events)
    return {
        "actions": sum(len(gold_actions(corpus, label).items) for label in macros),
        "dialogue": sum(len(gold_dialogue(corpus, label).items) for label in events),
        "characters": len(gold_characters(corpus).items),
        "timeline": sum(len(_pairs(gold_timeline(corpus, label).items)) for label in macros),
    }


def eval_report_ok(report: dict, tp: dict[str, int]) -> bool:
    """F1 1.00 on all four tasks and every tp equal to the gold set size."""
    tasks = {entry["task"]: entry for entry in report["tasks"]}
    return sorted(tasks) == sorted(TASKS) and all(
        tasks[t]["f1"] == 1.0 and tasks[t]["fp"] == 0 and tasks[t]["fn"] == 0 and tasks[t]["tp"] == tp[t]
        for t in TASKS
    )


class Workload:
    """Seeded inputs of one workload and the check of each operation."""

    name: str

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.spec = SPECS[self.name]
        self.seed = seed
        self.workdir = workdir
        self.params = [gen_params(self.spec, seed + i, scale) for i in range(self.spec["stories"])]
        self.panels = 0
        self.events = 0

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def write_inputs(self, run_cli) -> None:
        """Generate and write the input files (part of set-up time)."""
        corpora = [generate(p) for p in self.params]
        for i, corpus in enumerate(corpora):
            Path(self.path(f"corpus{i}.json")).write_text(serialize_corpus(corpus), encoding="utf-8")
        self.panels = sum(len(c.panels) for c in corpora) / len(corpora)
        self.events = sum(len(c.events) for c in corpora) / len(corpora)

    def prepare_checks(self) -> None:
        """Compute expected answers, after set-up and outside any timing."""

    def next_op(self) -> list[str]:
        raise NotImplementedError

    def warmup_op(self) -> list[str]:
        """The op that ends set-up; it must exit 0."""
        return self.next_op()

    def check(self, argv: list[str], code, stdout: str) -> bool:
        raise NotImplementedError

    def finish(self) -> bool:
        """Final verification; False marks every operation as failed."""
        return True


class BuildLong(Workload):
    """``build`` on one long story. Every op must write the same bytes as the
    warm-up op, and those bytes are verified once at the end: they must
    round-trip through deserialize/serialize and score F1 1.00 against gold."""

    name = "build_long"

    def next_op(self) -> list[str]:
        return ["build", self.path("corpus0.json"), self.path("out.json")]

    def prepare_checks(self) -> None:
        # The warm-up op of set-up wrote out.json; keep it as the reference.
        data = Path(self.path("out.json")).read_bytes()
        Path(self.path("reference.json")).write_bytes(data)
        self.reference = hashlib.sha256(data).digest()

    def check(self, argv, code, stdout) -> bool:
        data = Path(self.path("out.json")).read_bytes()
        return code == 0 and stdout == "" and hashlib.sha256(data).digest() == self.reference

    def finish(self) -> bool:
        text = Path(self.path("reference.json")).read_text(encoding="utf-8")
        graph = deserialize_graph(text)
        if serialize_graph(graph) != text:
            return False
        report = evaluate_all(UnifiedGraph.from_graph(graph), generate(self.params[0]))
        return all(report.task(t).metrics.f1 == 1.0 for t in TASKS)


class EvalUnits(Workload):
    """``eval`` on a story of many small units; the JSON report must show
    F1 1.00 and tp equal to the gold set size on all four tasks."""

    name = "eval_units"

    def next_op(self) -> list[str]:
        return ["eval", self.path("corpus0.json")]

    def prepare_checks(self) -> None:
        self.tp = expected_tp(generate(self.params[0]))
        self.verified: set[str] = set()

    def check(self, argv, code, stdout) -> bool:
        if code != 0:
            return False
        if stdout in self.verified:
            return True
        try:
            ok = eval_report_ok(json.loads(stdout), self.tp)
        except (ValueError, KeyError, TypeError):
            return False
        if ok:
            self.verified.add(stdout)
        return ok


class QueryCli(Workload):
    """The read path: a seeded mix of queries and DOT exports over graph
    files built in set-up, each answer compared with the gold answer."""

    name = "query_cli"

    def write_inputs(self, run_cli) -> None:
        super().write_inputs(run_cli)
        for i in range(len(self.params)):
            code, _, _ = run_cli(["build", self.path(f"corpus{i}.json"), self.path(f"graph{i}.json")])
            if code != 0:
                raise RuntimeError(f"set-up build of story {i} exited with {code}")

    def prepare_checks(self) -> None:
        mix = self.spec["request_mix"]
        self.block = [kind for kind in TASKS + ("export_dot", "unknown_unit") for _ in range(mix[kind])]
        if len(self.block) != mix["block"]:
            raise ValueError("request_mix counts do not add up to the block size")
        self.rng = random.Random(self.seed)
        self.pending: list[str] = []
        self.count = 0
        self.stories = []
        for params in self.params:
            corpus = generate(params)
            order = {p.panel_id: p.reading_order for p in corpus.panels}
            macros = _unique(m.label for m in corpus.macro_events)
            events = _unique(e.label for e in corpus.events)
            self.stories.append(
                {
                    "macros": macros,
                    "events": events,
                    "actions": {m: gold_actions(corpus, m).items for m in macros},
                    "timeline": {m: list(gold_timeline(corpus, m).items) for m in macros},
                    "dialogue": {e: gold_dialogue(corpus, e).items for e in events},
                    "characters": gold_characters(corpus).items,
                    "order": order,
                    "dot_nodes": len(corpus.macro_events) + len(corpus.events) + len(corpus.segments),
                }
            )

    def warmup_op(self) -> list[str]:
        return ["query", self.path("graph0.json"), "characters"]

    def next_op(self) -> list[str]:
        if not self.pending:
            self.pending = self.rng.sample(self.block, len(self.block))
        kind = self.pending.pop()
        i = self.count % len(self.stories)
        self.count += 1
        story, graph = self.stories[i], self.path(f"graph{i}.json")
        if kind == "export_dot":
            return ["export", graph, "--format", "dot", "--kinds", DOT_KINDS]
        if kind == "characters":
            return ["query", graph, "characters"]
        if kind == "unknown_unit":
            return ["query", graph, self.rng.choice(("actions", "dialogue", "timeline")), "--unit", UNKNOWN_UNIT]
        labels = story["events"] if kind == "dialogue" else story["macros"]
        return ["query", graph, kind, "--unit", self.rng.choice(labels)]

    def check(self, argv, code, stdout) -> bool:
        story = self.stories[int(Path(argv[1]).stem.removeprefix("graph"))]
        if argv[-1] == UNKNOWN_UNIT:
            return code == 1 and stdout == ""
        if code != 0:
            return False
        if argv[0] == "export":
            statements = [line for line in stdout.splitlines() if line.startswith('  "')]
            return (
                stdout.startswith("// narrative graph export")
                and stdout.endswith("}\n")
                and sum(" -> " not in line for line in statements) == story["dot_nodes"]
            )
        try:
            return self._answer_ok(story, argv[2], argv[-1], json.loads(stdout))
        except (ValueError, KeyError, TypeError, AttributeError):
            return False

    @staticmethod
    def _answer_ok(story: dict, task: str, unit: str, answer: dict) -> bool:
        if answer["task"] != task:
            return False
        if task == "characters":
            pairs = [(normalize_token(c), pid) for c, pids in answer["map"].items() for pid in pids]
            in_order = all(
                [story["order"][p] for p in pids] == sorted(story["order"][p] for p in pids)
                for pids in answer["map"].values()
            )
            return in_order and len(pairs) == len(story["characters"]) and set(pairs) == story["characters"]
        items = answer["items"]
        if answer["source_unit"] != unit:
            return False
        if task == "timeline":
            return items == story["timeline"][unit]
        norm = normalize_token if task == "actions" else normalize_utterance
        gold = story[task][unit]
        return len(items) == len(gold) and {norm(x) for x in items} == gold


WORKLOADS = {cls.name: cls for cls in (BuildLong, EvalUnits, QueryCli)}
