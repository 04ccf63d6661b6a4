"""Spans around the calls a CLI command makes into each narragraph layer.

The wrappers live here, not in the package: while a traced operation runs,
:func:`instrumented` swaps the public functions that ``cli``, ``build`` and
``evaluation`` call for wrappers that record a span (name, start, end,
parent, op) and count what passed through. Spans stay in memory until the
run ends. Nothing is patched while end-to-end metrics are measured.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import narragraph.build as build_mod
import narragraph.cli as cli_mod
import narragraph.evaluation as evaluation_mod
from narragraph.evaluation import EvaluationReport
from narragraph.reasoning import QueryResult

ROOT_SPAN = "cli.main"

# (module or class, attribute, span name) for every wrapped call site.
_CALLS = [
    (cli_mod, "parse_corpus", "annotations.parse_corpus"),
    (cli_mod, "validate_corpus", "annotations.validate_corpus"),
    (cli_mod, "integrate", "build.integrate"),
    (build_mod, "build_panel_graph", "build.build_panel_graph"),
    (build_mod, "build_temporal_graph", "build.build_temporal_graph"),
    (build_mod, "build_event_graph", "build.build_event_graph"),
    (cli_mod, "serialize_graph", "graph.serialize_graph"),
    (cli_mod, "deserialize_graph", "graph.deserialize_graph"),
    (cli_mod, "evaluate_all", "evaluation.evaluate_all"),
    (cli_mod, "to_dot", "export.to_dot"),
    (QueryResult, "to_json", "cli.output_encode"),
    (EvaluationReport, "to_json", "cli.output_encode"),
    (EvaluationReport, "to_table", "cli.output_encode"),
]
for _name in ("gold_actions", "gold_dialogue", "gold_characters", "gold_timeline"):
    _CALLS.append((evaluation_mod, _name, f"gold.{_name}"))
for _name in ("actions_by_macro_event", "dialogue_by_event", "character_appearances", "panel_timeline"):
    _CALLS.append((cli_mod, _name, f"reasoning.{_name}"))
    _CALLS.append((evaluation_mod, _name, f"reasoning.{_name}"))

TIER_BUILDERS = ("build.build_panel_graph", "build.build_temporal_graph", "build.build_event_graph")


def _items(result) -> int:
    if result.appearances is not None:
        return sum(len(panels) for panels in result.appearances.values())
    return len(result.items)


def _utf8_len(text: str) -> int:
    # isascii() is O(1) in CPython, so the common case costs nothing.
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _graph_size(tracer, graph) -> None:
    tracer.count("graph.nodes", graph.node_count)
    tracer.count("graph.edges", graph.edge_count)


# Counts taken from a wrapped call: span name -> observer(tracer, args, result).
_OBSERVERS = {
    "build.integrate": lambda t, args, r: _graph_size(t, r.graph),
    "graph.deserialize_graph": lambda t, args, r: (
        _graph_size(t, r),
        t.count("graph.json_bytes", _utf8_len(args[0])),
    ),
    "graph.serialize_graph": lambda t, args, r: t.count("graph.json_bytes", _utf8_len(r)),
}
for _name in ("actions_by_macro_event", "dialogue_by_event", "character_appearances", "panel_timeline"):
    _OBSERVERS[f"reasoning.{_name}"] = lambda t, args, r: t.count("reasoning.items", _items(r))


class Tracer:
    """In-memory span recorder for one benchmark run.

    Span ``i`` is ``names[i]``, ``starts[i]``, ``ends[i]``, ``parents[i]``
    (-1 for a root) and ``ops[i]``. Flat lists of atomic values add no
    objects for the cyclic GC to track, so tracing does not change how
    often it runs."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.gc_pause: dict[int, float] = defaultdict(float)
        self.gc_gen2: dict[int, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._gc_started = 0.0

    def begin(self, name: str) -> None:
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.names))
        self.names.append(name)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.starts.append(perf_counter())

    def end(self) -> None:
        self.ends[self._stack.pop()] = perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.op, name)] += amount

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        self.gc_pause[self.op] += perf_counter() - self._gc_started
        if info["generation"] == 2:
            self.gc_gen2[self.op] += 1

    @contextmanager
    def operation(self, op: int):
        """Span ``cli.main`` plus the GC pauses of one traced operation."""
        self.op = op
        gc.callbacks.append(self._on_gc)
        self.begin(ROOT_SPAN)
        try:
            yield
        finally:
            self.end()
            gc.callbacks.remove(self._on_gc)

    def dump(self, path) -> None:
        fields = ("names", "starts", "ends", "parents", "ops")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({field: getattr(self, field) for field in fields}, handle)


class _TracedFile:
    """A file whose span runs from open to close."""

    def __init__(self, tracer: Tracer, handle):
        self._tracer = tracer
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        self._tracer.end()

    def read(self, *args):
        return self._handle.read(*args)

    def write(self, text):
        return self._handle.write(text)


@contextmanager
def instrumented(tracer: Tracer):
    """Install the span wrappers; restore every original on exit."""
    saved = []
    for owner, attr, name in _CALLS:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))

    from_graph = build_mod.UnifiedGraph.__dict__["from_graph"]
    traced_from_graph = tracer.wrap("build.UnifiedGraph.from_graph", from_graph.__func__)
    saved.append((build_mod.UnifiedGraph, "from_graph", from_graph))
    build_mod.UnifiedGraph.from_graph = classmethod(traced_from_graph)

    def traced_open(path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        tracer.begin("cli.file_write" if "w" in mode else "cli.file_read")
        return _TracedFile(tracer, handle)

    cli_mod.open = traced_open
    try:
        yield
    finally:
        del cli_mod.open
        for owner, attr, original in saved:
            setattr(owner, attr, original)


SPAN_NAMES = sorted(
    {name for _, _, name in _CALLS}
    | {ROOT_SPAN, "build.UnifiedGraph.from_graph", "cli.file_read", "cli.file_write"}
)
COUNTS = ("graph.nodes", "graph.edges", "graph.json_bytes", "reasoning.items", "gold.calls")


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-op means over ``ops``: ``<span>.ms`` for every span name (0 when
    the op made no such call), the self times the benchmark names, GC
    pauses and the counts taken by the wrappers."""
    chosen = set(ops)
    names, parents = tracer.names, tracer.parents
    durations = [(end - start) * 1000 for start, end in zip(tracer.starts, tracer.ends)]
    child_ms = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_ms[parent] += durations[i]

    total = {f"{name}.ms": 0.0 for name in SPAN_NAMES}
    total.update({name: 0.0 for name in COUNTS})
    for extra in ("build.integrate.merge_ms", "evaluation.evaluate_all.self_ms", "cli.unaccounted_ms"):
        total[extra] = 0.0
    for i, name in enumerate(names):
        if tracer.ops[i] not in chosen:
            continue
        total[f"{name}.ms"] += durations[i]
        if name == "build.integrate":
            total["build.integrate.merge_ms"] += durations[i]
        elif name in TIER_BUILDERS and names[parents[i]] == "build.integrate":
            total["build.integrate.merge_ms"] -= durations[i]
        elif name == "evaluation.evaluate_all":
            total["evaluation.evaluate_all.self_ms"] += durations[i] - child_ms[i]
        elif name == ROOT_SPAN:
            total["cli.unaccounted_ms"] += durations[i] - child_ms[i]
        elif name.startswith("gold."):
            total["gold.calls"] += 1
    for (op, name), value in tracer.counts.items():
        if op in chosen:
            total[name] += value
    total["runtime.gc_pause_ms"] = sum(tracer.gc_pause[op] for op in ops) * 1000
    total["runtime.gc_gen2_collections"] = sum(tracer.gc_gen2[op] for op in ops)
    out = {key: value / len(ops) for key, value in total.items()}
    for name in ("cli.file_read", "cli.file_write", "cli.output_encode"):
        out[f"{name}_ms"] = out[f"{name}.ms"]
    return out
