"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same op can take 1.5-2x longer for minutes at a time
while neighbours load the caches and memory bus. The benchmark runs this
kernel next to every timed op and scales the op's wall time by
``reference_ms / kernel time``, which gives the time the op would take at
reference speed. The kernel does the same kinds of work as the CLI (parse
a JSON graph, build dicts of records, sort, join strings, encode JSON) and
uses no narragraph code, so a change to the program cannot change it.

Code with a large heap slows less than code with a small one when the host
is loaded, so each workload sizes the kernel's graph to its own ops (the
``calibration`` entry of ``workloads.json``).
"""

from __future__ import annotations

import gc
import json
import random
import statistics
from time import perf_counter

REPEATS = 3


def _document(size: int) -> str:
    """A JSON graph of ``size`` nodes and 1.6 edges per node, the same for every run."""
    rng = random.Random(0)
    kinds = ("panel", "character", "action", "utterance", "event", "segment")
    nodes = [
        {
            "id": f"n{i:05d}",
            "kind": rng.choice(kinds),
            "attrs": {"verb": f"verb_{rng.randrange(300)}", "order": rng.randrange(10_000), "text": "word " * rng.randrange(1, 8)},
        }
        for i in range(size)
    ]
    edges = [
        {"src": f"n{rng.randrange(size):05d}", "dst": f"n{rng.randrange(size):05d}", "kind": rng.choice(kinds)}
        for _ in range(size * 8 // 5)
    ]
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2)


class Calibration:
    """Times the reference kernel on a graph of ``nodes`` nodes;
    :meth:`scale` turns a wall time into the time at reference speed, the
    speed at which the kernel takes ``reference_ms``."""

    def __init__(self, nodes: int, reference_ms: float) -> None:
        self.document = _document(nodes)
        self.reference_ms = reference_ms

    def _kernel(self) -> int:
        doc = json.loads(self.document)
        by_kind: dict[str, list] = {}
        for node in doc["nodes"]:
            by_kind.setdefault(node["kind"], []).append((node["attrs"]["order"], node["id"], node["attrs"]["verb"]))
        out: dict[str, set] = {}
        for edge in doc["edges"]:
            out.setdefault(edge["src"], set()).add(edge["dst"])
        summary = {
            kind: [" ".join((node_id, verb)) for _, node_id, verb in sorted(rows)] for kind, rows in by_kind.items()
        }
        summary["adjacency"] = {src: sorted(dsts) for src, dsts in sorted(out.items())}
        return len(json.dumps(summary, indent=2, ensure_ascii=False))

    def measure(self, budget_ms: float = 0.0) -> float:
        """Median ms of kernel runs, each from a collected heap: at least
        REPEATS runs, and more until they add up to ``budget_ms``."""
        times: list[float] = []
        while len(times) < REPEATS or sum(times) < budget_ms:
            gc.collect()
            start = perf_counter()
            self._kernel()
            times.append((perf_counter() - start) * 1000)
        return statistics.median(times)

    def scale(self, wall: float, kernel_before: float, kernel_after: float) -> float:
        """``wall`` at reference speed, from the kernel ms around it."""
        return wall * self.reference_ms * 2 / (kernel_before + kernel_after)
