"""Self-test of the benchmark.

    python3 bench/selftest.py

A tiny-size pass of every workload, untraced and traced, must print every
metric of BENCHMARK.json with its unit and pass every correctness check. A
graph file with one action's verb changed must make the gate fail ops. A
directory holding only BENCHMARK.json and bench/ must make run.py exit non-zero
without a result line.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import run

TINY = 0.02
REPORTED_E2E = ("setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb", "error_rate")


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def smoke(name: str, trace: bool, specs: dict) -> None:
    report = io.StringIO()
    with redirect_stdout(report):
        line = run.run(name, 1, 0.3, trace, scale=TINY)
    result = json.loads(line)
    what = f"{name} trace={int(trace)}"
    check(list(result) == ["correct", "attempted", "failed", "metrics"], f"{what}: result keys {list(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: {line}")
    wanted = {s["name"]: s["unit"] for s in specs["per_layer" if trace else "end_to_end"]}
    printed = {key: value["unit"] for key, value in result["metrics"].items()}
    check(printed == wanted, f"{what}: metrics {printed} differ from BENCHMARK.json {wanted}")
    check(
        all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
        f"{what}: a metric value is not a number",
    )
    lines = report.getvalue().splitlines()
    names = REPORTED_E2E if not trace else tuple(wanted)
    for metric in names:
        check(any(l.startswith(f"{metric} ") for l in lines), f"{what}: no report line for {metric}")


def tampered_graph_is_flagged() -> None:
    main, _ = run.load_cli()
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        workload, _ = run.set_up("query_cli", 1, Path(tmp), main, TINY)
        path = Path(workload.path("graph0.json"))
        doc = json.loads(path.read_text(encoding="utf-8"))
        action = next(node for node in doc["nodes"] if node["kind"] == "action")
        action["attrs"]["verb"] = "tampered_verb"
        path.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        failed = sum(not run.run_op(workload, main, workload.next_op())[1] for _ in range(80))
    check(failed > 0, "a graph file with a changed verb passed every check")


def refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "bench", Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "bench/run.py", "--workload", "query_cli", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0, "run.py exited 0 without the program")
    check("correct" not in proc.stdout, f"run.py printed a result without the program: {proc.stdout!r}")


def main() -> None:
    specs = run.metric_specs()
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    for name in json.loads((run.ROOT / "bench" / "workloads.json").read_text(encoding="utf-8"))["workloads"]:
        for trace in (False, True):
            smoke(name, trace, specs)
    tampered_graph_is_flagged()
    refuses_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
