"""The benchmark's answer check (``bench/run.py``) holds on the graph files
``build`` writes: a query_cli graph file with one action's verb changed
makes some ops fail, and the same file unchanged makes none fail."""

import importlib
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
OPS = 80


def test_query_cli_fails_ops_on_a_graph_file_with_a_changed_verb(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    main, _ = run.load_cli()
    workload, _ = run.set_up("query_cli", 1, tmp_path, main, scale=0.02)

    def failed():
        return sum(not run.run_op(workload, main, workload.next_op())[1] for _ in range(OPS))

    assert failed() == 0
    path = Path(workload.path("graph0.json"))
    doc = json.loads(path.read_text(encoding="utf-8"))
    nodes = doc["nodes"]
    action = next(i for i in range(1, len(nodes), 3) if nodes[i] == "action")
    nodes[action + 1]["verb"] = "tampered_verb"
    path.write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
    assert failed() > 0
