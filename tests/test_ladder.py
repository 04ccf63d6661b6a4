"""The stage ladder (``scripts/ladder.py``) runs and writes well-formed rows.

Only the shape and the corpus counts are checked, never a timing: a
timing depends on the host."""

import json
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "scripts" / "ladder.py"
STAGES = [
    "control", "graph_control", "parse", "write_corpus", "validate", "integrate", "serialize", "deserialize",
    "from_graph", "gold_index", "eval_built", "eval_loaded",
]


def test_quick_ladder_adds_its_row_and_keeps_the_others(tmp_path):
    out = tmp_path / "ladder.json"
    # A header table, as files written before this layout held, is dropped.
    out.write_text(json.dumps({"factor": 2.0, "ceilings": {}, "rows": [{"label": "parent"}, {"label": "quick"}]}))
    subprocess.run(
        [sys.executable, str(LADDER), "--quick", "--label", "quick", "--out", str(out)],
        check=True, capture_output=True, text=True,
    )
    doc = json.loads(out.read_text())
    assert doc["stages"] == STAGES
    assert doc["params"] == {
        "seed": 1, "events_per_macro": [3, 5], "segments_per_event": [2, 3], "panels_per_segment": [2, 4],
    }
    assert not {"factor", "ceilings"} & set(doc)
    parent, row = doc["rows"]
    assert parent == {"label": "parent"}
    assert row["label"] == "quick" and row["runs"] == 3
    assert row["factor"] > 1
    assert "integrate gc_on" in row["ceilings"]
    assert not {"deserialize gc_on", "graph_control gc_on"} & set(row["ceilings"])
    assert all(ceiling > row["factor"] for ceiling in row["ceilings"].values())
    assert row["python"] and row["commit"]
    counts = [(cell["n_macro"], cell["panels"], cell["nodes"], cell["edges"]) for cell in row["sizes"]]
    assert counts == [(16, 531, 4958, 6936), (64, 2006, 18606, 26173)]
    for cell in row["sizes"]:
        for mode in ("gc_on", "gc_off"):
            assert list(cell[mode]) == STAGES
            for timing in cell[mode].values():
                assert 0 < timing["min"] <= timing["median"]
    assert {mode: list(ratios) for mode, ratios in row["growth"].items()} == {
        "gc_on": STAGES, "gc_off": STAGES,
    }
