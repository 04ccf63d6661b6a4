"""The in-process A/B (``scripts/ab.py``) runs and prints a well-formed report.

Only the report's shape is checked, never a timing: a timing depends on
the host."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "scripts" / "ab.py"

ROW = re.compile(r"(A/B|A/A) +[+-]\d+\.\d\d% +(\d+)/2 +(\d+\.\d{3}) +(\d+\.\d{3})")


def _ab(*args):
    return subprocess.run(
        [sys.executable, str(AB), "--base", str(ROOT), "--rounds", "2", *args],
        capture_output=True, text=True,
    )


def _rows(stdout):
    lines = stdout.splitlines()
    assert lines[1].split() == ["pair", "median", "diff", "won", "base", "min", "ms", "other", "min", "ms"]
    rows = [ROW.fullmatch(line) for line in lines[2:4]]
    assert all(rows), lines
    assert [row[1] for row in rows] == ["A/B", "A/A"]
    for row in rows:
        assert 0 <= int(row[2]) <= 2 and 0 < float(row[3]) and 0 < float(row[4])
    # Both rows compare against the same base copy.
    assert rows[0][3] == rows[1][3]
    return lines


def test_ab_of_a_ladder_stage_on_the_bundled_story():
    done = _ab("--stage", "deserialize")
    assert done.returncode == 0, done.stderr
    lines = _rows(done.stdout)
    assert lines[0] == "stage deserialize: bundled story, 2 rounds, GC on"
    assert len(lines) == 4


def test_ab_of_a_cli_command_reports_whether_the_outputs_match():
    done = _ab("--stage", "cli:query {graph} timeline --unit 'Think of family'", "--gc-off")
    assert done.returncode == 0, done.stderr
    lines = _rows(done.stdout)
    assert lines[0] == "stage cli:query {graph} timeline --unit 'Think of family': bundled story, 2 rounds, GC paused"
    assert lines[4:] == ["output: same in all three copies"]


def test_ab_knows_every_ladder_stage_and_refuses_others():
    check = "import ab, ladder; assert list(ab.STAGE_CALLS) == list(ladder.STAGES)"
    subprocess.run([sys.executable, "-c", check], cwd=ROOT / "scripts", check=True, capture_output=True)
    done = _ab("--stage", "nope")
    assert done.returncode == 2
    assert "unknown stage 'nope'" in done.stderr
