"""Recompute the pinned output digests and exit 1 on any mismatch.

The digests and the outputs they cover live in ``tests/pinned_outputs.py``,
which ``tests/test_output_digests.py`` checks under pytest. This script
needs only the standard library, so it checks the same bytes under any
supported interpreter, pytest or not. The CLI's generated corpora, graph
file and eval reports are checked against the library's digests too, and
its ``export`` and ``query`` output against digests of their own. Run it
from anywhere:

    python3 scripts/check_output_digests.py
    PYTHONHASHSEED=1 python3.13 scripts/check_output_digests.py
"""

import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pinned_outputs import (  # noqa: E402
    CLI_DIGESTS,
    CORPORA,
    DIGESTS,
    EVAL_DIGESTS,
    build_outputs,
    cli_outputs,
    digests,
    eval_outputs,
)


def main() -> int:
    mismatches = 0
    for name, make in CORPORA.items():
        corpus = make()
        for via, pinned, outputs in (
            ("", DIGESTS[name], build_outputs(corpus)),
            ("", EVAL_DIGESTS[name], eval_outputs(corpus)),
            ("cli ", CLI_DIGESTS[name], cli_outputs(name)),
        ):
            computed = digests(outputs)
            for output in sorted(pinned.keys() | computed.keys()):
                got, want = computed.get(output), pinned.get(output)
                if got != want:
                    mismatches += 1
                    print(f"MISMATCH {name} {via}{output}: {got} != pinned {want}")
    checked = sum(map(len, DIGESTS.values())) + sum(map(len, EVAL_DIGESTS.values()))
    via_cli = sum(map(len, CLI_DIGESTS.values()))
    print(
        f"Python {platform.python_version()}: {checked} pinned digests"
        f" and {via_cli} CLI outputs checked, {mismatches} mismatched"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
