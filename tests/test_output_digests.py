"""Pinned sha256 digests of build and eval outputs (``pinned_outputs.py``),
from the library and through the CLI.

CI also runs this module under two ``PYTHONHASHSEED`` values, which checks
that the bytes do not depend on string hashing.
"""

import pytest

from pinned_outputs import (
    CLI_DIGESTS,
    CORPORA,
    DIGESTS,
    EVAL_DIGESTS,
    build_outputs,
    cli_outputs,
    digests,
    eval_outputs,
)


@pytest.mark.parametrize("name", CORPORA)
def test_build_outputs_match_pinned_digests(name):
    assert digests(build_outputs(CORPORA[name]())) == DIGESTS[name]


@pytest.mark.parametrize("name", CORPORA)
def test_eval_outputs_match_pinned_digests(name):
    assert digests(eval_outputs(CORPORA[name]())) == EVAL_DIGESTS[name]


@pytest.mark.parametrize("name", CORPORA)
def test_cli_outputs_match_pinned_digests(name):
    assert digests(cli_outputs(name)) == CLI_DIGESTS[name]
