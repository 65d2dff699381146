"""Acceptance matrix: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the same checks back the ``loghls suite`` command.
"""

import pytest

from loghls.specs import RunConfig
from loghls.suite import CRITERIA, run_all


@pytest.fixture(scope="module")
def config():
    return RunConfig()


@pytest.mark.parametrize("cid", [c[0] for c in CRITERIA])
def test_acceptance_criterion(cid, config):
    [result] = run_all(config, [cid])
    print()
    print(result.summary())
    for line in result.lines:
        print("    " + line)
    assert result.passed, f"{result.cid} failed:\n" + "\n".join(result.lines)
    assert result.runtime <= result.budget, (
        f"{result.cid} exceeded its runtime budget: "
        f"{result.runtime:.1f}s > {result.budget:.0f}s")
