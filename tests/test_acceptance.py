"""Acceptance battery: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or
``smoothwords verify-all`` for the same battery outside pytest.
"""

import pytest

from smoothwords.verify import ALL_CHECKS

_SEED = 0


@pytest.mark.parametrize(
    "name,fn", ALL_CHECKS, ids=[name for name, _ in ALL_CHECKS]
)
def test_criterion(name, fn):
    result = fn(_SEED)
    print(result.format_line())
    assert result.name == name
    assert result.passed, result.format_line() + (
        f"\ncounterexample: {result.counterexample}"
        if result.counterexample
        else ""
    )
