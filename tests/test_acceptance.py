"""Acceptance gate: every release criterion at its stated counts and tolerances.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
or through the CLI as `onionclass selftest --level full`.
"""

import pytest

from onionclass import selftest


@pytest.mark.parametrize("criterion", selftest.CRITERIA_NAMES)
def test_criterion(criterion):
    result = selftest.run_one(criterion, level="full")
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name} ({result.seconds:.2f} s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.seconds > 0
