"""Acceptance gate: every release criterion at its stated counts and tolerances.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
or through the CLI as `onionclass selftest --level full`.
"""

import pytest

from onionclass import selftest


# the pass detail of each criterion at the full level: it pins every trial count
FULL_DETAILS = {
    "lift-identity-2x2x2": "1000 exact trials, zero tolerance",
    "generic4-family": "100 random quadruples + 12 zero hyperplanes, ratio 1/1",
    "class-catalog": "all representatives match",
    "relative-invariance": "100 operator pairs and scalings per format, degrees 2/4/6/24",
    "slice-swap-signs": "100 trials per case: qubit swaps fix det3, party-1/2 swaps negate det322",
    "oracle-agreement": "200 random 2x2x2 (margin 1e-06), six representatives, 50 random 3x2x2",
    "degradation-monotonicity": "500 singular-operator pairs per family",
    "canonicalizer-soundness": "200 random exact states + 72 pushed representatives, exact proportionality",
    "mixed-ladder": "three ladder fixtures plus the equal-rho divergence fixture",
    "genericity": "1000/1000 random float states are GHZ class (need >= 999)",
}


@pytest.mark.parametrize("criterion", selftest.CRITERIA_NAMES)
def test_criterion(criterion):
    result = selftest.run_one(criterion, level="full")
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name} ({result.seconds:.2f} s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == FULL_DETAILS[criterion]
    assert result.seconds > 0


def test_every_criterion_is_pinned():
    assert selftest.CRITERIA_NAMES == list(FULL_DETAILS)


def test_unknown_criterion_raises_key_error():
    with pytest.raises(KeyError):
        selftest.run_one("no-such")
