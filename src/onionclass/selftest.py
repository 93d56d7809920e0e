"""Acceptance battery: every release criterion as a deterministic check.

Each check is seeded, runs at the stated trial counts and tolerances, and
reports one pass/fail line with its wall time.  The CLI's selftest command and the pytest
acceptance module both dispatch into this file, so the gate is identical
everywhere.  The quick level shrinks trial counts for a fast smoke run.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import mixed as mixed_mod
from . import oracle as oracle_mod
from . import tensor as tensor_mod
from .classify import (
    FORMAT322,
    QUBIT3,
    QUBIT4,
    RANKS_BY_NAME,
    canonicalize_3qubit,
    class_catalog,
    classify,
    reachable,
    representative,
)
from .hyperdet import (
    DEGREES,
    K3,
    binary_form_coeffs,
    det3,
    det322,
    det4,
    generic4_product,
    generic4_state,
    hyperdet,
    schlafli_lift,
)
from .errors import ZeroState
from .linalg import exact_det
from .scalars import GaussianRational


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of the check, set by run_one


def _counts(level: str, quick: int, full: int) -> int:
    return quick if level == "quick" else full


def _rand_exact_matrix(rng, dim: int, bound: int = 3):
    return [
        [GaussianRational(int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1)))
         for _ in range(dim)]
        for _ in range(dim)
    ]


def rand_invertible(rng, dim: int):
    while True:
        m = _rand_exact_matrix(rng, dim)
        if exact_det(m):
            return m


def rand_singular(rng, dim: int):
    """Random rank-deficient integer matrix (outer products of small vectors)."""
    while True:
        rank = int(rng.integers(1, dim))
        cols = [[GaussianRational(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))) for _ in range(rank)]
                for _ in range(dim)]
        rows = [[GaussianRational(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))) for _ in range(dim)]
                for _ in range(rank)]
        m = [
            [sum((cols[i][k] * rows[k][j] for k in range(1, rank)), cols[i][0] * rows[0][j])
             for j in range(dim)]
            for i in range(dim)
        ]
        if any(any(x for x in r) for r in m) and not exact_det(m):
            return m


def _rand_invertible_tuple(rng, fmt):
    return tensor_mod.local_operators([rand_invertible(rng, d) for d in fmt])


def _rand_degrading_tuple(rng, fmt):
    mats = []
    for d in fmt:
        mats.append(rand_singular(rng, d) if rng.random() < 0.6 else rand_invertible(rng, d))
    if all(exact_det(m) for m in mats):
        party = int(rng.integers(0, len(fmt)))
        mats[party] = rand_singular(rng, fmt[party])
    return tensor_mod.local_operators(mats)


def _scaled(state, lam):
    return tensor_mod.new_state(state.format, [lam * a for a in state.amplitudes], state.field_tag)


# --- criteria ---------------------------------------------------------------


def check_lift_identity(level: str) -> CheckResult:
    """Cayley's explicit 2x2x2 polynomial versus K3 times the resultant lift."""
    trials = _counts(level, 100, 1000)
    lift = lambda s: schlafli_lift(binary_form_coeffs(s), K3).value
    ok = oracle_mod.identity_check(det3, lift, (2, 2, 2), trials=trials, seed=101)
    return CheckResult("lift-identity-2x2x2", ok, f"{trials} exact trials, zero tolerance")


def check_generic4_family(level: str) -> CheckResult:
    import numpy as np
    trials = _counts(level, 20, 100)
    rng = np.random.default_rng(202)
    pinned = generic4_product(2, 1, 1, 1)
    if pinned != GaussianRational(72900):
        return CheckResult("generic4-family", False, f"pinned product is {pinned}, expected 72900")
    ratio = det4(generic4_state(2, 1, 1, 1)) / pinned
    failures = 0
    done = 0
    while done < trials:
        quad = [GaussianRational(int(rng.integers(-6, 7)), int(rng.integers(-6, 7))) for _ in range(4)]
        if not any(quad):
            continue
        done += 1
        if det4(generic4_state(*quad)) != ratio * generic4_product(*quad):
            failures += 1
    # every vanishing factor of the closed form must kill the lift
    hyperplanes = [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]
    for s1, s2, s3 in itertools.product((1, -1), repeat=3):
        # alpha = -(s1 b + s2 g + s3 d) with b, g, d = 1, 2, 3
        hyperplanes.append((-(s1 + 2 * s2 + 3 * s3), 1, 2, 3))
    for quad in hyperplanes:
        if not any(quad):
            continue
        if det4(generic4_state(*quad)) != GaussianRational(0):
            failures += 1
    return CheckResult(
        "generic4-family",
        failures == 0,
        f"{done} random quadruples + {len(hyperplanes)} zero hyperplanes, ratio {ratio}",
    )


def check_catalog(level: str) -> CheckResult:
    problems = []
    for family in (QUBIT3, FORMAT322):
        for name, state in class_catalog(family).items():
            label = classify(state)
            if label.name != name:
                problems.append(f"{family}:{name} -> {label.name}")
            if label.local_ranks != RANKS_BY_NAME[family][name]:
                problems.append(f"{family}:{name} ranks {label.local_ranks}")
    q4 = class_catalog(QUBIT4)
    for name in ("GHZ4", "W4"):
        label = classify(q4[name])
        if label.name != "DEGENERATE4":
            problems.append(f"qubit4:{name} -> {label.name}")
    if classify(q4["GENERIC4_EXEMPLAR"]).name != "GENERIC4":
        problems.append("qubit4 exemplar not generic")
    return CheckResult("class-catalog", not problems, "; ".join(problems) or "all representatives match")


def check_relative_invariance(level: str) -> CheckResult:
    import numpy as np
    trials = _counts(level, 15, 100)
    rng = np.random.default_rng(303)
    failures = []
    for fmt, degree in DEGREES.items():
        for trial in range(trials):
            state = oracle_mod.random_rational_state(fmt, 7000 + 17 * trial + len(fmt))
            ops = _rand_invertible_tuple(rng, fmt)
            lhs = hyperdet(tensor_mod.apply_local(state, ops)).value
            factor = GaussianRational(1)
            for op in ops.operators:
                factor = factor * exact_det(op)**(degree // len(op))
            if lhs != factor * hyperdet(state).value:
                failures.append(f"invariance {fmt} trial {trial}")
            lam = GaussianRational(Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4))),
                                   Fraction(int(rng.integers(-3, 4))))
            if hyperdet(_scaled(state, lam)).value != lam**degree * hyperdet(state).value:
                failures.append(f"homogeneity {fmt} trial {trial}")
    return CheckResult(
        "relative-invariance",
        not failures,
        "; ".join(failures[:3]) or f"{trials} operator pairs and scalings per format, degrees 2/4/6/24",
    )


def check_slice_swap(level: str) -> CheckResult:
    trials = _counts(level, 20, 100)
    flip = [[0, 1], [1, 0]]
    ident2 = [[1, 0], [0, 1]]
    failures = 0
    for trial in range(trials):
        s3 = oracle_mod.random_rational_state((2, 2, 2), 8100 + trial)
        for party in range(3):
            mats = [ident2, ident2, ident2]
            mats[party] = flip
            swapped = tensor_mod.apply_local(s3, tensor_mod.local_operators(mats))
            if det3(swapped) != det3(s3):
                failures += 1
        s322 = oracle_mod.random_rational_state((3, 2, 2), 8200 + trial)
        for party in (1, 2):
            mats = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], ident2, ident2]
            mats[party] = flip
            swapped = tensor_mod.apply_local(s322, tensor_mod.local_operators(mats))
            if det322(swapped) != -det322(s322):
                failures += 1
    return CheckResult(
        "slice-swap-signs",
        failures == 0,
        f"{trials} trials per case: qubit swaps fix det3, party-1/2 swaps negate det322",
    )


def check_oracle_agreement(level: str) -> CheckResult:
    n_qubit3 = _counts(level, 20, 200)
    n_322 = _counts(level, 8, 50)
    restarts = 64
    tol = 1e-8
    margin = 1e-6
    mismatches = []

    def verdicts(state, formula_value):
        result = oracle_mod.critical_point_search(state, restarts=restarts, tol=tol, seed=critical_seed)
        return result.found, abs(formula_value), result.residual

    critical_seed = 424_242
    drawn = 0
    seed = 0
    while drawn < n_qubit3:
        seed += 1
        state = tensor_mod.random_state((2, 2, 2), 90_000 + seed)
        value = det3(state)
        if abs(value) <= margin:
            continue
        drawn += 1
        found, _, residual = verdicts(state, value)
        if found:
            mismatches.append(f"2x2x2 seed {seed} residual {residual:.2e}")
    for name, state in class_catalog(QUBIT3).items():
        value = det3(state)
        found, mag, residual = verdicts(tensor_mod.to_float(state), value)
        degenerate = not value
        if found != degenerate:
            mismatches.append(f"rep {name} found={found} residual {residual:.2e}")
    drawn = 0
    seed = 0
    while drawn < n_322:
        seed += 1
        state = tensor_mod.random_state((3, 2, 2), 91_000 + seed)
        value = det322(state)
        if abs(value) <= margin:
            continue
        drawn += 1
        found, _, residual = verdicts(state, value)
        if found:
            mismatches.append(f"3x2x2 seed {seed} residual {residual:.2e}")
    deg = class_catalog(FORMAT322)["DEG322"]
    found, _, residual = verdicts(tensor_mod.to_float(deg), det322(deg))
    if not found:
        mismatches.append(f"DEG322 not found, residual {residual:.2e}")
    return CheckResult(
        "oracle-agreement",
        not mismatches,
        "; ".join(mismatches[:3])
        or f"{n_qubit3} random 2x2x2 (margin {margin}), six representatives, {n_322} random 3x2x2",
    )


def check_degradation(level: str) -> CheckResult:
    import numpy as np
    per_family = _counts(level, 60, 500)
    rng = np.random.default_rng(505)
    forbidden = {("GHZ", "W"), ("W", "GHZ")}
    forbidden |= {(a, b) for a in ("B1", "B2", "B3") for b in ("B1", "B2", "B3") if a != b}
    failures = []
    for family in (QUBIT3, FORMAT322):
        fmt = (2, 2, 2) if family == QUBIT3 else (3, 2, 2)
        names = list(class_catalog(family))
        done = 0
        while done < per_family:
            source_rep = class_catalog(family)[names[int(rng.integers(0, len(names)))]]
            state = tensor_mod.apply_local(source_rep, _rand_invertible_tuple(rng, fmt))
            ops = _rand_degrading_tuple(rng, fmt)
            try:
                degraded = tensor_mod.apply_local(state, ops)
            except ZeroState:
                continue
            done += 1
            before = classify(state)
            after = classify(degraded)
            if after.onion_level < before.onion_level:
                failures.append(f"{family}: level {before.name}->{after.name}")
            elif not reachable(before, after):
                failures.append(f"{family}: edge {before.name}->{after.name}")
            elif (before.name, after.name) in forbidden:
                failures.append(f"{family}: forbidden {before.name}->{after.name}")
    return CheckResult(
        "degradation-monotonicity",
        not failures,
        "; ".join(failures[:3]) or f"{per_family} singular-operator pairs per family",
    )


def check_canonicalizer(level: str) -> CheckResult:
    import numpy as np
    n_random = _counts(level, 30, 200)
    rng = np.random.default_rng(606)
    failures = 0
    for trial in range(n_random):
        state = oracle_mod.random_rational_state((2, 2, 2), 93_000 + trial)
        ops, label = canonicalize_3qubit(state)
        out = tensor_mod.apply_local(state, ops)
        if not tensor_mod.states_proportional(out, representative(label)):
            failures += 1
    pushed = 0
    for name, rep in class_catalog(QUBIT3).items():
        for _ in range(5 if level == "quick" else 12):
            state = tensor_mod.apply_local(rep, _rand_invertible_tuple(rng, (2, 2, 2)))
            ops, label = canonicalize_3qubit(state)
            out = tensor_mod.apply_local(state, ops)
            pushed += 1
            if label.name != name or not tensor_mod.states_proportional(
                out, representative(label)
            ):
                failures += 1
    return CheckResult(
        "canonicalizer-soundness",
        failures == 0,
        f"{n_random} random exact states + {pushed} pushed representatives, exact proportionality",
    )


def check_mixed_ladder(level: str) -> CheckResult:
    cat = class_catalog(QUBIT3)
    half = Fraction(1, 2)
    fixtures = [
        (mixed_mod.ensemble([(half, cat["GHZ"]), (half, cat["W"])]), "GHZ-class"),
        (
            mixed_mod.ensemble(
                [
                    (half, tensor_mod.from_terms((2, 2, 2), {(0, 0, 0): 1})),
                    (half, tensor_mod.from_terms((2, 2, 2), {(1, 1, 1): 1})),
                ]
            ),
            "separable-class",
        ),
        (
            mixed_mod.ensemble(
                [
                    (Fraction(3, 10), cat["B1"]),
                    (Fraction(7, 10), tensor_mod.from_terms((2, 2, 2), {(0, 1, 0): 1, (1, 0, 0): 1})),
                ]
            ),
            "biseparable-class",
        ),
    ]
    problems = []
    for ens, expected in fixtures:
        got = mixed_mod.ensemble_upper_class(ens).name
        if got != expected:
            problems.append(f"{expected} fixture -> {got}")
    # same density matrix, different decomposition, different ladder answers
    diagonal = fixtures[1][0]
    ghz_pair = mixed_mod.ensemble(
        [
            (half, cat["GHZ"]),
            (half, tensor_mod.from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): -1})),
        ]
    )
    rho_a = mixed_mod.density_matrix(diagonal)
    rho_b = mixed_mod.density_matrix(ghz_pair)
    if any(rho_a[i][j] != rho_b[i][j] for i in range(8) for j in range(8)):
        problems.append("equal-rho fixture: density matrices differ")
    elif not (
        mixed_mod.ensemble_upper_class(diagonal).name == "separable-class"
        and mixed_mod.ensemble_upper_class(ghz_pair).name == "GHZ-class"
    ):
        problems.append("equal-rho fixture: ladder labels did not diverge")
    return CheckResult(
        "mixed-ladder",
        not problems,
        "; ".join(problems) or "three ladder fixtures plus the equal-rho divergence fixture",
    )


def check_genericity(level: str) -> CheckResult:
    samples = _counts(level, 200, 1000)
    names = Counter(
        classify(tensor_mod.random_state((2, 2, 2), 95_000 + i)).name
        for i in range(samples)
    )
    ghz = names.get("GHZ", 0)
    needed = samples - max(1, samples // 1000)
    return CheckResult(
        "genericity",
        ghz >= needed,
        f"{ghz}/{samples} random float states are GHZ class (need >= {needed})",
    )


CRITERIA = [
    ("lift-identity-2x2x2", check_lift_identity),
    ("generic4-family", check_generic4_family),
    ("class-catalog", check_catalog),
    ("relative-invariance", check_relative_invariance),
    ("slice-swap-signs", check_slice_swap),
    ("oracle-agreement", check_oracle_agreement),
    ("degradation-monotonicity", check_degradation),
    ("canonicalizer-soundness", check_canonicalizer),
    ("mixed-ladder", check_mixed_ladder),
    ("genericity", check_genericity),
]

CRITERIA_NAMES = [name for name, _ in CRITERIA]


def run_one(name: str, level: str = "full") -> CheckResult:
    for key, fn in CRITERIA:
        if key == name:
            start = time.perf_counter()
            result = fn(level)
            result.seconds = time.perf_counter() - start
            return result
    raise KeyError(f"unknown criterion {name!r}")


def run(level: str = "full") -> list[CheckResult]:
    return [run_one(name, level) for name in CRITERIA_NAMES]
