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
    seconds: float  # wall time of the check


def _counts(level: str, quick: int, full: int) -> int:
    return quick if level == "quick" else full


def _rand_exact_matrix(rng, rows: int, cols: int, bound: int):
    """Gaussian integers with parts in [-bound, bound], drawn row by row, real part first."""
    return [
        [GaussianRational(int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1)))
         for _ in range(cols)]
        for _ in range(rows)
    ]


def rand_invertible(rng, dim: int):
    while True:
        m = _rand_exact_matrix(rng, dim, dim, 3)
        if exact_det(m):
            return m


def rand_singular(rng, dim: int):
    """Random rank-deficient integer matrix (outer products of small vectors)."""
    while True:
        rank = int(rng.integers(1, dim))
        cols = _rand_exact_matrix(rng, dim, rank, 2)
        rows = _rand_exact_matrix(rng, rank, dim, 2)
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


def check_lift_identity(level: str) -> tuple[bool, str]:
    """Cayley's explicit 2x2x2 polynomial versus K3 times the resultant lift."""
    trials = _counts(level, 100, 1000)
    lift = lambda s: schlafli_lift(binary_form_coeffs(s), K3).value
    ok = oracle_mod.identity_check(det3, lift, (2, 2, 2), trials=trials, seed=101)
    return ok, f"{trials} exact trials, zero tolerance"


def check_generic4_family(level: str) -> tuple[bool, str]:
    import numpy as np
    trials = _counts(level, 20, 100)
    rng = np.random.default_rng(202)
    pinned = generic4_product(2, 1, 1, 1)
    if pinned != GaussianRational(72900):
        return False, f"pinned product is {pinned}, expected 72900"
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
        if det4(generic4_state(*quad)) != GaussianRational(0):
            failures += 1
    return failures == 0, f"{done} random quadruples + {len(hyperplanes)} zero hyperplanes, ratio {ratio}"


def check_catalog(level: str) -> tuple[bool, str]:
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
    return not problems, "; ".join(problems) or "all representatives match"


def check_relative_invariance(level: str) -> tuple[bool, str]:
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
    detail = f"{trials} operator pairs and scalings per format, degrees 2/4/6/24"
    return not failures, "; ".join(failures[:3]) or detail


def check_slice_swap(level: str) -> tuple[bool, str]:
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
    return failures == 0, f"{trials} trials per case: qubit swaps fix det3, party-1/2 swaps negate det322"


def check_oracle_agreement(level: str) -> tuple[bool, str]:
    """The oracle finds a critical point exactly when the formula's Det is zero."""
    n_qubit3 = _counts(level, 20, 200)
    n_322 = _counts(level, 8, 50)
    margin = 1e-6
    rows = [
        ((2, 2, 2), det3, n_qubit3, 90_000, class_catalog(QUBIT3)),
        ((3, 2, 2), det322, n_322, 91_000, {"DEG322": class_catalog(FORMAT322)["DEG322"]}),
    ]
    mismatches = []
    for fmt, det, count, base, reps in rows:
        # (what, float state, whether its Det is zero): random states clear of zero, then representatives
        cases = []
        seed = 0
        while len(cases) < count:
            seed += 1
            state = tensor_mod.random_state(fmt, base + seed)
            if abs(det(state)) > margin:
                cases.append((f"{'x'.join(map(str, fmt))} seed {seed}", state, False))
        cases += [(f"rep {name}", tensor_mod.to_float(rep), not det(rep)) for name, rep in reps.items()]
        for what, state, degenerate in cases:
            result = oracle_mod.critical_point_search(state, restarts=64, tol=1e-8, seed=424_242)
            if result.found != degenerate:
                mismatches.append(f"{what} found={result.found} residual {result.residual:.2e}")
    return not mismatches, (
        "; ".join(mismatches[:3])
        or f"{n_qubit3} random 2x2x2 (margin {margin}), six representatives, {n_322} random 3x2x2"
    )


def check_degradation(level: str) -> tuple[bool, str]:
    import numpy as np
    per_family = _counts(level, 60, 500)
    rng = np.random.default_rng(505)
    forbidden = {("GHZ", "W"), ("W", "GHZ")}
    forbidden |= {(a, b) for a in ("B1", "B2", "B3") for b in ("B1", "B2", "B3") if a != b}
    failures = []
    for family in (QUBIT3, FORMAT322):
        reps = list(class_catalog(family).values())
        fmt = reps[0].format
        done = 0
        while done < per_family:
            source_rep = reps[int(rng.integers(0, len(reps)))]
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
    return not failures, "; ".join(failures[:3]) or f"{per_family} singular-operator pairs per family"


def check_canonicalizer(level: str) -> tuple[bool, str]:
    import numpy as np
    n_random = _counts(level, 30, 200)
    rng = np.random.default_rng(606)
    # (state, the class it must be named, or None for random states)
    cases = [(oracle_mod.random_rational_state((2, 2, 2), 93_000 + trial), None) for trial in range(n_random)]
    cases += [
        (tensor_mod.apply_local(rep, _rand_invertible_tuple(rng, (2, 2, 2))), name)
        for name, rep in class_catalog(QUBIT3).items()
        for _ in range(_counts(level, 5, 12))
    ]
    failures = 0
    for state, expected in cases:
        ops, label = canonicalize_3qubit(state)
        out = tensor_mod.apply_local(state, ops)
        if expected not in (None, label.name) or not tensor_mod.states_proportional(
            out, representative(label)
        ):
            failures += 1
    pushed = len(cases) - n_random
    return failures == 0, (
        f"{n_random} random exact states + {pushed} pushed representatives, exact proportionality"
    )


def check_mixed_ladder(level: str) -> tuple[bool, str]:
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
    return not problems, "; ".join(problems) or "three ladder fixtures plus the equal-rho divergence fixture"


def check_genericity(level: str) -> tuple[bool, str]:
    samples = _counts(level, 200, 1000)
    names = Counter(
        classify(tensor_mod.random_state((2, 2, 2), 95_000 + i)).name
        for i in range(samples)
    )
    ghz = names.get("GHZ", 0)
    needed = samples - max(1, samples // 1000)
    return ghz >= needed, f"{ghz}/{samples} random float states are GHZ class (need >= {needed})"


# name -> check(level) returning (passed, detail), in report order
CRITERIA = {
    "lift-identity-2x2x2": check_lift_identity,
    "generic4-family": check_generic4_family,
    "class-catalog": check_catalog,
    "relative-invariance": check_relative_invariance,
    "slice-swap-signs": check_slice_swap,
    "oracle-agreement": check_oracle_agreement,
    "degradation-monotonicity": check_degradation,
    "canonicalizer-soundness": check_canonicalizer,
    "mixed-ladder": check_mixed_ladder,
    "genericity": check_genericity,
}

CRITERIA_NAMES = list(CRITERIA)


def run_one(name: str, level: str = "full") -> CheckResult:
    """Run one criterion and time it; an unknown name raises KeyError."""
    check = CRITERIA[name]
    start = time.perf_counter()
    passed, detail = check(level)
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run(level: str = "full") -> list[CheckResult]:
    return [run_one(name, level) for name in CRITERIA_NAMES]
