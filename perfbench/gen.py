"""Seeded input generation, independent of the package under test.

Every input is plain data (integers, pairs and strings), drawn from
``numpy.random.default_rng([seed, op_index])`` so op ``k`` of a seed is the
same whatever ran before it.  Each workload cycles through a fixed deck of
strata (format, class, mode, norm band); the seed draws only the local
operators and the free coefficients, so the input mix is identical for
every seed and metrics compare across seeds and commits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

import refmath

# Class representatives, the same terms the paper's classification uses
# (last party index fastest).  Values are real integers.
CATALOG = {
    (2, 2, 2): {
        "GHZ": {(0, 0, 0): 1, (1, 1, 1): 1},
        "W": {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1},
        "B1": {(0, 0, 1): 1, (0, 1, 0): 1},
        "B2": {(0, 0, 1): 1, (1, 0, 0): 1},
        "B3": {(0, 1, 0): 1, (1, 0, 0): 1},
        "S": {(0, 0, 0): 1},
    },
    (3, 2, 2): {
        "GEN322": {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 1, 1): 1},
        "DEG322": {(0, 0, 0): 1, (1, 0, 1): 1, (2, 1, 1): 1},
        "GHZ": {(0, 0, 0): 1, (1, 1, 1): 1},
        "W": {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1},
        "B1": {(0, 0, 1): 1, (0, 1, 0): 1},
        "B2": {(0, 0, 1): 1, (1, 0, 0): 1},
        "B3": {(0, 1, 0): 1, (1, 0, 0): 1},
        "S": {(0, 0, 0): 1},
    },
}

RANKS = {
    (2, 2, 2): {"GHZ": (2, 2, 2), "W": (2, 2, 2), "B1": (1, 2, 2), "B2": (2, 1, 2),
                "B3": (2, 2, 1), "S": (1, 1, 1)},
}
RANKS[(3, 2, 2)] = dict(RANKS[(2, 2, 2)], GEN322=(3, 2, 2), DEG322=(3, 2, 2))

W4_TERMS = {(0, 0, 0, 1): 1, (0, 0, 1, 0): 1, (0, 1, 0, 0): 1, (1, 0, 0, 0): 1}

# Mixed-ladder rank of each pure 3-qubit class.
LADDER = {"S": "separable-class", "B1": "biseparable-class", "B2": "biseparable-class",
          "B3": "biseparable-class", "W": "W-class", "GHZ": "GHZ-class"}
LADDER_ORDER = ("separable-class", "biseparable-class", "W-class", "GHZ-class")


def fmt_name(fmt) -> str:
    return "x".join(str(d) for d in fmt)


def dense(fmt, terms) -> list:
    """Row-major integer amplitudes of a {multi-index: value} mapping."""
    size = int(np.prod(fmt))
    amps = [0] * size
    for multi, value in terms.items():
        off = 0
        for dim, idx in zip(fmt, multi):
            off = off * dim + idx
        amps[off] = value
    return amps


def generic4_terms(a, b, g, d) -> dict:
    return {(0, 0, 0, 0): a, (1, 1, 1, 1): a, (0, 0, 1, 1): b, (1, 1, 0, 0): b,
            (0, 1, 0, 1): g, (1, 0, 1, 0): g, (0, 1, 1, 0): d, (1, 0, 0, 1): d}


@dataclass(frozen=True)
class Stratum:
    """One deck slot: what kind of input an op gets, before the seed draws it."""

    fmt: tuple
    # catalog class, "Sr", or a 2x2x2x2 kind: "GEN4" (random coefficients),
    # "NZ4" (random with a nonzero Det), "HYP4" (on a zero hyperplane), "W4"
    cls: str
    mode: str = "exact"
    norm: str = "raw"  # "raw" keeps the push's norm, "unit" rescales to norm 1
    cmd: str = ""      # CLI subcommand, "" for in-process workloads


@dataclass
class OrbitInput:
    """A class representative and the invertible Gaussian-integer operators pushing it."""

    stratum: Stratum
    rep: list                  # integer amplitudes of the representative
    ops: list                  # per party: rows of (re, im) integer pairs
    expected: str              # expected class label
    rep_det: int | None        # exact hyperdeterminant of the representative
    extra: dict = field(default_factory=dict)

    def as_json(self) -> dict:
        s = self.stratum
        return {"fmt": list(s.fmt), "cls": s.cls, "mode": s.mode, "norm": s.norm, "cmd": s.cmd,
                "rep": self.rep, "ops": self.ops, "extra": self.extra}


def rng_for(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def rand_invertible(rng, dim: int) -> list:
    """Entries in [-3, 3] + [-3, 3]i, redrawn until the determinant is nonzero."""
    while True:
        m = [[(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))) for _ in range(dim)]
             for _ in range(dim)]
        if refmath.gdet(m) != (0, 0):
            return m


def _hyperplane_quad(rng) -> tuple:
    """Coefficients (a, b, g, d) on one of the twelve zero hyperplanes."""
    b, g, d = (int(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(3))
    plane = int(rng.integers(0, 12))
    if plane < 4:
        quad = [int(rng.choice([-3, -2, -1, 1, 2, 3])), b, g, d]
        quad[plane] = 0
        return tuple(quad)
    s1, s2, s3 = (1 - 2 * ((plane - 4) >> i & 1) for i in range(3))
    return (-(s1 * b + s2 * g + s3 * d), b, g, d)


def orbit_input(stratum: Stratum, seed: int, k: int) -> OrbitInput:
    """Draw op ``k`` of ``seed`` for a stratum: representative plus pushing operators."""
    rng = rng_for(seed, k)
    fmt = stratum.fmt
    extra = {}
    if len(fmt) == 2:
        r = int(stratum.cls[1:])
        rep = dense(fmt, {(i, i): 1 for i in range(r)})
        expected = stratum.cls
        rep_det = (1 if r == fmt[0] else 0) if fmt == (2, 2) else None
    elif fmt == (2, 2, 2, 2):
        if stratum.cls == "W4":
            quad = None
            rep = dense(fmt, W4_TERMS)
        elif stratum.cls == "HYP4":
            quad = _hyperplane_quad(rng)
        else:
            quad = tuple(int(v) for v in rng.integers(-3, 4, size=4))
            while not any(quad) or (stratum.cls == "NZ4" and not refmath.generic4_product(*quad)):
                quad = tuple(int(v) for v in rng.integers(-3, 4, size=4))
        if quad is None:
            rep_det = 0
        else:
            rep = dense(fmt, generic4_terms(*quad))
            rep_det = refmath.generic4_product(*quad)
            extra["quad"] = list(quad)
        expected = "GENERIC4" if rep_det else "DEGENERATE4"
    else:
        rep = dense(fmt, CATALOG[fmt][stratum.cls])
        expected = stratum.cls
        rep_det = refmath.det_of(fmt, [(a, 0) for a in rep])[0]
    ops = [rand_invertible(rng, d) for d in fmt]
    return OrbitInput(stratum, rep, ops, expected, rep_det, extra)


# --- decks ---------------------------------------------------------------------

_ORBIT_SLOTS = (
    [((2, 2), f"S{r}") for r in (1, 2)]
    + [((3, 3), f"S{r}") for r in (1, 2, 3)]
    + [((2, 2, 2), c) for c in CATALOG[(2, 2, 2)]]
    + [((3, 2, 2), c) for c in CATALOG[(3, 2, 2)]]
    + [((2, 2, 2, 2), c) for c in ("GEN4", "HYP4", "W4")]
)


# Float 3x2x2 classes whose push raises TypeError in the package.
NON_GENERIC_322 = ("GHZ", "W", "B1", "B2", "B3", "S")


def float_defect(fmt, cls) -> bool:
    """Whether the package gets float inputs of this slot wrong (see ``DEFECTS``).

    Random 2x2x2x2 coefficients ("GEN4") are mostly generic, and generic
    float 2x2x2x2 states are labelled DEGENERATE4.
    """
    return (fmt == (3, 2, 2) and cls in NON_GENERIC_322) or (fmt == (2, 2, 2, 2) and cls in ("GEN4", "NZ4"))


def orbit_deck(mode: str) -> list:
    """Every orbit slot in exact mode; in float mode, those the package gets right."""
    return [Stratum(fmt, cls, mode) for fmt, cls in _ORBIT_SLOTS
            if mode == "exact" or not float_defect(fmt, cls)]


def oracle_deck() -> list:
    """Degenerate and generic pushes in each format, all rescaled to unit norm.

    Pushes that keep their raw norm are left out: their search time is set
    by the gradient stage's iteration count, which varies tenfold between
    inputs of one stratum (0.13 to 1.5 s for 2x2x2, 1.2 to 4.4 s for
    2x2x2x2), so no run of a few dozen ops repeats across seeds.  The
    degenerate classes the search sometimes misses are in ``DEFECTS``.
    Three slots of ten are 2x2x2x2 (0.6-0.75 s against at most 0.35 s for
    the others), so the tail percentile falls inside that stratum rather
    than on the step below it.
    """
    slots = [((2, 2, 2), "GHZ"), ((2, 2, 2), "B1"), ((3, 2, 2), "GEN322"), ((3, 2, 2), "W"),
             ((2, 2, 2, 2), "NZ4"), ((2, 2, 2, 2), "W4"),
             ((2, 2, 2, 2), "NZ4"), ((2, 2, 2), "S"), ((3, 2, 2), "GEN322"), ((3, 2, 2), "GHZ")]
    return [Stratum(fmt, cls, "float", "unit") for fmt, cls in slots]


def cli_deck() -> list:
    """A fixed mix of documents over every command and both modes, less float defects."""
    slots = [
        ("classify", (2, 2, 2), "GHZ"), ("classify", (2, 2, 2), "W"), ("classify", (2, 2, 2), "B2"),
        ("classify", (3, 2, 2), "GEN322"), ("classify", (3, 2, 2), "W"), ("classify", (2, 2), "S1"),
        ("classify", (2, 2, 2, 2), "NZ4"),
        ("hyperdet", (2, 2, 2), "GHZ"), ("hyperdet", (3, 2, 2), "DEG322"), ("hyperdet", (2, 2), "S2"),
        ("invariants", (2, 2, 2), "W"), ("invariants", (3, 2, 2), "GEN322"), ("invariants", (2, 2), "S2"),
        ("canonicalize", (2, 2, 2), "GHZ"), ("canonicalize", (2, 2, 2), "W"),
        ("mixed", (2, 2, 2), "MIX"),
    ]
    return [Stratum(fmt, cls, mode, "raw", cmd) for mode in ("exact", "float") for cmd, fmt, cls in slots
            if mode == "exact" or not float_defect(fmt, cls)]


# Inputs on which the package fails, by failure family, at the commit that
# added this benchmark.  The timed decks leave them out so that every timed
# op can pass; each run also takes them through the same op, untimed, and
# reports which still fail (``bench.census``).  ``random`` marks an
# ``onionclass random ... | classify`` round trip.
DEFECTS = {
    "exact-orbits": [],
    "float-orbits": (
        [("float-322-mixed-field-TypeError", Stratum((3, 2, 2), c, "float")) for c in NON_GENERIC_322]
        + [("float-2x2x2x2-generic-labelled-DEGENERATE4", Stratum((2, 2, 2, 2), "NZ4", "float"))] * 2),
    "oracle-verdicts": [("oracle-misses-degenerate-push", Stratum(fmt, cls, "float", "unit"))
                        for fmt, cls in (((2, 2, 2), "W"), ((3, 2, 2), "DEG322"), ((2, 2, 2, 2), "HYP4"))] * 2,
    "cli-documents": [
        ("random-document-seed-key-rejected", Stratum((2, 2, 2), "RANDOM", "float", "unit", "random")),
        ("float-322-mixed-field-TypeError", Stratum((3, 2, 2), "W", "float", "raw", "classify")),
        ("float-2x2x2x2-generic-labelled-DEGENERATE4", Stratum((2, 2, 2, 2), "NZ4", "float", "raw", "classify")),
    ],
}


MIX_CLASSES = ("S", "B1", "B3", "W", "GHZ")


def mixed_input(stratum: Stratum, seed: int, k: int) -> OrbitInput:
    """Two-member ensemble of pushed 3-qubit representatives."""
    rng = rng_for(seed, k)
    members = []
    for _ in range(2):
        cls = MIX_CLASSES[int(rng.integers(0, len(MIX_CLASSES)))]
        members.append({"cls": cls, "rep": dense((2, 2, 2), CATALOG[(2, 2, 2)][cls]),
                        "ops": [rand_invertible(rng, 2) for _ in range(3)]})
    expected = max((LADDER[m["cls"]] for m in members), key=LADDER_ORDER.index)
    weights = ["1/4", "3/4"] if stratum.mode == "exact" else [0.25, 0.75]
    return OrbitInput(stratum, [], [], expected, None, {"members": members, "weights": weights})


def cli_input(stratum: Stratum, seed: int, k: int) -> OrbitInput:
    if stratum.cmd == "mixed":
        return mixed_input(stratum, seed, k)
    if stratum.cmd == "random":
        return OrbitInput(stratum, [], [], "GHZ", None,
                          {"random_seed": int(rng_for(seed, k).integers(0, 2**31))})
    return orbit_input(stratum, seed, k)


def oracle_input(stratum: Stratum, seed: int, k: int) -> OrbitInput:
    """A float push of a representative, rescaled to unit norm in the "unit" band."""
    inp = orbit_input(stratum, seed, k)
    amps = refmath.push_float(inp.rep, stratum.fmt, inp.ops)
    norm = float(np.linalg.norm(amps))
    if stratum.norm == "unit":
        amps = amps / norm
    inp.extra.update(amps=[[a.real, a.imag] for a in amps], push_norm=norm, search_seed=k)
    return inp


def make_input(workload: str, deck: list, seed: int, k: int) -> OrbitInput:
    stratum = deck[k % len(deck)]
    if workload == "cli-documents":
        return cli_input(stratum, seed, k)
    if workload == "oracle-verdicts":
        return oracle_input(stratum, seed, k)
    return orbit_input(stratum, seed, k)


def fingerprint(inputs) -> str:
    """SHA-256 prefix over the canonical JSON of a sequence of inputs."""
    h = hashlib.sha256()
    for inp in inputs:
        h.update(json.dumps(inp.as_json(), sort_keys=True).encode())
    return h.hexdigest()[:16]


def is_degenerate(inp: OrbitInput) -> bool:
    return inp.rep_det == 0
