"""Onion classification of states, class catalog, and canonical forms.

Each supported format family carries a finite list of class names ordered
by onion level (0 is the outermost, generic class).  The reachability DAG
records which classes noninvertible local operations can reach; the level
numbers follow the stratum order but the DAG is authoritative for
convertibility.  Class names keep the conventional 1-based party labels
(B1 separates the first party) while API indices stay 0-based.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field

from . import linalg
from .errors import (
    FamilyMismatch,
    NoCanonicalRepresentative,
    UnsupportedFormat,
    WrongFormat,
)
from .hyperdet import binary_form_coeffs, generic4_state, hyperdet
from .scalars import (
    DEFAULT_TOL,
    EXACT,
    QuadExt,
    as_float,
    exact_sqrt,
    is_exact,
    scalar_is_zero,
)
from .tensor import (
    StateTensor,
    bipartitions,
    check_tol,
    compress_party,
    cut_rank,
    det_scale,
    flatten,
    from_terms,
    local_operators,
    mode_product,
    pivot_index,
    separability_blocks,
)

BIPARTITE = "bipartite"
QUBIT3 = "qubit3"
FORMAT322 = "format322"
QUBIT4 = "qubit4"

ONION_LEVELS = {
    QUBIT3: {"GHZ": 0, "W": 1, "B1": 2, "B2": 2, "B3": 2, "S": 3},
    FORMAT322: {"GEN322": 0, "DEG322": 1, "GHZ": 2, "W": 3, "B2": 4, "B3": 4, "B1": 5, "S": 6},
    QUBIT4: {"GENERIC4": 0, "DEGENERATE4": 1},
}

_QUBIT3_RANKS = {
    "GHZ": (2, 2, 2), "W": (2, 2, 2),
    "B1": (1, 2, 2), "B2": (2, 1, 2), "B3": (2, 2, 1),
    "S": (1, 1, 1),
}

RANKS_BY_NAME = {
    QUBIT3: _QUBIT3_RANKS,
    FORMAT322: {"GEN322": (3, 2, 2), "DEG322": (3, 2, 2), **_QUBIT3_RANKS},
}

_QUBIT3_EDGES = {
    "GHZ": {"B1", "B2", "B3"},
    "W": {"B1", "B2", "B3"},
    "B1": {"S"}, "B2": {"S"}, "B3": {"S"},
    "S": set(),
}

_DAG_EDGES = {
    QUBIT3: _QUBIT3_EDGES,
    FORMAT322: {"GEN322": {"GHZ", "W"}, "DEG322": {"GHZ", "W"}, **_QUBIT3_EDGES},
    QUBIT4: {
        "GENERIC4": {"DEGENERATE4"},
        "DEGENERATE4": set(),
    },
}


@dataclass(frozen=True)
class ClassLabel:
    """Class identity: family, name, local ranks, onion level, diagnostics."""

    family: str
    name: str
    local_ranks: tuple[int, ...]
    onion_level: int
    diagnostics: dict = field(default_factory=dict, compare=False)


class _Decisions:
    """The zero tests of one classification, each through scalar_is_zero at `tol`.

    A float value tested against its scale whose normalized magnitude q
    lies in the band tol/10 < q <= 10 tol, within a decade of the zero
    threshold, sets `warn`, reported as diagnostics["boundary_warning"].
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.warn = False

    def is_zero(self, value, scale: float) -> bool:
        if not is_exact(value) and scale > 0:
            self.warn |= bool(self.tol / 10 < abs(as_float(value)) / scale <= 10 * self.tol)
        return scalar_is_zero(value, scale, self.tol)

    def rank(self, state: StateTensor, cut) -> int:
        """A cut's rank: exact elimination, or 1 plus the singular values not zero against the largest."""
        if state.field_tag == EXACT:
            return cut_rank(state, cut)
        sv = linalg.singular_values(flatten(state, cut))
        return 1 + sum(not self.is_zero(s, sv[0]) for s in sv[1:])

    def local_ranks(self, state: StateTensor) -> tuple[int, ...]:
        return tuple(self.rank(state, (p,)) for p in range(state.n_parties))

    def hyperdet_is_zero(self, state: StateTensor, diag: dict, key: str = "det") -> bool:
        """Record hyperdet(state) as diag[key] and test it against det_scale at its degree."""
        result = hyperdet(state)
        diag[key] = result.value
        return self.is_zero(result.value, det_scale(state, result.degree))


def classify(state: StateTensor, tol: float = DEFAULT_TOL) -> ClassLabel:
    """Map a state to its onion class.

    Supported formats: square bipartite (d, d), (2, 2, 2), (3, 2, 2), and
    (2, 2, 2, 2).  Float labels near a class boundary carry
    diagnostics["boundary_warning"] = True.  A tolerance that is not
    finite and nonnegative raises DocumentInvalid.
    """
    check_tol(tol)
    fmt = state.format
    decide = _Decisions(tol)
    if len(fmt) == 2:
        if fmt[0] != fmt[1]:
            raise UnsupportedFormat(f"bipartite classification needs a square format, got {fmt}")
        ranks = decide.local_ranks(state)
        r = ranks[0]
        diag = {"boundary_warning": decide.warn}
        return ClassLabel(BIPARTITE, f"S{r}", ranks, fmt[0] - r, diag)
    if fmt in ((2, 2, 2), (3, 2, 2)):
        return _classify_three_party(state, decide)
    if fmt == (2, 2, 2, 2):
        return _classify_4qubit(state, decide)
    raise UnsupportedFormat(f"no classifier for format {fmt}")


def _classify_three_party(state: StateTensor, decide: _Decisions) -> ClassLabel:
    """2x2x2 or 3x2x2: det322 at party-0 rank 3, S or B_k at a rank-1 party, else det3 of the core.

    A 3x2x2 core is the state compressed on party 0, and its det3 is embedded_det.
    """
    family = QUBIT3 if state.format == (2, 2, 2) else FORMAT322
    ranks = decide.local_ranks(state)
    ones = [p for p, r in enumerate(ranks) if r == 1]
    diag: dict = {"local_ranks": ranks}
    embedded = family == FORMAT322 and ranks[0] == 2
    if embedded:
        diag["embedded_det"] = None
    if ranks[0] == 3:
        name = "DEG322" if decide.hyperdet_is_zero(state, diag) else "GEN322"
    elif ones:
        name = "S" if len(ones) == 3 else f"B{ones[0] + 1}"
    else:
        core, key = (compress_party(state, 0, rank=2)[0], "embedded_det") if embedded else (state, "det")
        name = "W" if decide.hyperdet_is_zero(core, diag, key) else "GHZ"
    diag["boundary_warning"] = decide.warn
    return ClassLabel(family, name, ranks, ONION_LEVELS[family][name], diag)


def _classify_4qubit(state: StateTensor, decide: _Decisions) -> ClassLabel:
    diag: dict = {}
    name = "DEGENERATE4" if decide.hyperdet_is_zero(state, diag) else "GENERIC4"
    ranks = diag["local_ranks"] = decide.local_ranks(state)
    if name == "DEGENERATE4":
        cut_ranks = {c: ranks[c[0]] if len(c) == 1 else decide.rank(state, c) for c in bipartitions(4)}
        diag["cut_ranks"] = cut_ranks
        diag["separability"] = separability_blocks(4, [cut for cut, r in cut_ranks.items() if r == 1])
    diag["boundary_warning"] = decide.warn
    return ClassLabel(QUBIT4, name, ranks, ONION_LEVELS[QUBIT4][name], diag)


_QUBIT3_TERMS = {
    "GHZ": {(0, 0, 0): 1, (1, 1, 1): 1},
    "W": {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1},
    "B1": {(0, 0, 1): 1, (0, 1, 0): 1},
    "B2": {(0, 0, 1): 1, (1, 0, 0): 1},
    "B3": {(0, 1, 0): 1, (1, 0, 0): 1},
    "S": {(0, 0, 0): 1},
}

_CATALOG_TERMS = {
    QUBIT3: _QUBIT3_TERMS,
    FORMAT322: {
        "GEN322": {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 1, 1): 1},
        "DEG322": {(0, 0, 0): 1, (1, 0, 1): 1, (2, 1, 1): 1},
        **_QUBIT3_TERMS,
    },
}

_FAMILY_FORMATS = {QUBIT3: (2, 2, 2), FORMAT322: (3, 2, 2)}


def class_catalog(family: str) -> dict[str, StateTensor]:
    """Named representative states of a finite-class family."""
    if family in _CATALOG_TERMS:
        fmt = _FAMILY_FORMATS[family]
        return {name: from_terms(fmt, terms) for name, terms in _CATALOG_TERMS[family].items()}
    if family == QUBIT4:
        return {
            "GHZ4": from_terms((2, 2, 2, 2), {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1}),
            "W4": from_terms(
                (2, 2, 2, 2),
                {(0, 0, 0, 1): 1, (0, 0, 1, 0): 1, (0, 1, 0, 0): 1, (1, 0, 0, 0): 1},
            ),
            "GENERIC4_EXEMPLAR": generic4_state(2, 1, 1, 1),
        }
    raise FamilyMismatch(f"no catalog for family {family!r}")


def representative(label: ClassLabel) -> StateTensor:
    """The catalog state of a finite class; rays, unnormalized."""
    if label.family in _CATALOG_TERMS:
        return class_catalog(label.family)[label.name]
    if label.family == BIPARTITE:
        r = int(label.name[1:])
        d = r + label.onion_level
        return from_terms((d, d), {(i, i): 1 for i in range(r)})
    if label.family == QUBIT4:
        raise NoCanonicalRepresentative(
            "four-qubit classes carry continuous parameters; see class_catalog('qubit4')"
        )
    raise FamilyMismatch(f"unknown family {label.family!r}")


def reachability_dag(family: str) -> dict[str, frozenset]:
    """Direct degradation edges of a finite family; queries close transitively."""
    edges = _DAG_EDGES.get(family)
    if edges is None:
        raise FamilyMismatch(f"no reachability DAG for family {family!r}")
    return {name: frozenset(targets) for name, targets in edges.items()}


def _resolve(entry, family):
    if isinstance(entry, ClassLabel):
        return entry.family, entry.name
    if family is None:
        raise FamilyMismatch("a family is required when passing class names")
    return family, str(entry)


def reachable(frm, to, family: str | None = None) -> bool:
    """Whether noninvertible local operations can map `frm` into `to`.

    Accepts ClassLabels or class-name strings (with `family` supplied).
    Reflexive; queries are transitively closed.  Three-qubit labels embed
    into the 3x2x2 family.
    """
    fam_a, name_a = _resolve(frm, family)
    fam_b, name_b = _resolve(to, family)
    if {fam_a, fam_b} == {QUBIT3, FORMAT322}:
        fam_a = fam_b = FORMAT322
    if fam_a != fam_b:
        raise FamilyMismatch(f"cannot compare classes of families {fam_a!r} and {fam_b!r}")
    if fam_a == BIPARTITE:
        ranks = [re.fullmatch(r"S([1-9][0-9]*)", name) for name in (name_a, name_b)]
        if all(ranks):
            return int(ranks[1][1]) <= int(ranks[0][1])
    edges = _DAG_EDGES.get(fam_a)
    if edges is None or name_a not in edges or name_b not in edges:
        raise FamilyMismatch(f"unknown class names {name_a!r}, {name_b!r} for family {fam_a!r}")
    if name_a == name_b:
        return True
    seen = set()
    stack = [name_a]
    while stack:
        for nxt in edges[stack.pop()]:
            if nxt == name_b:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# --- canonical forms for three qubits -------------------------------------


def _simplify(x):
    return x.simplified() if isinstance(x, QuadExt) else x


def _matmul2(a, b):
    n = len(a)
    return [
        [_simplify(sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j])) for j in range(n)]
        for i in range(n)
    ]


def _inverse2(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[_simplify(m[1][1] / det), _simplify(-m[0][1] / det)],
            [_simplify(-m[1][0] / det), _simplify(m[0][0] / det)]]


def _first_row_completion(vec):
    """Invertible 2x2 matrix whose first row is `vec`."""
    v0, v1 = vec
    if pivot_index(vec) == 0:
        return [[v0, v1], [0, 1]]
    return [[v0, v1], [1, 0]]


def _send_to_e0(vec):
    """Invertible 2x2 matrix mapping `vec` to the first basis vector."""
    m = _first_row_completion(vec)
    return _inverse2([[m[0][0], m[1][0]], [m[0][1], m[1][1]]])


def _pencil_root(c0, c1, c2, r):
    """Root (x0, x1) of c0 x0^2 + c1 x0 x1 + c2 x1^2, given a square root r of the discriminant.

    The two forms are proportional wherever both are nonzero; keeping the
    larger is the stable quadratic formula, so a root at infinity (c2 = 0)
    is an ordinary case.
    """
    forms = (2 * c2, r - c1, -c1 - r, 2 * c0)
    k = 2 * (pivot_index(forms) // 2)
    return forms[k], forms[k + 1]


def _pencil_slice(state: StateTensor, x):
    """The slice combination x0 A0 + x1 A1 of the party-0 pencil."""
    b = mode_product(state.amplitudes, state.format, 0, [x])
    return [b[:2], b[2:]]


def _rank1_factors(rows):
    """Column/row factorization v w^T of a rank-1 matrix, w equal to 1 at the pivot."""
    pi, pj = divmod(pivot_index([x for row in rows for x in row]), len(rows[0]))
    v = [row[pj] for row in rows]
    w = [x / rows[pi][pj] for x in rows[pi]]
    return v, w


def canonicalize_3qubit(state: StateTensor, tol: float = DEFAULT_TOL):
    """Local operators carrying a 3-qubit state onto its class representative.

    Returns (ops, label) with apply_local(state, ops) proportional to
    representative(label).  In exact mode the result is exactly
    proportional; the class whose pencil discriminant is not a perfect
    square is handled in the quadratic extension of the Gaussian
    rationals, so returned operator entries may be extension scalars.  A
    tolerance that is not finite and nonnegative raises DocumentInvalid.
    """
    check_tol(tol)
    if state.format != (2, 2, 2):
        raise WrongFormat(f"expected format (2, 2, 2), got {state.format}")
    label = classify(state, tol)
    if label.name == "S":
        ops = [_send_to_e0(_rank1_factors(flatten(state, [p]))[0]) for p in range(3)]
    elif label.name.startswith("B"):
        ops = _canon_biseparable(state, int(label.name[1]) - 1)
    elif label.name == "GHZ":
        ops = _canon_ghz(state)
    else:
        ops = _canon_w(state)
    return local_operators(ops), label


def _canon_biseparable(state: StateTensor, party: int):
    # the state is u (x) C with C a rank-2 block on the other two parties;
    # J C^{-1} on the first of them sends C to the antidiagonal unit matrix J
    u, c = _rank1_factors(flatten(state, [party]))
    inv = _inverse2([c[:2], c[2:]])
    ops = [[[1, 0], [0, 1]] for _ in range(3)]
    ops[party] = _send_to_e0(u)
    ops[1 if party == 0 else 0] = [inv[1], inv[0]]
    return ops


def _canon_ghz(state: StateTensor):
    c0, c1, c2 = binary_form_coeffs(state).coeffs
    disc = c1 * c1 - 4 * c0 * c2
    root = exact_sqrt(disc) if is_exact(disc) else cmath.sqrt(disc)
    # the two distinct pencil roots make the party-0 slices rank 1
    g0 = [_pencil_root(c0, c1, c2, root), _pencil_root(c0, c1, c2, -root)]
    v0, w0 = _rank1_factors(_pencil_slice(state, g0[0]))
    v1, w1 = _rank1_factors(_pencil_slice(state, g0[1]))
    q = _inverse2([[v0[0], v1[0]], [v0[1], v1[1]]])
    r = _inverse2([[w0[0], w1[0]], [w0[1], w1[1]]])
    return [g0, q, r]


def _canon_w(state: StateTensor):
    c0, c1, c2 = binary_form_coeffs(state).coeffs
    u = _pencil_root(c0, c1, c2, 0)
    # at the double root the slice combination v w^T is rank 1 and its
    # kernels v-perp, w-perp complete the critical point; the rotated state
    # lands in the tangent section with only a011, a101, a110, a111 populated
    v, w = _rank1_factors(_pencil_slice(state, u))
    g = [_first_row_completion(u), _first_row_completion((-v[1], v[0])),
         _first_row_completion((-w[1], w[0]))]
    a = state.amplitudes
    for p in range(3):
        a = mode_product(a, state.format, p, g[p])
    # diag(1/a_x, 1) on each party leaves a111 fixed, the shear on party 0
    # then clears it, and reversing the rows swaps the basis vectors
    scale = [
        [[1 / a[3], 0], [-a[7] / a[3], 1]],
        [[1 / a[5], 0], [0, 1]],
        [[1 / a[6], 0], [0, 1]],
    ]
    return [_matmul2(scale[p], g[p])[::-1] for p in range(3)]
