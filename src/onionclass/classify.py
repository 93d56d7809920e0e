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
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    FamilyMismatch,
    NoCanonicalRepresentative,
    UnsupportedFormat,
    WrongFormat,
)
from .hyperdet import binary_form_coeffs, det3, det322, det4, generic4_state
from .scalars import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    GaussianRational,
    QuadExt,
    approx_zero,
    as_float,
    exact_sqrt,
    is_exact,
    scalar_is_zero,
)
from .tensor import (
    StateTensor,
    apply_local,
    compress_party,
    cut_rank,
    det_scale,
    flatten,
    from_terms,
    local_operators,
    separability_pattern,
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

RANKS_BY_NAME = {
    QUBIT3: {
        "GHZ": (2, 2, 2), "W": (2, 2, 2),
        "B1": (1, 2, 2), "B2": (2, 1, 2), "B3": (2, 2, 1),
        "S": (1, 1, 1),
    },
    FORMAT322: {
        "GEN322": (3, 2, 2), "DEG322": (3, 2, 2),
        "GHZ": (2, 2, 2), "W": (2, 2, 2),
        "B1": (1, 2, 2), "B2": (2, 1, 2), "B3": (2, 2, 1),
        "S": (1, 1, 1),
    },
}

_DAG_EDGES = {
    QUBIT3: {
        "GHZ": {"B1", "B2", "B3"},
        "W": {"B1", "B2", "B3"},
        "B1": {"S"}, "B2": {"S"}, "B3": {"S"},
        "S": set(),
    },
    FORMAT322: {
        "GEN322": {"GHZ", "W"},
        "DEG322": {"GHZ", "W"},
        "GHZ": {"B1", "B2", "B3"},
        "W": {"B1", "B2", "B3"},
        "B1": {"S"}, "B2": {"S"}, "B3": {"S"},
        "S": set(),
    },
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


class _BoundaryWatch:
    """Collects decisive float quantities and flags the ambiguous band.

    A decisive value whose normalized magnitude falls within a decade of
    the zero threshold (tol/10 .. 10 tol) earns a boundary warning.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.warn = False

    def check(self, value, scale: float):
        if is_exact(value) or scale <= 0:
            return
        q = abs(as_float(value)) / scale
        if self.tol / 10 < q <= 10 * self.tol:
            self.warn = True


def _ranks_with_watch(state: StateTensor, watch: _BoundaryWatch, tol: float) -> tuple[int, ...]:
    ranks = []
    for p in range(state.n_parties):
        ranks.append(cut_rank(state, [p], tol))
        if state.field_tag == FLOAT:
            rows = linalg.float_matrix(flatten(state, [p]))
            sv = np.linalg.svd(rows, compute_uv=False)
            if sv[0] > 0:
                for s in sv[1:]:
                    watch.check(complex(s), float(sv[0]))
    return tuple(ranks)


def classify(state: StateTensor, tol: float = DEFAULT_TOL) -> ClassLabel:
    """Map a state to its onion class.

    Supported formats: square bipartite (d, d), (2, 2, 2), (3, 2, 2), and
    (2, 2, 2, 2).  Float labels near a class boundary carry
    diagnostics["boundary_warning"] = True.
    """
    fmt = state.format
    watch = _BoundaryWatch(tol)
    if len(fmt) == 2:
        if fmt[0] != fmt[1]:
            raise UnsupportedFormat(f"bipartite classification needs a square format, got {fmt}")
        ranks = _ranks_with_watch(state, watch, tol)
        r = ranks[0]
        diag = {"boundary_warning": watch.warn}
        return ClassLabel(BIPARTITE, f"S{r}", ranks, fmt[0] - r, diag)
    if fmt == (2, 2, 2):
        return _classify_3qubit(state, watch, tol)
    if fmt == (3, 2, 2):
        return _classify_322(state, watch, tol)
    if fmt == (2, 2, 2, 2):
        return _classify_4qubit(state, watch, tol)
    raise UnsupportedFormat(f"no classifier for format {fmt}")


def _classify_3qubit(state: StateTensor, watch: _BoundaryWatch, tol: float) -> ClassLabel:
    ranks = _ranks_with_watch(state, watch, tol)
    ones = [p for p, r in enumerate(ranks) if r == 1]
    diag: dict = {"local_ranks": ranks}
    if len(ones) == 3:
        name = "S"
    elif len(ones) >= 1:
        name = f"B{ones[0] + 1}"
    else:
        value = det3(state)
        scale = det_scale(state, 4)
        watch.check(value, scale)
        diag["det"] = value
        name = "GHZ" if not scalar_is_zero(value, scale, tol) else "W"
    diag["boundary_warning"] = watch.warn
    return ClassLabel(QUBIT3, name, ranks, ONION_LEVELS[QUBIT3][name], diag)


def _classify_322(state: StateTensor, watch: _BoundaryWatch, tol: float) -> ClassLabel:
    ranks = _ranks_with_watch(state, watch, tol)
    diag: dict = {"local_ranks": ranks}
    name = None
    if ranks[0] == 3:
        value = det322(state)
        scale = det_scale(state, 6)
        watch.check(value, scale)
        diag["det"] = value
        name = "GEN322" if not scalar_is_zero(value, scale, tol) else "DEG322"
    else:
        reduced, rank, _ = compress_party(state, 0, tol)
        if rank == 1:
            block_rank = cut_rank(reduced, [0], tol)
            name = "B1" if block_rank == 2 else "S"
        elif rank == 2:
            inner = _classify_3qubit(reduced, watch, tol)
            diag["embedded_det"] = inner.diagnostics.get("det")
            name = inner.name
        else:
            # borderline float input: the compression disagreed with the
            # rank estimate, so fall back to the full-rank rule
            value = det322(state)
            diag["det"] = value
            name = "GEN322" if not scalar_is_zero(value, det_scale(state, 6), tol) else "DEG322"
            ranks = (3,) + ranks[1:]
    diag["boundary_warning"] = watch.warn
    return ClassLabel(FORMAT322, name, ranks, ONION_LEVELS[FORMAT322][name], diag)


def _classify_4qubit(state: StateTensor, watch: _BoundaryWatch, tol: float) -> ClassLabel:
    value = det4(state)
    scale = det_scale(state, 24)
    watch.check(value, scale)
    ranks = _ranks_with_watch(state, watch, tol)
    diag: dict = {"det": value, "local_ranks": ranks}
    if not scalar_is_zero(value, scale, tol):
        diag["boundary_warning"] = watch.warn
        return ClassLabel(QUBIT4, "GENERIC4", ranks, 0, diag)
    cuts = [(p,) for p in range(4)] + [(0, 1), (0, 2), (0, 3)]
    diag["cut_ranks"] = {cut: cut_rank(state, cut, tol) for cut in cuts}
    diag["separability"] = separability_pattern(state, tol)
    diag["boundary_warning"] = watch.warn
    return ClassLabel(QUBIT4, "DEGENERATE4", ranks, 1, diag)


_CATALOG_TERMS = {
    QUBIT3: {
        "GHZ": {(0, 0, 0): 1, (1, 1, 1): 1},
        "W": {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1},
        "B1": {(0, 0, 1): 1, (0, 1, 0): 1},
        "B2": {(0, 0, 1): 1, (1, 0, 0): 1},
        "B3": {(0, 1, 0): 1, (1, 0, 0): 1},
        "S": {(0, 0, 0): 1},
    },
    FORMAT322: {
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
        return int(name_b[1:]) <= int(name_a[1:])
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


def _send_to_e0(vec, exact: bool):
    """Invertible 2x2 matrix mapping `vec` to the first basis vector."""
    v0, v1 = vec
    big0 = bool(v0) if exact else abs(as_float(v0)) >= abs(as_float(v1))
    if big0:
        m = [[v0, v0 * 0], [v1, v0 / v0]]
    else:
        m = [[v0, v1 / v1], [v1, v1 * 0]]
    return _inverse2(m)


def _slices_party0(state: StateTensor):
    a = state.amplitudes
    return [[a[0], a[1]], [a[2], a[3]]], [[a[4], a[5]], [a[6], a[7]]]


def _rank1_factors(m, exact: bool, tol: float):
    """Column/row factorization v w^T of a rank-1 2x2 matrix."""
    if exact:
        pivot = next((i, j) for i in range(2) for j in range(2) if m[i][j])
    else:
        pivot = max(
            ((i, j) for i in range(2) for j in range(2)),
            key=lambda ij: abs(as_float(m[ij[0]][ij[1]])),
        )
    pi, pj = pivot
    v = (m[0][pj], m[1][pj])
    w = (m[pi][0] / m[pi][pj], m[pi][1] / m[pi][pj])
    return v, w


def _kernel_right(m, exact: bool):
    """Right kernel direction of a rank-1 2x2 matrix."""
    rows = [(m[0][0], m[0][1]), (m[1][0], m[1][1])]
    if exact:
        row = rows[0] if (rows[0][0] or rows[0][1]) else rows[1]
    else:
        row = max(rows, key=lambda r: abs(as_float(r[0])) + abs(as_float(r[1])))
    return (-row[1], row[0])


def _kernel_left(m, exact: bool):
    cols = [(m[0][0], m[1][0]), (m[0][1], m[1][1])]
    if exact:
        col = cols[0] if (cols[0][0] or cols[0][1]) else cols[1]
    else:
        col = max(cols, key=lambda c: abs(as_float(c[0])) + abs(as_float(c[1])))
    return (-col[1], col[0])


def _first_row_completion(vec, exact: bool):
    """Invertible 2x2 matrix whose first row is `vec`."""
    v0, v1 = vec
    use_v0 = bool(v0) if exact else abs(as_float(v0)) >= abs(as_float(v1))
    zero = v0 * 0
    if use_v0:
        return [[v0, v1], [zero, v0 / v0]]
    return [[v0, v1], [v1 / v1, zero]]


def canonicalize_3qubit(state: StateTensor, tol: float = DEFAULT_TOL):
    """Local operators carrying a 3-qubit state onto its class representative.

    Returns (ops, label) with apply_local(state, ops) proportional to
    representative(label).  In exact mode the result is exactly
    proportional; the class whose pencil discriminant is not a perfect
    square is handled in the quadratic extension of the Gaussian
    rationals, so returned operator entries may be extension scalars.
    """
    if state.format != (2, 2, 2):
        raise WrongFormat(f"expected format (2, 2, 2), got {state.format}")
    label = classify(state, tol)
    exact = state.field_tag == EXACT
    if label.name == "S":
        ops = _canon_separable(state, exact, tol)
    elif label.name.startswith("B"):
        ops = _canon_biseparable(state, int(label.name[1]) - 1, exact, tol)
    elif label.name == "GHZ":
        ops = _canon_ghz(state, exact, tol)
    else:
        ops = _canon_w(state, exact, tol)
    return local_operators(ops, tol), label


def _canon_separable(state: StateTensor, exact: bool, tol: float):
    amps = state.amplitudes
    if exact:
        base = next(i for i, a in enumerate(amps) if a)
    else:
        base = max(range(len(amps)), key=lambda i: abs(as_float(amps[i])))
    i0, j0, k0 = base >> 2, (base >> 1) & 1, base & 1
    u = (state.amplitude((0, j0, k0)), state.amplitude((1, j0, k0)))
    v = (state.amplitude((i0, 0, k0)), state.amplitude((i0, 1, k0)))
    w = (state.amplitude((i0, j0, 0)), state.amplitude((i0, j0, 1)))
    return [_send_to_e0(u, exact), _send_to_e0(v, exact), _send_to_e0(w, exact)]


def _canon_biseparable(state: StateTensor, party: int, exact: bool, tol: float):
    rows = flatten(state, [party])
    if exact:
        col = next(c for c in range(4) if rows[0][c] or rows[1][c])
    else:
        col = max(range(4), key=lambda c: abs(as_float(rows[0][c])) + abs(as_float(rows[1][c])))
    u = (rows[0][col], rows[1][col])
    if exact:
        i0 = 0 if u[0] else 1
    else:
        i0 = 0 if abs(as_float(u[0])) >= abs(as_float(u[1])) else 1
    others = [p for p in range(3) if p != party]
    block = [[None, None], [None, None]]
    for bi in range(2):
        for bj in range(2):
            multi = [0, 0, 0]
            multi[party] = i0
            multi[others[0]] = bi
            multi[others[1]] = bj
            block[bi][bj] = state.amplitude(multi) / u[i0]
    # target block is the antidiagonal unit matrix J; send C -> J via J C^{-1}
    inv = _inverse2(block)
    j_times_inv = [inv[1], inv[0]]
    one = u[i0] / u[i0]
    zero = u[i0] * 0
    ops = [None, None, None]
    ops[party] = _send_to_e0(u, exact)
    ops[others[0]] = j_times_inv
    ops[others[1]] = [[one, zero], [zero, one]]
    return ops


def _unipotent_party0(state: StateTensor, m: int):
    return apply_local(state, local_operators([[[1, 0], [m, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]]))


def _canon_ghz(state: StateTensor, exact: bool, tol: float):
    one = GaussianRational(1) if exact else 1.0 + 0j
    zero = GaussianRational(0) if exact else 0.0 + 0j
    work = state
    pre = [[one, zero], [zero, one]]
    c0, c1, c2 = binary_form_coeffs(work).coeffs
    twist = 1
    while (not c2) if exact else approx_zero(
        as_float(c2), max(abs(as_float(c)) for c in (c0, c1, c2)), tol
    ):
        # determinant-1 pre-twist moves the pencil root away from infinity
        work = _unipotent_party0(work, twist)
        pre = _matmul2([[one, zero], [twist * one, one]], pre)
        c0, c1, c2 = binary_form_coeffs(work).coeffs
        twist += 1
        if twist > 8:
            raise RuntimeError("pencil leading coefficient stayed zero")
    disc = c1 * c1 - 4 * c0 * c2
    root = exact_sqrt(disc) if exact else cmath.sqrt(disc)
    t_plus = (-c1 + root) / (2 * c2)
    t_minus = (-c1 - root) / (2 * c2)
    a0, a1 = _slices_party0(work)
    s_plus = [[a0[i][j] + t_plus * a1[i][j] for j in range(2)] for i in range(2)]
    s_minus = [[a0[i][j] + t_minus * a1[i][j] for j in range(2)] for i in range(2)]
    v0, w0 = _rank1_factors(s_plus, exact, tol)
    v1, w1 = _rank1_factors(s_minus, exact, tol)
    roots_matrix = [[one, t_plus], [one, t_minus]]
    g0 = _matmul2(roots_matrix, pre)
    q = _inverse2([[v0[0], v1[0]], [v0[1], v1[1]]])
    r = _inverse2([[w0[0], w1[0]], [w0[1], w1[1]]])
    return [g0, q, r]


def _canon_w(state: StateTensor, exact: bool, tol: float):
    c0, c1, c2 = binary_form_coeffs(state).coeffs
    scale = 1.0 if exact else max(abs(as_float(c)) for c in (c0, c1, c2))
    if (not c2) if exact else approx_zero(as_float(c2), scale, tol):
        u = (c2 * 0, c2 * 0 + 1)
    else:
        u = (c2 / c2, -c1 / (2 * c2))
    a0, a1 = _slices_party0(state)
    m_star = [[u[0] * a0[i][j] + u[1] * a1[i][j] for j in range(2)] for i in range(2)]
    # at the double root the slice combination is rank 1 and its kernels
    # complete the critical point; the rotated state lands in the tangent
    # section with only a011, a101, a110, a111 populated
    w_dir = _kernel_right(m_star, exact)
    v_dir = _kernel_left(m_star, exact)
    g0 = _first_row_completion(u, exact)
    g1 = _first_row_completion(v_dir, exact)
    g2 = _first_row_completion(w_dir, exact)
    section = apply_local(state, local_operators([g0, g1, g2], tol), tol)
    a = section.amplitudes
    one = a[3] / a[3]
    zero = a[3] * 0
    d0 = [[1 / a[3], zero], [zero, one]]
    d1 = [[1 / a[5], zero], [zero, one]]
    d2 = [[1 / a[6], zero], [zero, one]]
    scaled = apply_local(section, local_operators([d0, d1, d2], tol), tol)
    s = scaled.amplitudes[7]
    kill = [[one, zero], [-s, one]]
    flip = [[zero, one], [one, zero]]
    stage0 = _matmul2(flip, _matmul2(kill, _matmul2(d0, g0)))
    stage1 = _matmul2(flip, _matmul2(d1, g1))
    stage2 = _matmul2(flip, _matmul2(d2, g2))
    return [stage0, stage1, stage2]
