"""Dense state tensors, flattenings, ranks, and the local group action.

States are rays: amplitudes are stored unnormalized and nothing here ever
normalizes implicitly.  Amplitude order is row-major with the last party
index fastest, so a (2, 2, 2) tensor lists a000, a001, a010, a011, a100,
and so on.  Party indices in the API are 0-based.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import linalg
from .errors import (
    BadCut,
    BadDimension,
    DocumentInvalid,
    FormatMismatch,
    NotBipartite,
    SizeMismatch,
    ZeroState,
)
from .scalars import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    GaussianRational,
    as_exact,
    as_float,
    gauss_dot,
    is_exact,
    numerators,
    reduced,
    scalar_is_zero,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StateTensor:
    """Unnormalized amplitude tensor with its format and numeric field.

    A state keeps what it has computed from its amplitudes alone (see
    `cached`): its read-only complex ndarray (float_array), each cut's
    singular values or exact rank, and its hyperdeterminant.  So
    classify, hyperdet and canonicalize_3qubit decide one state object
    once, however often they are called on it; every `tol` rule is applied
    afresh to the kept values.  Equality, hash and repr read the three
    fields only.
    """

    format: tuple[int, ...]
    amplitudes: tuple
    field_tag: str

    @functools.cached_property
    def _cache(self) -> dict:
        # cached_property writes the instance __dict__ directly, which a frozen dataclass allows
        return {}

    def cached(self, key, compute):
        """compute(self), evaluated on the first call with `key` and kept; it must read the amplitudes alone."""
        cache = self._cache
        if key not in cache:
            cache[key] = compute(self)
        return cache[key]

    @property
    def n_parties(self) -> int:
        return len(self.format)

    @property
    def size(self) -> int:
        return math.prod(self.format)

    def offset(self, multi_index: Sequence[int]) -> int:
        off = 0
        for dim, idx in zip(self.format, multi_index):
            off = off * dim + idx
        return off

    def amplitude(self, multi_index: Sequence[int]):
        return self.amplitudes[self.offset(multi_index)]

    def scale(self) -> float:
        """Largest amplitude magnitude; the reference for float zero tests."""
        return max(map(abs, self.amplitudes))


@dataclass(eq=False, frozen=True)
class ProductVector:
    """Tuple of per-party coefficient vectors; equality is projective."""

    factors: tuple

    __hash__ = None

    def check_shape(self, fmt: tuple[int, ...]) -> None:
        """SizeMismatch unless there is one factor per party of `fmt`, each as long as its dimension."""
        if len(self.factors) != len(fmt):
            raise SizeMismatch("product vector party count does not match the state")
        for p, f in enumerate(self.factors):
            if len(f) != fmt[p]:
                raise SizeMismatch(f"factor {p} has length {len(f)}, expected {fmt[p]}")

    def __eq__(self, other):
        if not isinstance(other, ProductVector):
            return NotImplemented
        return len(self.factors) == len(other.factors) and all(
            len(mine) == len(theirs) and _rays_equal(mine, theirs, DEFAULT_TOL)
            for mine, theirs in zip(self.factors, other.factors)
        )


@dataclass(frozen=True)
class LocalOperatorTuple:
    """One square matrix per party, all exact or all complex float."""

    operators: tuple


def product_vector(factors: Sequence[Sequence]) -> ProductVector:
    """Validate per-party coefficient vectors (each must be nonzero)."""
    packed = tuple(tuple(f) for f in factors)
    for f in packed:
        if not f or not any(bool(x) if is_exact(x) else as_float(x) != 0 for x in f):
            raise SizeMismatch("every product-vector factor must be a nonzero vector")
    return ProductVector(packed)


def _infer_field(amplitudes) -> str:
    return EXACT if all(is_exact(a) for a in amplitudes) else FLOAT


def check_format(format: Sequence[int]) -> tuple[int, ...]:
    """The format as a tuple of ints; BadDimension when it is empty or a party dimension is below 2."""
    fmt = tuple(int(d) for d in format)
    if not fmt or any(d < 2 for d in fmt):
        raise BadDimension(f"a format needs one or more parties, each of dimension at least 2, got {fmt}")
    return fmt


def check_seed(seed: int) -> int:
    """The seed of a random draw; DocumentInvalid when it is negative."""
    if seed < 0:
        raise DocumentInvalid(f"seed must be a nonnegative integer, got {seed}")
    return seed


def check_tol(tol: float) -> float:
    """A zero-test or residual tolerance; DocumentInvalid unless finite and nonnegative."""
    if not math.isfinite(tol) or tol < 0:
        raise DocumentInvalid(f"tolerance must be a finite nonnegative number, got {tol}")
    return tol


def new_state(format: Sequence[int], amplitudes: Sequence, field_tag: str | None = None) -> StateTensor:
    """Validate and build a state tensor.

    Raises BadDimension for an empty format or party dimensions below 2,
    FormatMismatch when the amplitude count is off, DocumentInvalid for a
    NaN or infinite float amplitude, and ZeroState for the all-zero tensor.
    """
    fmt = check_format(format)
    amps = tuple(amplitudes)
    if len(amps) != math.prod(fmt):
        raise FormatMismatch(
            f"expected {math.prod(fmt)} amplitudes for format {fmt}, got {len(amps)}"
        )
    if field_tag is None:
        field_tag = _infer_field(amps)
    if field_tag == EXACT:
        # extension scalars (QuadExt), as canonical operators give, stay as they are
        amps = tuple(a if is_exact(a) else as_exact(a) for a in amps)
        if not any(amps):
            raise ZeroState("all amplitudes are zero")
    elif field_tag == FLOAT:
        amps = tuple(as_float(a) for a in amps)
        if not all(cmath.isfinite(a) for a in amps):
            raise DocumentInvalid("float amplitudes must be finite")
        if not any(a != 0 for a in amps):
            raise ZeroState("all amplitudes are zero")
    else:
        raise ValueError(f"unknown field tag {field_tag!r}")
    return StateTensor(fmt, amps, field_tag)


def exact_state(format: Sequence[int], amplitudes: Sequence) -> StateTensor:
    """Build an exact-mode state from ints, Fractions, strings, or pairs."""
    return new_state(format, [as_exact(a) for a in amplitudes], EXACT)


def float_state(format: Sequence[int], amplitudes: Sequence) -> StateTensor:
    return new_state(format, amplitudes, FLOAT)


def from_terms(format: Sequence[int], terms: dict, field_tag: str = EXACT) -> StateTensor:
    """Build a state from a {multi-index: coefficient} mapping."""
    fmt = tuple(int(d) for d in format)
    amps = [0] * math.prod(fmt)  # new_state converts every entry to the field
    for multi, coeff in terms.items():
        off = 0
        for dim, idx in zip(fmt, multi):
            if not 0 <= idx < dim:
                raise FormatMismatch(f"index {multi} outside format {fmt}")
            off = off * dim + idx
        amps[off] = coeff
    return new_state(fmt, amps, field_tag)


def to_float(state: StateTensor) -> StateTensor:
    if state.field_tag == FLOAT:
        return state
    return StateTensor(state.format, tuple(as_float(a) for a in state.amplitudes), FLOAT)


def _check_cut(state: StateTensor, parties: Sequence[int]) -> tuple[int, ...]:
    cut = tuple(sorted(set(int(p) for p in parties)))
    if not cut or len(cut) == state.n_parties:
        raise BadCut("cut must be a nonempty proper subset of the parties")
    if any(p < 0 or p >= state.n_parties for p in cut):
        raise BadCut(f"party indices {cut} outside 0..{state.n_parties - 1}")
    return cut


def _offsets(fmt: tuple[int, ...], parties: Sequence[int]) -> list[int]:
    """Amplitude offsets of the parties' joint indices, row-major, the others at 0."""
    offsets = [0]
    for p in parties:
        stride = math.prod(fmt[p + 1:])
        offsets = [o + i * stride for o in offsets for i in range(fmt[p])]
    return offsets


def flatten(state: StateTensor, parties: Sequence[int]):
    """Bipartite-cut matrix: rows indexed by the cut parties, row-major.

    Returns a list of rows holding the original amplitude scalars.
    """
    cut = _check_cut(state, parties)
    rest = [p for p in range(state.n_parties) if p not in cut]
    amps = state.amplitudes
    cols = _offsets(state.format, rest)
    return [[amps[r + c] for c in cols] for r in _offsets(state.format, cut)]


def float_array(state: StateTensor) -> np.ndarray:
    """The amplitudes (exact ones by __complex__) as a read-only complex ndarray of shape `format`, kept per state."""
    import numpy as np
    a = state.cached("array", lambda s: np.array(s.amplitudes, dtype=complex).reshape(s.format))
    a.flags.writeable = False
    return a


def _float_flattening(state: StateTensor, cut: tuple[int, ...]) -> np.ndarray:
    """flatten(state, cut) of a float state, from its float_array; `cut` is checked."""
    a = float_array(state)
    rest = tuple(p for p in range(state.n_parties) if p not in cut)
    return a.transpose(cut + rest).reshape(math.prod(state.format[p] for p in cut), -1)


def _singular_values(state: StateTensor, cut: tuple[int, ...]) -> np.ndarray:
    """A float state's singular values on a checked cut, largest first, computed once per state and cut."""
    return state.cached(("sv", cut), lambda s: linalg.singular_values(_float_flattening(s, cut)))


class Decisions:
    """Every rank and invariant zero test of one computation, through scalar_is_zero at a checked `tol`.

    A float value whose magnitude q against its scale lies in the band
    tol/10 < q <= 10 tol, a decade either side of the zero threshold, sets `warn`.
    """

    def __init__(self, tol: float):
        self.tol = check_tol(tol)
        self.warn = False

    def is_zero(self, value, scale: float) -> bool:
        if not is_exact(value) and scale > 0:
            self.warn |= bool(self.tol / 10 < abs(value) / scale <= 10 * self.tol)
        return scalar_is_zero(value, scale, self.tol)

    def invariant_is_zero(self, result) -> bool:
        """Whether a HyperdetResult is zero: its exact value, or its float ratio |Det| / max|a|**degree."""
        return self.is_zero(result.value if result.ratio is None else result.ratio, 1.0)

    def rank(self, state: StateTensor, parties: Sequence[int]) -> int:
        """A cut's rank: exact elimination, or 1 plus the singular values not zero against the largest.

        The exact rank and the singular values are computed once per state
        and cut (StateTensor.cached); the zero test runs at this `tol` on every call.
        """
        cut = _check_cut(state, parties)
        if state.field_tag == EXACT:
            return state.cached(("rank", cut), lambda s: linalg.exact_rank(flatten(s, cut)))
        sv = _singular_values(state, cut)
        return 1 + sum(not self.is_zero(s, sv[0]) for s in sv[1:])

    def local_ranks(self, state: StateTensor) -> tuple[int, ...]:
        return tuple(self.rank(state, (p,)) for p in range(state.n_parties))

    def cut_ranks(self, state: StateTensor, ranks: Sequence[int]) -> dict:
        """Each bipartition's rank, in `bipartitions` order, singletons read from the local `ranks`."""
        return {c: ranks[c[0]] if len(c) == 1 else self.rank(state, c) for c in bipartitions(state.n_parties)}


def cut_rank(state: StateTensor, parties: Sequence[int], tol: float = DEFAULT_TOL) -> int:
    """Rank of the bipartite-cut flattening (the local rank for singletons)."""
    return Decisions(tol).rank(state, parties)


def local_ranks(state: StateTensor, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
    return Decisions(tol).local_ranks(state)


def schmidt_coefficients(state: StateTensor):
    """Bipartite Schmidt data.

    Float mode returns the singular values of the 1|2 flattening in
    descending order.  Exact mode returns the squared coefficients (the
    Gram-matrix eigenvalues) instead: exact Fractions whenever the
    characteristic polynomial splits over the rationals, floats otherwise.
    """
    if state.n_parties != 2:
        raise NotBipartite(f"format {state.format} is not bipartite")
    if state.field_tag == FLOAT:
        return tuple(float(s) for s in _singular_values(state, (0,)))
    rows = flatten(state, [0])
    gram = [
        [
            sum(
                (rows[i][k] * rows[j][k].conjugate() for k in range(len(rows[0]))),
                GaussianRational(0),
            )
            for j in range(len(rows))
        ]
        for i in range(len(rows))
    ]
    poly = linalg.char_poly(gram)
    if all(c.is_real() for c in poly):
        roots = linalg.rational_roots_if_split([c.re for c in poly])
        if roots is not None and len(roots) == len(gram):
            return tuple(sorted(roots, reverse=True))
    import numpy as np
    eigs = np.linalg.eigvalsh(np.array(gram, dtype=complex))  # numpy reads each entry by __complex__
    return tuple(float(e) for e in eigs[::-1])


def local_operators(matrices: Sequence) -> LocalOperatorTuple:
    """Wrap per-party square matrices, all exact or all float; SizeMismatch for a non-square one.

    A float or complex entry anywhere makes every entry a complex float (a
    string its exact value's); otherwise int, Fraction and string entries
    become exact, and exact entries stay as they are.
    """
    mats = [[tuple(r) for r in mat] for mat in matrices]
    if any(isinstance(x, (float, complex)) for rows in mats for r in rows for x in r):
        entry = lambda x: as_float(GaussianRational(x) if isinstance(x, str) else x)
    else:
        entry = lambda x: x if is_exact(x) else GaussianRational(x)
    mats = [tuple(tuple(map(entry, r)) for r in rows) for rows in mats]
    if any(len(r) != len(rows) for rows in mats for r in rows):
        raise SizeMismatch("local operators must be square")
    return LocalOperatorTuple(tuple(mats))


def mode_product(amps: tuple, fmt: tuple[int, ...], party: int, matrix) -> tuple:
    """Contract one party: b[.., i, ..] = sum_j matrix[i][j] a[.., j, ..].

    The party's dimension becomes the number of rows of `matrix`; see _contract.
    """
    return _contract(amps, fmt, [(party, matrix)])


def _contract(amps: tuple, fmt: tuple[int, ...], factors) -> tuple:
    """Contract each (party, matrix) of `factors` in turn, as mode_product does.

    When the amplitudes and every matrix are Gaussian rationals, the sums run
    on Gaussian-integer numerators over one denominator, and each output is
    reduced once, after the last party.  Other scalars take the same sums
    with their own operators.
    """
    num = numerators(amps)
    mats = num and [numerators([x for row in m for x in row]) for _, m in factors]
    if not (mats and all(mats)):
        for party, matrix in factors:
            amps, fmt = _mode_sums(amps, fmt, party, matrix, _dot)
        return amps
    amps, d = num
    for (party, _), (m, dm) in zip(factors, mats):
        dim = fmt[party]
        amps, fmt = _mode_sums(amps, fmt, party, [m[i:i + dim] for i in range(0, len(m), dim)], gauss_dot)
        d *= dm
    return tuple(reduced(x, y, d) for x, y in amps)


def _mode_sums(amps: tuple, fmt: tuple[int, ...], party: int, matrix, dot) -> tuple:
    """One party's contraction, `dot` summing a matrix row against the party's axis; returns (amps, format).

    Amplitudes are row-major, so the party's axis has stride prod(fmt[party+1:]).
    """
    stride = math.prod(fmt[party + 1:])
    step = fmt[party] * stride
    out = tuple(dot(row, amps[r:r + step:stride]) for block in range(0, len(amps), step)
                for row in matrix for r in range(block, block + stride))
    return out, fmt[:party] + (len(matrix),) + fmt[party + 1:]


def _dot(row, column):
    """sum row[j] * column[j], added left to right onto row[0] * column[0]."""
    return sum(map(operator.mul, row[1:], column[1:]), row[0] * column[0])


def apply_local(state: StateTensor, ops: LocalOperatorTuple) -> StateTensor:
    """Act with one operator per party: a'_i = sum_j g1[i1,j1]...gn[in,jn] a_j.

    A float state or float operators make the result float.  Gaussian-rational
    inputs contract every party on integer numerators and reduce each
    amplitude once (_contract).  The result is built by new_state, so float amplitudes that overflow raise
    DocumentInvalid.  Raises ZeroState when a singular operator annihilates
    the state: exactly in exact mode, and in float mode when every
    amplitude is zero against the state's scale times each operator's
    largest entry.
    """
    if len(ops.operators) != state.n_parties:
        raise SizeMismatch("operator count does not match party count")
    for p, mat in enumerate(ops.operators):
        if len(mat) != state.format[p]:
            raise SizeMismatch(
                f"operator for party {p} is {len(mat)}x{len(mat)}, expected {state.format[p]}"
            )
    matrices = ops.operators
    if state.field_tag == FLOAT or not is_exact(matrices[0][0][0]):
        state = to_float(state)
        if is_exact(matrices[0][0][0]):  # float operators are complex already (local_operators)
            matrices = [[[as_float(x) for x in row] for row in mat] for mat in matrices]
    out = _contract(state.amplitudes, state.format, list(enumerate(matrices)))
    pushed = new_state(state.format, out, state.field_tag)
    if pushed.field_tag == FLOAT:
        scale = state.scale() * math.prod(max(abs(x) for r in mat for x in r) or 1.0 for mat in matrices)
        if all(scalar_is_zero(a, scale) for a in pushed.amplitudes):
            raise ZeroState("state annihilated by a singular local operator")
    return pushed


def separability_pattern(state: StateTensor, tol: float = DEFAULT_TOL) -> tuple[tuple[int, ...], ...]:
    """Finest partition of the parties across which the state factors.

    Blocks are the equivalence classes of "never separated by a rank-1
    cut"; for pure states a cut has rank 1 exactly when the state factors
    across it.  Each bipartition is ranked once, by its side in `bipartitions`.
    """
    decide = Decisions(tol)
    return separability_blocks(state.n_parties, decide.cut_ranks(state, decide.local_ranks(state)))


def bipartitions(n_parties: int) -> list[tuple[int, ...]]:
    """Each bipartition once, by its smaller side (at a tie, the side holding party 0), singletons first."""
    return [cut for size in range(1, n_parties // 2 + 1)
            for cut in itertools.combinations(range(n_parties), size)
            if 2 * size < n_parties or cut[0] == 0]


def separability_blocks(n_parties: int, cut_ranks: dict) -> tuple[tuple[int, ...], ...]:
    """Parties grouped by the side they take in every rank-1 cut of {cut: rank}, blocks ordered by least party."""
    blocks: dict[tuple, list[int]] = {}
    for p in range(n_parties):
        blocks.setdefault(tuple(p in cut for cut, r in cut_ranks.items() if r == 1), []).append(p)
    return tuple(tuple(b) for b in blocks.values())


def compress_party(state: StateTensor, party: int, tol: float = DEFAULT_TOL, rank: int | None = None):
    """Rotate one party so its support occupies the leading basis vectors.

    Returns (reduced, rank, transform): `transform` is an invertible basis
    change on the party, and `reduced` is the state restricted to the
    party's row space.  When the rank is 1 the party is dropped entirely
    from the format; otherwise its dimension shrinks to the rank.  A float
    state is ranked at `tol` unless the caller passes the `rank` it has
    decided; exact mode ranks by the elimination that gives the transform.
    A tolerance that is not finite and nonnegative raises DocumentInvalid.
    """
    decide = Decisions(tol)
    if state.field_tag == EXACT:
        transform, rank = linalg.exact_elimination_transform(flatten(state, [party]))
    else:
        import numpy as np
        cut = _check_cut(state, [party])
        if rank is None:
            rank = decide.rank(state, cut)
        u = np.linalg.svd(_float_flattening(state, cut))[0]
        transform = [[complex(x) for x in row] for row in u.conj().T]
    amps = mode_product(state.amplitudes, state.format, party, transform[:rank])
    # a length-1 axis does not change row-major order, so rank 1 drops it as is
    fmt = state.format
    new_fmt = fmt[:party] + ((rank,) if rank > 1 else ()) + fmt[party + 1:]
    return StateTensor(new_fmt, amps, state.field_tag), rank, transform


def random_state(format: Sequence[int], seed: int) -> StateTensor:
    """Seeded random float state: iid standard complex gaussian, unit norm."""
    import numpy as np
    fmt = check_format(format)
    rng = np.random.default_rng(check_seed(seed))
    size = math.prod(fmt)
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    vec /= np.linalg.norm(vec)
    return StateTensor(fmt, tuple(complex(v) for v in vec), FLOAT)


def states_proportional(a: StateTensor, b: StateTensor, tol: float = DEFAULT_TOL) -> bool:
    """Whether two states are equal as rays: a = r b for one scalar r.

    Exact states compare exactly.  Float amplitudes match when each
    a_i - r b_i is zero against max|a| + |r b_i| at 10 tol, the rule of
    np.allclose with rtol = 10 tol and atol = 10 tol max|a|.
    """
    check_tol(tol)
    if a.format != b.format:
        return False
    return _rays_equal(a.amplitudes, b.amplitudes, tol)


def pivot_index(values: Sequence) -> int:
    """Index of the first nonzero entry (exact) or of the largest magnitude (float)."""
    if is_exact(values[0]):
        return next(i for i, x in enumerate(values) if x)
    return max(range(len(values)), key=lambda i: abs(values[i]))


def _rays_equal(a: Sequence, b: Sequence, tol: float) -> bool:
    """Whether amplitude sequence `a` is r b, r read at b's pivot (see states_proportional)."""
    exact = is_exact(a[0]) and is_exact(b[0])
    if not exact:
        a, b = [as_float(x) for x in a], [as_float(x) for x in b]
    pivot = pivot_index(b)
    if not a[pivot]:
        return False
    ratio = a[pivot] / b[pivot]
    top = 0.0 if exact else max(abs(x) for x in a)
    # an exact difference is tested exactly, so its scale stays 0.0 and unread
    return all(scalar_is_zero(x - (rb := y * ratio), top and top + abs(rb), 10 * tol) for x, y in zip(a, b))


def norm_squared(state: StateTensor):
    """Sum of squared amplitude magnitudes; exact in exact mode."""
    if state.field_tag == EXACT:
        return sum((a.abs_squared() for a in state.amplitudes), Fraction(0))
    return float(sum(abs(a) ** 2 for a in state.amplitudes))
