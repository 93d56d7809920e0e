"""The exact elimination routines against independent references."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onionclass import GaussianRational
from onionclass.linalg import _echelon, exact_det, exact_elimination_transform, exact_rank, exact_solve
from onionclass.scalars import QuadExt

ZERO = GaussianRational(0)


def _gauss(rng, bound=2):
    return GaussianRational(int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1)))


def _matrix(rng, n_rows, n_cols):
    return [[_gauss(rng) for _ in range(n_cols)] for _ in range(n_rows)]


def _mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
            for i in range(len(a))]


def _rank_r(rng, n_rows, n_cols, r):
    """A product of random n_rows x r and r x n_cols factors (the zero matrix for r = 0)."""
    if r == 0:
        return [[ZERO] * n_cols for _ in range(n_rows)]
    return _mat_mul(_matrix(rng, n_rows, r), _matrix(rng, r, n_cols))


def _permutation_det(rows, zero):
    n = len(rows)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = zero + 1
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def _float_rank(rows):
    return int(np.linalg.matrix_rank(np.array([[complex(x) for x in r] for r in rows])))


def _is_echelon(rows, rank):
    leads = [next((j for j, x in enumerate(r) if x), None) for r in rows]
    return (all(lead is not None for lead in leads[:rank])
            and all(lead is None for lead in leads[rank:])
            and all(a < b for a, b in zip(leads[:rank], leads[1:rank])))


def test_det_matches_permutation_expansion(rng):
    for n in range(1, 6):
        cases = [_matrix(rng, n, n) for _ in range(8)]
        for _ in range(4):
            m = _matrix(rng, n, n)
            m[0][0] = ZERO  # zero leading pivot forces a row swap
            cases.append(m)
        if n > 1:
            cases += [_rank_r(rng, n, n, r) for r in range(n)]  # singular
            swapped = _matrix(rng, n, n)
            for i in range(n - 1):
                swapped[i][0] = ZERO  # pivot of column 0 in the last row
            cases.append(swapped)
        for m in cases:
            before = [list(r) for r in m]
            assert exact_det(m) == _permutation_det(m, ZERO)
            assert m == before
    with pytest.raises(ValueError):
        exact_det([])


def test_rank_of_rank_r_products(rng):
    for n_rows, n_cols in [(1, 3), (2, 2), (2, 4), (3, 4), (4, 4), (4, 2), (3, 8), (6, 6)]:
        for r in range(min(n_rows, n_cols) + 1):
            for _ in range(4):
                m = _rank_r(rng, n_rows, n_cols, r)
                rank = exact_rank(m)
                assert rank <= r
                assert rank == _float_rank(m)
    assert exact_rank([]) == 0


def test_elimination_transform_is_invertible_and_echelons(rng):
    for n_rows, n_cols in [(2, 2), (2, 4), (3, 4), (4, 4), (4, 2), (3, 8)]:
        for r in range(min(n_rows, n_cols) + 1):
            for _ in range(3):
                m = _rank_r(rng, n_rows, n_cols, r)
                e, rank = exact_elimination_transform(m)
                assert rank == exact_rank(m)
                assert len(e) == n_rows and all(len(row) == n_rows for row in e)
                assert exact_det(e)
                assert _is_echelon(_mat_mul(e, m), rank)


def test_solve_satisfies_system_and_rejects_singular(rng):
    for n in range(1, 6):
        for trial in range(6):
            a = _matrix(rng, n, n)
            if trial % 2:
                a[0][0] = ZERO
            if not exact_det(a):
                continue
            b = [_gauss(rng, 5) for _ in range(n)]
            x = exact_solve(a, b)
            assert [sum((a[i][j] * x[j] for j in range(n)), ZERO) for i in range(n)] == b
        if n > 1:
            with pytest.raises(ZeroDivisionError):
                exact_solve(_rank_r(rng, n, n, n - 1), [_gauss(rng) for _ in range(n)])


def test_quadratic_extension_rank_and_det():
    rad = GaussianRational(2)
    s = QuadExt(0, 1, rad)  # sqrt(2)
    q = [[s, QuadExt(GaussianRational(1, 1), 0, rad), QuadExt(3, -1, rad)],
         [QuadExt(1, 1, rad), QuadExt(0, 0, rad), s],
         [QuadExt(GaussianRational(0, 2), 1, rad), QuadExt(2, 0, rad), QuadExt(1, 0, rad)]]
    zero = QuadExt(0, 0, rad)
    det = exact_det(q)
    assert isinstance(det, QuadExt)
    assert det == _permutation_det(q, zero) and det
    # rows (sqrt2, 2) and (1, sqrt2) are dependent over the extension only
    singular = [[s, QuadExt(2, 0, rad)], [QuadExt(1, 0, rad), s]]
    assert exact_rank(singular) == 1
    assert not exact_det(singular)
    assert exact_rank(q) == 3


# --- the numerator kernels against _echelon and a cofactor expansion ----------

_props = settings(derandomize=True, max_examples=150, deadline=None)
_entries = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b, c, e: GaussianRational(Fraction(a, c), Fraction(b, e)),
              st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 6), st.integers(1, 6)),
)


@st.composite
def _kernel_matrices(draw, square):
    """Matrices with mixed denominators, some with a dependent row, a zero row or a zero column."""
    n_rows = draw(st.integers(1, 4))
    n_cols = n_rows if square else draw(st.integers(1, 6))
    m = [[draw(_entries) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n_rows)))[:2]
        c = draw(_entries)
        m[i] = [c * x for x in m[j]]
    if draw(st.booleans()):
        k = draw(st.integers(0, n_cols - 1))
        for row in m:
            row[k] = ZERO
    return m


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    minors = ([r[:j] + r[j + 1:] for r in rows[1:]] for j in range(len(rows)))
    return sum(((-1) ** j * rows[0][j] * _cofactor_det(minor) for j, minor in enumerate(minors)), ZERO)


@_props
@given(_kernel_matrices(square=False))
def test_rank_kernel_matches_echelon(m):
    assert exact_rank(m) == len(_echelon(m, len(m[0]))[1])


@_props
@given(_kernel_matrices(square=True))
def test_det_kernel_matches_cofactor_expansion(m):
    det = exact_det(m)
    assert isinstance(det, GaussianRational)
    assert det == _cofactor_det(m)
