"""Small dense linear algebra over the exact fields, plus float helpers.

The exact routines are generic over any scalar supporting field arithmetic
and truthiness as a zero test (GaussianRational and QuadExt both qualify).
Matrices are plain lists of lists; every routine works on copies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import GaussianRational

if TYPE_CHECKING:
    import numpy as np


def _copy(rows):
    return [list(r) for r in rows]


def exact_det(rows):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    m = _copy(rows)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return m[k][k] * 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else num / prev
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return -result if sign < 0 else result


def exact_rank(rows) -> int:
    """Rank by exact row elimination."""
    if not rows:
        return 0
    m = _copy(rows)
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            if m[i][col]:
                factor = m[i][col] / pivot
                for j in range(col, n_cols):
                    m[i][j] = m[i][j] - factor * m[rank][j]
        rank += 1
        if rank == n_rows:
            break
    return rank


def exact_elimination_transform(rows):
    """Invertible E with E @ rows in row-echelon form; returns (E, rank).

    Used to rotate a flattening so its row space occupies the leading rows.
    """
    m = _copy(rows)
    n_rows = len(m)
    n_cols = len(m[0])
    one = GaussianRational(1)
    zero = GaussianRational(0)
    e = [[one if i == j else zero for j in range(n_rows)] for i in range(n_rows)]
    rank = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        e[rank], e[pivot_row] = e[pivot_row], e[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            if m[i][col]:
                factor = m[i][col] / pivot
                for j in range(n_cols):
                    m[i][j] = m[i][j] - factor * m[rank][j]
                for j in range(n_rows):
                    e[i][j] = e[i][j] - factor * e[rank][j]
        rank += 1
        if rank == n_rows:
            break
    return e, rank


def exact_solve(a_rows, b_vec):
    """Solve a square exact system by Gaussian elimination."""
    n = len(a_rows)
    m = [list(a_rows[i]) + [b_vec[i]] for i in range(n)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col]), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular system")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                factor = m[i][col] / pivot
                for j in range(col, n + 1):
                    m[i][j] = m[i][j] - factor * m[col][j]
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n]
        for j in range(i + 1, n):
            acc = acc - m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x


def char_poly(rows):
    """Monic characteristic polynomial coefficients, ascending degree.

    Faddeev-LeVerrier recursion; exact over the Gaussian rationals.
    """
    n = len(rows)
    one = GaussianRational(1)
    zero = GaussianRational(0)
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]

    def mat_mul(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)
        ]

    def mat_add_scaled_ident(a, c):
        return [
            [a[i][j] + c if i == j else a[i][j] for j in range(n)]
            for i in range(n)
        ]

    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    m = ident
    c = one
    for k in range(1, n + 1):
        m = mat_mul(rows, mat_add_scaled_ident(m, c) if k > 1 else ident)
        trace = sum((m[i][i] for i in range(n)), zero)
        c = -(trace / k)
        coeffs[n - k] = c
    return coeffs


def _bounded_divisors(n: int, bound: int = 10**6):
    """All positive divisors of |n|, or None when trial division exceeds bound."""
    n = abs(n)
    if n == 0:
        return None
    small, large = [], []
    d = 1
    while d * d <= n:
        if d > bound:
            return None
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots_if_split(coeffs):
    """All roots of a rational polynomial when it splits over the rationals.

    coeffs are ascending Fractions.  Returns the full multiset of roots, or
    None when the polynomial has an irrational root or its integer bounds
    are too large to factor quickly.
    """
    work = [Fraction(c) for c in coeffs]
    while work and work[-1] == 0:
        work.pop()
    if len(work) <= 1:
        return []
    roots = []
    while len(work) > 1:
        if work[0] == 0:
            roots.append(Fraction(0))
            work.pop(0)
            continue
        if len(work) == 2:
            roots.append(-work[0] / work[1])
            return roots
        scale = math.lcm(*(c.denominator for c in work))
        ints = [int(c * scale) for c in work]
        num_divs = _bounded_divisors(ints[0])
        den_divs = _bounded_divisors(ints[-1])
        if num_divs is None or den_divs is None:
            return None
        found = None
        for q in den_divs:
            for p in num_divs:
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    acc = Fraction(0)
                    for c in reversed(ints):
                        acc = acc * cand + c
                    if acc == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None
        roots.append(found)
        # synthetic division by (x - found): descending pass, drop remainder
        out = []
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * found + c
            out.append(acc)
        work = list(reversed(out[:-1]))
    return roots


def float_matrix(rows) -> np.ndarray:
    import numpy as np
    return np.array([[complex(x) for x in r] for r in rows], dtype=complex)


def singular_values(rows) -> np.ndarray:
    """Singular values of a matrix of scalars, largest first."""
    import numpy as np
    return np.linalg.svd(float_matrix(rows), compute_uv=False)


def float_rank(sv: np.ndarray, tol: float) -> int:
    """Numerical rank from descending singular values: those above tol times the largest."""
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int((sv > tol * sv[0]).sum())
