"""Small dense linear algebra over the exact fields, plus float helpers.

Rank and determinant of an all-GaussianRational matrix eliminate on its
Gaussian-integer numerators (`_bareiss`).  Every other exact routine, and
rank and determinant over QuadExt, is generic over any field scalar with
truthiness as its zero test and reads one row-echelon elimination
(`_echelon`).  Matrices are plain lists of lists; every routine works on
copies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import GaussianRational, numerators, reduced

if TYPE_CHECKING:
    import numpy as np


def _echelon(rows, n_pivot: int):
    """Row-echelon form of a copy of `rows` by exact Gaussian elimination.

    Pivots are sought in the leading `n_pivot` columns only, each column's
    first nonzero entry at or below the current rank; any further columns
    ride along with the row operations (a solve's right-hand side, or the
    identity block that becomes the transform E).  Returns (m, pivots,
    swaps): the reduced rows, the pivot column of each of the leading
    len(pivots) rows, and the number of row swaps made.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    width = len(m[0]) if m else 0
    pivots = []
    swaps = 0
    for col in range(n_pivot):
        rank = len(pivots)
        if rank == n_rows:
            break
        pivot_row = next((i for i in range(rank, n_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            swaps += 1
        top = m[rank]
        pivot = top[col]
        for i in range(rank + 1, n_rows):
            row = m[i]
            if row[col]:
                factor = row[col] / pivot
                for j in range(col, width):
                    row[j] = row[j] - factor * top[j]
        pivots.append(col)
    return m, pivots, swaps


def _bareiss(rows, n_cols: int):
    """Fraction-free elimination on the Gaussian-integer numerators of `rows`, over their denominator d.

    Pivots are those of `_echelon`.  Each entry becomes a minor of the
    matrix (Sylvester's identity), so division by the previous pivot is
    exact (Bareiss, Math. Comp. 22, 1968).  Returns (rank, last pivot,
    swaps, d), or None unless every entry is a GaussianRational.
    """
    flat = numerators([x for r in rows for x in r])
    if flat is None:
        return None
    pairs, d = flat
    n_rows = len(rows)
    m = [pairs[i * n_cols:(i + 1) * n_cols] for i in range(n_rows)]
    rank = swaps = 0
    u, v = 1, 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot_row = next((i for i in range(rank, n_rows) if m[i][col] != (0, 0)), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            swaps += 1
        top = m[rank]
        p, q = top[col]
        n2 = u * u + v * v
        for row in m[rank + 1:]:
            a, b = row[col]
            for j in range(col + 1, n_cols):
                (x, y), (s, t) = row[j], top[j]
                re = p * x - q * y - a * s + b * t
                im = p * y + q * x - a * t - b * s
                row[j] = ((re * u + im * v) // n2, (im * u - re * v) // n2)
        u, v = p, q
        rank += 1
    return rank, (u, v), swaps, d


def exact_det(rows):
    """Determinant by exact elimination, a field zero when singular."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    fast = _bareiss(rows, n)
    if fast is not None:
        rank, (x, y), swaps, d = fast
        sign = (-1) ** swaps
        return reduced(sign * x, sign * y, d ** n) if rank == n else GaussianRational(0)
    m, pivots, swaps = _echelon(rows, n)
    if len(pivots) < n:
        return rows[0][0] * 0
    result = m[0][0]
    for i in range(1, n):
        result = result * m[i][i]
    return -result if swaps % 2 else result


def exact_rank(rows) -> int:
    """Rank by exact row elimination."""
    n_cols = len(rows[0]) if rows else 0
    fast = _bareiss(rows, n_cols)
    return len(_echelon(rows, n_cols)[1]) if fast is None else fast[0]


def exact_elimination_transform(rows):
    """Invertible E with E @ rows in row-echelon form; returns (E, rank).

    Used to rotate a flattening so its row space occupies the leading rows.
    """
    n_rows, n_cols = len(rows), len(rows[0])
    one = GaussianRational(1)
    zero = GaussianRational(0)
    augmented = [list(r) + [one if i == j else zero for j in range(n_rows)] for i, r in enumerate(rows)]
    m, pivots, _ = _echelon(augmented, n_cols)
    return [r[n_cols:] for r in m], len(pivots)


def exact_solve(a_rows, b_vec):
    """Solve a square exact system by elimination and back substitution."""
    n = len(a_rows)
    m, pivots, _ = _echelon([list(a_rows[i]) + [b_vec[i]] for i in range(n)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular system")
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
    """A complex array of scalars; numpy reads each through its __complex__ or __float__."""
    import numpy as np
    return np.array(rows, dtype=complex)


def singular_values(rows) -> np.ndarray:
    """Singular values of a matrix of scalars, largest first."""
    import numpy as np
    return np.linalg.svd(float_matrix(rows), compute_uv=False)
