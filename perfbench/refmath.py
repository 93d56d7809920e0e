"""Reference arithmetic for the output checks, written apart from the package.

Gaussian integers are ``(re, im)`` pairs of Python ints, so reference
hyperdeterminants are exact whatever their size.  The mode-by-mode
contraction works on any scalar type with ``*`` and ``+``, which lets the
canonicalizer check apply exact extension-field operators too.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

import numpy as np

# Float checks: relative tolerance on a nonzero exact value, and the
# classifier's zero band (ZTOL * scale**degree) where the exact value is 0.
RTOL = 1e-6
ZTOL = 1e-9

# Exponent of det(g_j) in Det(g . T) = prod det(g_j)^(l/d_j) Det(T).
EXPONENTS = {(2, 2): (1, 1), (2, 2, 2): (2, 2, 2), (3, 2, 2): (2, 3, 3), (2, 2, 2, 2): (12, 12, 12, 12)}
DEGREES = {(2, 2): 2, (2, 2, 2): 4, (3, 2, 2): 6, (2, 2, 2, 2): 24}


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gneg(x):
    return (-x[0], -x[1])


def gpow(x, e: int):
    out = (1, 0)
    for _ in range(e):
        out = gmul(out, x)
    return out


def gdet(m):
    """Determinant of a square matrix of Gaussian integers by cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = (0, 0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = gmul(m[0][j], gdet(minor))
        total = gadd(total, term if j % 2 == 0 else gneg(term))
    return total


def _gsum(terms):
    total = (0, 0)
    for t in terms:
        total = gadd(total, t)
    return total


def _gprod(*xs):
    out = (1, 0)
    for x in xs:
        out = gmul(out, x)
    return out


def det_of(fmt, a):
    """Hyperdeterminant of Gaussian-integer amplitudes for (2,2), (2,2,2), (3,2,2)."""
    if fmt == (2, 2):
        return gadd(gmul(a[0], a[3]), gneg(gmul(a[1], a[2])))
    if fmt == (2, 2, 2):
        quads = _gsum(_gprod(x, x, y, y) for x, y in ((a[0], a[7]), (a[1], a[6]), (a[2], a[5]), (a[4], a[3])))
        cross = _gsum(_gprod(a[i], a[j], a[k], a[l]) for i, j, k, l in (
            (0, 1, 6, 7), (0, 2, 5, 7), (0, 4, 3, 7), (1, 2, 5, 6), (1, 4, 3, 6), (2, 4, 3, 5)))
        diag = gadd(_gprod(a[0], a[3], a[5], a[6]), _gprod(a[1], a[2], a[4], a[7]))
        return _gsum([quads, gmul((-2, 0), cross), gmul((4, 0), diag)])
    if fmt == (3, 2, 2):
        rows = [a[4 * r: 4 * r + 4] for r in range(3)]
        m = [gdet([[row[c] for c in range(4) if c != j] for row in rows]) for j in range(4)]
        return gadd(gmul(m[0], m[3]), gneg(gmul(m[1], m[2])))
    raise ValueError(f"no reference hyperdeterminant for {fmt}")


def generic4_product(a: int, b: int, g: int, d: int) -> int:
    """Closed-form Det of the generic four-qubit family: (abgd)^2 prod (a+-b+-g+-d)^2."""
    out = (a * b * g * d) ** 2
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                out *= (a + s1 * b + s2 * g + s3 * d) ** 2
    return out


def pushed_det(fmt, ops, rep_det: int):
    """Exact Det of the pushed state, prod det(g_j)^(l/d_j) * Det(rep)."""
    out = (rep_det, 0)
    for m, e in zip(ops, EXPONENTS[fmt]):
        out = gmul(out, gpow(gdet(m), e))
    return out


def apply_modes(amps, fmt, mats):
    """a'[i] = sum_j g1[i1,j1] ... gn[in,jn] a[j], one party at a time."""
    arr = list(amps)
    for p, m in enumerate(mats):
        d = fmt[p]
        inner = math.prod(fmt[p + 1:])
        outer = math.prod(fmt[:p])
        out = [None] * len(arr)
        for o in range(outer):
            for i in range(d):
                for s in range(inner):
                    acc = None
                    for j in range(d):
                        t = m[i][j] * arr[(o * d + j) * inner + s]
                        acc = t if acc is None else acc + t
                    out[(o * d + i) * inner + s] = acc
        arr = out
    return arr


def push_float(amps, fmt, ops) -> np.ndarray:
    """Float push of integer amplitudes by Gaussian-integer operators."""
    arr = np.array(amps, dtype=complex).reshape(fmt)
    for p, m in enumerate(ops):
        g = np.array([[complex(*x) for x in row] for row in m])
        arr = np.moveaxis(np.tensordot(g, arr, axes=([1], [p])), 0, p)
    return arr.ravel()


def proportional_exact(a, b) -> bool:
    """Exact ray equality by cross-multiplication: a_i b_p == a_p b_i."""
    p = next((i for i, x in enumerate(b) if x), None)
    if p is None or not a[p]:
        return False
    return not any(a[i] * b[p] - a[p] * b[i] for i in range(len(a)))


def proportional_float(a, b) -> bool:
    va = np.asarray(a, dtype=complex)
    vb = np.asarray(b, dtype=complex)
    p = int(np.argmax(np.abs(vb)))
    if va[p] == 0:
        return False
    return bool(np.allclose(va, vb * (va[p] / vb[p]), rtol=0, atol=RTOL * np.abs(va).max()))


def float_value_ok(value: complex, expected, scale: float, degree: int) -> bool:
    """Float Det against the exact value: relative where it is nonzero, else the zero band."""
    ev = complex(*expected)
    if ev:
        return abs(value - ev) <= RTOL * abs(ev)
    return abs(value) <= ZTOL * scale ** degree


_EXACT_RE = re.compile(r"^(-?\d+/\d+)(?:([+-])(\d+/\d+)i)?$")
_EXT_RE = re.compile(r"^\((.+)\)\+\((.+)\)\*sqrt\((.+)\)$")


def parse_exact(text: str):
    """'p/q' or 'p/q+r/si' as a pair of Fractions; None when malformed."""
    m = _EXACT_RE.match(text)
    if not m:
        return None
    re_part = Fraction(m.group(1))
    im_part = Fraction(m.group(3)) * (-1 if m.group(2) == "-" else 1) if m.group(3) else Fraction(0)
    return re_part, im_part


def scalar_value(entry) -> complex:
    """Numeric value of any CLI scalar: number, [re, im], 'p/q+r/si' or '(a)+(b)*sqrt(d)'."""
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, list):
        return complex(entry[0], entry[1])
    ext = _EXT_RE.match(entry)
    if ext:
        a, b, d = (scalar_value(g) for g in ext.groups())
        return a + b * cmath.sqrt(d)
    pair = parse_exact(entry)
    if pair is None:
        raise ValueError(f"unparseable scalar {entry!r}")
    return complex(pair[0], pair[1])
