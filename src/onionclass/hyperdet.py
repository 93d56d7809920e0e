"""Hyperdeterminant evaluation for the supported formats.

Explicit polynomials cover the 2x2, 2x2x2, and 3x2x2 formats.  The 2x2x2x2
value is the discriminant of the binary quartic det3(x0 A0 + x1 A1) of the
party-0 slice pencil.  Exact states take it in closed form from the
quartic's invariants, (4 I^3 - J^2) / 6912.  Float states take the
calibrated Schlafli lift, the resultant of the quartic's two partial
derivatives, because the closed form cancels in floating point; the
calibration constants pin the lift to the explicit ground-truth formulas,
removing any sign or scale ambiguity.

On Gaussian-rational amplitudes, det3, det322, binary_form_coeffs and
det4 evaluate their polynomials on the integer numerators over one
denominator (scalars.numerators) and reduce each result once.  Float and
extension-field amplitudes take the same polynomials with their own
operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import UnsupportedFormat, WrongFormat
from .scalars import (
    EXACT,
    GaussianRational,
    as_exact,
    as_float,
    gauss_dot,
    gauss_mul,
    is_exact,
    numerators,
    reduced,
)
from .tensor import ProductVector, StateTensor, mode_product, new_state

#: Degree of homogeneity of the hyperdeterminant per supported format.
DEGREES = {(2, 2): 2, (2, 2, 2): 4, (3, 2, 2): 6, (2, 2, 2, 2): 24}


def _require_format(state: StateTensor, fmt: tuple[int, ...]):
    if state.format != fmt:
        raise WrongFormat(f"expected format {fmt}, got {state.format}")


def pairing(state: StateTensor, x: ProductVector):
    """Contraction F(A, x) = sum a_i x1[i1] ... xn[in]; multilinear in x."""
    x.check_shape(state.format)
    amps, fmt = state.amplitudes, state.format
    for p, f in enumerate(x.factors):
        amps = mode_product(amps, fmt, p, (f,))
        fmt = fmt[:p] + (1,) + fmt[p + 1:]
    return amps[0]


def det2(state: StateTensor):
    """Ordinary 2x2 determinant a00 a11 - a01 a10."""
    _require_format(state, (2, 2))
    a = state.amplitudes
    return a[0] * a[3] - a[1] * a[2]


def det3(state: StateTensor):
    """Cayley's 2x2x2 hyperdeterminant, the explicit degree-4 polynomial."""
    _require_format(state, (2, 2, 2))
    num = numerators(state.amplitudes)
    if num is not None:
        return reduced(*_cayley(num[0]), num[1] ** 4)
    a = state.amplitudes
    quads = a[0] * a[0] * a[7] * a[7] + a[1] * a[1] * a[6] * a[6] \
        + a[2] * a[2] * a[5] * a[5] + a[4] * a[4] * a[3] * a[3]
    cross = a[0] * a[1] * a[6] * a[7] + a[0] * a[2] * a[5] * a[7] \
        + a[0] * a[4] * a[3] * a[7] + a[1] * a[2] * a[5] * a[6] \
        + a[1] * a[4] * a[3] * a[6] + a[2] * a[4] * a[3] * a[5]
    diag = a[0] * a[3] * a[5] * a[6] + a[1] * a[2] * a[4] * a[7]
    return quads - 2 * cross + 4 * diag


def _cayley(a):
    """det3 on Gaussian-integer pairs: the same quads, cross and diag monomials, over shared products."""
    p = [gauss_mul(a[i], a[7 - i]) for i in range(4)]  # a0 a7, a1 a6, a2 a5, a3 a4
    quads = gauss_dot(p, p)
    cross = gauss_dot(*zip(*itertools.combinations(p, 2)))
    diag = gauss_dot((gauss_mul(a[0], a[3]), gauss_mul(a[1], a[2])), (gauss_mul(a[5], a[6]), gauss_mul(a[4], a[7])))
    return tuple(q - 2 * c + 4 * g for q, c, g in zip(quads, cross, diag))


def _pdet(p, q, r, s):
    """p s - q r on Gaussian-integer pairs."""
    return (p[0] * s[0] - p[1] * s[1] - q[0] * r[0] + q[1] * r[1],
            p[0] * s[1] + p[1] * s[0] - q[0] * r[1] - q[1] * r[0])


def _minor3(rows, drop_col: int):
    keep = [c for c in range(4) if c != drop_col]
    return _det3x3([[rows[r][c] for c in keep] for r in range(3)])


def _det3x3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def det322(state: StateTensor):
    """Boundary-format 3x2x2 hyperdeterminant m1 m4 - m2 m3 (degree 6).

    The m_j are the 3x3 minors of the party-0 flattening with column j
    removed.
    """
    _require_format(state, (3, 2, 2))
    num = numerators(state.amplitudes)
    if num is not None:
        return reduced(*_pdet(*_minor_pairs(num[0])), num[1] ** 6)
    m1, m2, m3, m4 = minors322(state)
    return m1 * m4 - m2 * m3


def minors322(state: StateTensor):
    """The four 3x3 minors entering the 3x2x2 hyperdeterminant."""
    _require_format(state, (3, 2, 2))
    a = state.amplitudes
    rows = [[a[4 * r + c] for c in range(4)] for r in range(3)]
    return tuple(_minor3(rows, j) for j in range(4))


def _minor_pairs(a):
    """minors322 on Gaussian-integer pairs, each minor expanded along row 0."""
    r0, r1, r2 = a[0:4], a[4:8], a[8:12]
    d = {(j, k): _pdet(r1[j], r1[k], r2[j], r2[k]) for j, k in itertools.combinations(range(4), 2)}
    minors = []
    # the m-th minor keeps the three columns other than m
    for j, k, l in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
        x, y = gauss_dot((r0[j], r0[l]), (d[k, l], d[j, k]))
        u, v = gauss_mul(r0[k], d[j, l])
        minors.append((x - u, y - v))
    return minors


def concurrence(state: StateTensor):
    """Two-qubit concurrence 2|det2|.

    Float mode returns the measure itself; exact mode returns the squared
    measure 4 |det2|^2, which stays rational.
    """
    value = det2(state)
    if state.field_tag == EXACT:
        return 4 * value.abs_squared()
    return 2.0 * abs(value)


def three_tangle(state: StateTensor):
    """Three-qubit tangle 4|det3| (float) or its square 16|det3|^2 (exact)."""
    value = det3(state)
    if state.field_tag == EXACT:
        return 16 * value.abs_squared()
    return 4.0 * abs(value)


@dataclass(frozen=True)
class BinaryFormCoefficients:
    """Coefficients c0..cl of the slice pencil determinant.

    c_j is the coefficient of x0^(l-j) x1^j in Det(x0 A0 + x1 A1), where
    A0, A1 are the two party-0 slices and Det is det2 for 2x2x2 states and
    det3 for 2x2x2x2 states.
    """

    degree: int
    coeffs: tuple


def _det(m):
    """Determinant of a 2x2 matrix given row-major as four entries."""
    return m[0] * m[3] - m[1] * m[2]


def _polar(m, n):
    """Mixed term of det(M + tN) = det M + _polar(M, N) t + det N t^2."""
    return m[0] * n[3] + n[0] * m[3] - m[1] * n[2] - n[1] * m[2]


def _poly_mul(p, q):
    """Product of two polynomials given as ascending coefficient sequences."""
    out = [p[0] * 0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = out[i + j] + x * y
    return out


def binary_form_coeffs(state: StateTensor) -> BinaryFormCoefficients:
    """Expand the party-0 slice pencil of a 2x2x2 or 2x2x2x2 state.

    For 2x2x2 the pencil is det(A0 + t A1), a quadratic in t.  For
    2x2x2x2 the pencil tensor A0 + t A1 is 2x2x2 with party-0 slices
    M0 + t N0 and M1 + t N1, and Cayley's det3 of it is p1^2 - 4 p0 p2 with
    p0 = det(M0 + t N0), p2 = det(M1 + t N1) and p1 their mixed term, all
    quadratics in t.
    """
    if state.format not in ((2, 2, 2), (2, 2, 2, 2)):
        raise WrongFormat(f"no slice pencil for format {state.format}; expected 2x2x2 or 2x2x2x2")
    num = numerators(state.amplitudes)
    if num is not None:
        coeffs = _pencil_pairs(num[0])
        degree = len(coeffs) - 1  # each c_j has the degree in the amplitudes that the pencil has in t
        return BinaryFormCoefficients(degree, tuple(reduced(x, y, num[1] ** degree) for x, y in coeffs))
    a = state.amplitudes
    if state.format == (2, 2, 2):
        m, n = a[0:4], a[4:8]
        coeffs = (_det(m), _polar(m, n), _det(n))
    else:
        m0, m1, n0, n1 = a[0:4], a[4:8], a[8:12], a[12:16]
        p0 = (_det(m0), _polar(m0, n0), _det(n0))
        p1 = (_polar(m0, m1), _polar(m0, n1) + _polar(n0, m1), _polar(n0, n1))
        p2 = (_det(m1), _polar(m1, n1), _det(n1))
        coeffs = tuple(u - 4 * v for u, v in zip(_poly_mul(p1, p1), _poly_mul(p0, p2)))
    return BinaryFormCoefficients(len(coeffs) - 1, coeffs)


def _ppolar(m, n):
    """_polar on Gaussian-integer pairs."""
    (x, y), (u, v) = _pdet(m[0], m[1], n[2], n[3]), _pdet(n[0], n[1], m[2], m[3])
    return x + u, y + v


def _pencil_pairs(a):
    """binary_form_coeffs' c_0..c_l on the Gaussian-integer pairs of a 2x2x2 or 2x2x2x2 state."""
    if len(a) == 8:
        m, n = a[0:4], a[4:8]
        return [_pdet(*m), _ppolar(m, n), _pdet(*n)]
    m0, m1, n0, n1 = a[0:4], a[4:8], a[8:12], a[12:16]
    p0 = (_pdet(*m0), _ppolar(m0, n0), _pdet(*n0))
    (x, y), (u, v) = _ppolar(m0, n1), _ppolar(n0, m1)
    p1 = (_ppolar(m0, m1), (x + u, y + v), _ppolar(n0, n1))
    p2 = (_pdet(*m1), _ppolar(m1, n1), _pdet(*n1))
    return [(x - 4 * u, y - 4 * v) for (x, y), (u, v) in zip(_ppoly_mul(p1, p1), _ppoly_mul(p0, p2))]


def _ppoly_mul(p, q):
    """_poly_mul on Gaussian-integer pair coefficients."""
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, (a, b) in enumerate(p):
        for j, (c, d) in enumerate(q):
            x, y = out[i + j]
            out[i + j] = (x + a * c - b * d, y + a * d + b * c)
    return out


def _scaled(k: int, p):
    """The integer k times the Gaussian-integer pair p."""
    return k * p[0], k * p[1]


@dataclass(frozen=True)
class LiftResult:
    """Value of the Schlafli lift.

    retries_used is always 0: the resultant needs no repair of a
    vanishing leading coefficient.  The field stays for callers that
    read it.
    """

    value: object
    retries_used: int = 0


def schlafli_lift(coeffs: BinaryFormCoefficients, calibration) -> LiftResult:
    """calibration * Res(df/dx0, df/dx1) for f = sum_j c_j x0^(l-j) x1^j.

    The resultant is the determinant of the order 2l-2 Sylvester matrix of
    the two partial derivatives, each of degree l-1: l-1 shifted rows of
    ((l-j) c_j) above l-1 shifted rows of ((j+1) c_(j+1)).  It is a
    polynomial in the c_j, so a zero leading coefficient or an identically
    zero pencil needs no special case.
    """
    cs = coeffs.coeffs
    l = len(cs) - 1
    if l < 2:
        raise ValueError("need degree at least 2")
    d0 = [(l - j) * cs[j] for j in range(l)]
    d1 = [(j + 1) * cs[j + 1] for j in range(l)]
    n = 2 * l - 2
    zero = cs[0] * 0
    m = [[zero] * n for _ in range(n)]
    for r in range(l - 1):
        m[r][r : r + l] = d0
        m[l - 1 + r][r : r + l] = d1
    if is_exact(cs[0]):
        res = linalg.exact_det(m)
    else:
        import numpy as np
        res = complex(np.linalg.det(linalg.float_matrix(m)))
    return LiftResult(calibration * res)


#: Calibration pinning the degree-2 lift to the explicit 2x2x2 polynomial.
K3 = GaussianRational(-1)

#: Calibration pinning the degree-4 lift to the generic-family ground truth,
#: fixed once from the exact evaluation at (2, 1, 1, 1).
K4 = GaussianRational(Fraction(1, 4096))


def generic4_state(alpha, beta, gamma, delta, field_tag: str = EXACT) -> StateTensor:
    """The generic four-qubit family state with coefficients (a, b, g, d).

    Places a on |0000>+|1111>, b on |0011>+|1100>, g on |0101>+|1010>,
    and d on |0110>+|1001>.
    """
    coerce = as_exact if field_tag == EXACT else as_float
    a, b, g, d = (coerce(v) for v in (alpha, beta, gamma, delta))
    zero = a * 0
    amps = [zero] * 16
    pairs = {(0, 15): a, (3, 12): b, (5, 10): g, (6, 9): d}
    for (i, j), v in pairs.items():
        amps[i] = v
        amps[j] = v
    return new_state((2, 2, 2, 2), amps, field_tag)


def generic4_product(alpha, beta, gamma, delta, field_tag: str = EXACT):
    """Closed-form hyperdeterminant of the generic four-qubit family.

    The product of the twelve squared factors: the four coefficients and
    the eight signed sums a +- b +- g +- d.
    """
    coerce = as_exact if field_tag == EXACT else as_float
    a, b, g, d = (coerce(v) for v in (alpha, beta, gamma, delta))
    result = (a * b * g * d) ** 2
    for s1, s2, s3 in itertools.product((1, -1), repeat=3):
        factor = a + s1 * b + s2 * g + s3 * d
        result = result * factor * factor
    return result


def det4(state: StateTensor):
    """Four-qubit hyperdeterminant of degree 24.

    Gaussian-rational states take the closed form (4 I^3 - J^2) / 6912 of
    the pencil quartic's invariants; float and extension-field states take
    the Schlafli lift calibrated by K4.
    """
    _require_format(state, (2, 2, 2, 2))
    num = numerators(state.amplitudes)
    if num is not None:
        return reduced(*_quartic_discriminant(_pencil_pairs(num[0])), 6912 * num[1] ** 24)
    calibration = K4 if state.field_tag == EXACT else complex(K4)
    return schlafli_lift(binary_form_coeffs(state), calibration).value


def _quartic_discriminant(c):
    """4 I^3 - J^2 of the quartic sum c_j x0^(4-j) x1^j, on Gaussian-integer pairs.

    I = 12 c0 c4 - 3 c1 c3 + c2^2 and
    J = 72 c0 c2 c4 + 9 c1 c2 c3 - 27 c0 c3^2 - 27 c1^2 c4 - 2 c2^3.
    """
    c0, c1, c2, c3, c4 = c
    i = gauss_dot((c0, c1, c2), (_scaled(12, c4), _scaled(-3, c3), c2))
    j = gauss_dot((gauss_mul(c0, c2), gauss_mul(c1, c2), gauss_mul(c0, c3), gauss_mul(c1, c1), gauss_mul(c2, c2)),
                  (_scaled(72, c4), _scaled(9, c3), _scaled(-27, c3), _scaled(-27, c4), _scaled(-2, c2)))
    return gauss_dot((gauss_mul(i, i), j), (_scaled(4, i), _scaled(-1, j)))


@dataclass(frozen=True)
class HyperdetResult:
    """Dispatch result; defined is False when the dual variety has codimension > 1."""

    defined: bool
    value: object
    degree: int
    format: tuple[int, ...]


def hyperdet(state: StateTensor) -> HyperdetResult:
    """Evaluate the hyperdeterminant of any supported format.

    Formats violating the polygon inequality (largest party dimension
    exceeding the sum of the rest) have no hypersurface dual, so the value
    is fixed at unit with defined=False.  Hypersurface formats without an
    implemented formula raise UnsupportedFormat.
    """
    fmt = state.format
    # built per call, so it holds det2 to det4 as bound now (wrapped ones, when traced)
    formula = {(2, 2): det2, (2, 2, 2): det3, (3, 2, 2): det322, (2, 2, 2, 2): det4}.get(fmt)
    if formula is not None:
        return HyperdetResult(True, formula(state), DEGREES[fmt], fmt)
    ks = sorted((d - 1 for d in fmt), reverse=True)
    if len(ks) >= 2 and ks[0] > sum(ks[1:]):
        unit = GaussianRational(1) if state.field_tag == EXACT else 1.0 + 0j
        return HyperdetResult(False, unit, 0, fmt)
    raise UnsupportedFormat(f"no hyperdeterminant rule implemented for format {fmt}")
