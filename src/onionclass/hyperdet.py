"""Hyperdeterminant evaluation for the supported formats.

Explicit polynomials cover the 2x2, 2x2x2, and 3x2x2 formats.  The 2x2x2x2
value is the discriminant of the binary quartic det3(x0 A0 + x1 A1) of the
party-0 slice pencil, (4 I^3 - J^2) / 6912 in the quartic's invariants.
Each polynomial has one body, on the (re, im) pairs that _pairs gives every
field; the calibrated Schlafli lift stays as an exact reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import UnsupportedFormat, WrongFormat
from .scalars import (
    EXACT,
    FLOAT,
    GaussianRational,
    as_exact,
    as_float,
    dyadic_numerators,
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


def _pairs(values):
    """(pairs, back) for `values` of one field; back(p, degree, k) is p / k in it, p a degree-`degree` result.

    Gaussian rationals give integer numerators over one denominator d, and
    so do floats, exactly (d is a power of two); back divides by k d**degree
    once, so a float result is the exact value of its input rounded once.
    Values q of the extension field give (q, 0), whose results hold their value in p[0].
    """
    num = numerators(values)
    if num is not None:
        pairs, d = num
        return pairs, lambda p, degree, k=1: reduced(p[0], p[1], k * d ** degree)
    if is_exact(values[0]):
        return [(q, 0) for q in values], lambda p, degree, k=1: p[0] / k
    pairs, d = dyadic_numerators(values)
    return pairs, lambda p, degree, k=1: complex(*(_quotient(x, k * d ** degree) for x in p))


def _quotient(n: int, d: int) -> float:
    """n / d for d > 0, rounded once, or an infinity past the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def pairing(state: StateTensor, x: ProductVector):
    """Contraction F(A, x) = sum a_i x1[i1] ... xn[in]; multilinear in x."""
    x.check_shape(state.format)
    amps, fmt = state.amplitudes, state.format
    for p, f in enumerate(x.factors):
        amps = mode_product(amps, fmt, p, (f,))
        fmt = fmt[:p] + (1,) + fmt[p + 1:]
    return amps[0]


def _det(state: StateTensor, kernel, k: int = 1):
    """The hyperdeterminant kernel(pairs) / k, of degree DEGREES[format] (always even), in the state's field.

    A float state keeps (StateTensor.cached) its zero test's ratio q = |Det| / max|a|**degree = |p| / (k
    m**(degree/2)), m = max(x^2 + y^2): the power of two under the pairs cancels, and the quotient is taken
    near 1 and scaled by 2**j, so q is finite at every scale and 0 only when p is (tiny: the least float).
    """
    pairs, back = _pairs(state.amplitudes)
    p, degree = kernel(pairs), DEGREES[state.format]
    if state.field_tag == FLOAT:
        n, dq = p[0] * p[0] + p[1] * p[1], k * k * max(x * x + y * y for x, y in pairs) ** degree
        j = (n.bit_length() - dq.bit_length()) // 2  # q**2 = n / dq
        q = math.ldexp(math.sqrt((n << max(-2 * j, 0)) / (dq << max(2 * j, 0))), j)
        state.cached("det ratio", lambda s: max(q, math.ulp(0.0)) if n else 0.0)
    return back(p, degree, k)


def det2(state: StateTensor):
    """Ordinary 2x2 determinant a00 a11 - a01 a10; exact scalars multiply as they stand, floats round once."""
    _require_format(state, (2, 2))
    a = state.amplitudes
    return _det(state, lambda p: _pdet(*p)) if state.field_tag == FLOAT else a[0] * a[3] - a[1] * a[2]


def det3(state: StateTensor):
    """Cayley's 2x2x2 hyperdeterminant, the explicit degree-4 polynomial."""
    _require_format(state, (2, 2, 2))
    return _det(state, _cayley)


def _cayley(a):
    """det3 on pairs: Cayley's quads - 2 cross + 4 diag monomials, over shared products."""
    p = [gauss_mul(a[i], a[7 - i]) for i in range(4)]  # a0 a7, a1 a6, a2 a5, a3 a4
    quads = gauss_dot(p, p)
    cross = gauss_dot(*zip(*itertools.combinations(p, 2)))
    diag = gauss_dot((gauss_mul(a[0], a[3]), gauss_mul(a[1], a[2])), (gauss_mul(a[5], a[6]), gauss_mul(a[4], a[7])))
    return tuple(q - 2 * c + 4 * g for q, c, g in zip(quads, cross, diag))


def _pdet(p, q, r, s):
    """p s - q r on pairs."""
    return (p[0] * s[0] - p[1] * s[1] - q[0] * r[0] + q[1] * r[1],
            p[0] * s[1] + p[1] * s[0] - q[0] * r[1] - q[1] * r[0])


def det322(state: StateTensor):
    """Boundary-format 3x2x2 hyperdeterminant m1 m4 - m2 m3 (degree 6) of the minors322."""
    _require_format(state, (3, 2, 2))
    return _det(state, lambda a: _pdet(*_minor_pairs(a)))


def minors322(state: StateTensor):
    """The four 3x3 minors m_j of the party-0 flattening, column j removed."""
    _require_format(state, (3, 2, 2))
    pairs, back = _pairs(state.amplitudes)
    return tuple(back(m, 3) for m in _minor_pairs(pairs))


def _minor_pairs(a):
    """minors322 on pairs, each minor expanded along row 0."""
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
    _require_format(state, (2, 2))
    return _measure(state, 2)


def three_tangle(state: StateTensor):
    """Three-qubit tangle 4|det3| (float) or its square 16|det3|^2 (exact)."""
    _require_format(state, (2, 2, 2))
    return _measure(state, 4)


def _measure(state: StateTensor, k: int):
    """k |Det| (float) or k^2 |Det|^2 (exact), Det the state's hyperdet value."""
    value = hyperdet(state).value
    if state.field_tag == EXACT:
        return k * k * value.abs_squared()
    return k * abs(value)


@dataclass(frozen=True)
class BinaryFormCoefficients:
    """Coefficients c0..cl of the slice pencil determinant.

    c_j is the coefficient of x0^(l-j) x1^j in Det(x0 A0 + x1 A1), where
    A0, A1 are the two party-0 slices and Det is det2 for 2x2x2 states and
    det3 for 2x2x2x2 states.
    """

    degree: int
    coeffs: tuple


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
    pairs, back = _pairs(state.amplitudes)
    coeffs = _pencil_pairs(pairs)
    degree = len(coeffs) - 1  # each c_j has the degree in the amplitudes that the pencil has in t
    return BinaryFormCoefficients(degree, tuple(back(c, degree) for c in coeffs))


def _ppolar(m, n):
    """Mixed term of det(M + tN) = det M + _ppolar(M, N) t + det N t^2, on pairs; M and N row-major."""
    (x, y), (u, v) = _pdet(m[0], m[1], n[2], n[3]), _pdet(n[0], n[1], m[2], m[3])
    return x + u, y + v


def _pencil_pairs(a):
    """binary_form_coeffs' c_0..c_l on the pairs of a 2x2x2 or 2x2x2x2 state."""
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
    """Product of two polynomials given as ascending sequences of pair coefficients."""
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, (a, b) in enumerate(p):
        for j, (c, d) in enumerate(q):
            x, y = out[i + j]
            out[i + j] = (x + a * c - b * d, y + a * d + b * c)
    return out


def _scaled(k: int, p):
    """The integer k times the pair p."""
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
    zero pencil needs no special case.  The coefficients are exact (Gaussian
    rationals or QuadExt), and so is the determinant (linalg.exact_det).
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
    return LiftResult(calibration * linalg.exact_det(m))


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
    amps = [0] * 16  # new_state converts every entry to the field
    for (i, j), v in {(0, 15): alpha, (3, 12): beta, (5, 10): gamma, (6, 9): delta}.items():
        amps[i] = amps[j] = v
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
    """Four-qubit hyperdeterminant of degree 24, (4 I^3 - J^2) / 6912 of the pencil quartic.

    The closed form runs on integers in every field, so it does not cancel;
    a float value rounds once, to an infinity past the float range.
    """
    _require_format(state, (2, 2, 2, 2))
    return _det(state, lambda a: _quartic_discriminant(_pencil_pairs(a)), 6912)


def _quartic_discriminant(c):
    """4 I^3 - J^2 of the quartic sum c_j x0^(4-j) x1^j, on pairs.

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
    ratio: float | None = None  # |value| / max|a|**degree of a float state, finite at every scale; None if exact


def hyperdet(state: StateTensor) -> HyperdetResult:
    """Evaluate the hyperdeterminant of any supported format, once per state (StateTensor.cached).

    Formats violating the polygon inequality (largest party dimension
    exceeding the sum of the rest) have no hypersurface dual, so the value
    is fixed at unit with defined=False.  Hypersurface formats without an
    implemented formula raise UnsupportedFormat.
    """
    return state.cached("hyperdet", _evaluate)


def _evaluate(state: StateTensor) -> HyperdetResult:
    fmt = state.format
    # built per call, so it holds det2 to det4 as bound now (wrapped ones, when traced)
    formula = {(2, 2): det2, (2, 2, 2): det3, (3, 2, 2): det322, (2, 2, 2, 2): det4}.get(fmt)
    if formula is not None:
        # formula(state) runs first and keeps a float state's ratio (_det); an exact state has none
        return HyperdetResult(True, formula(state), DEGREES[fmt], fmt, state.cached("det ratio", lambda s: None))
    ks = sorted((d - 1 for d in fmt), reverse=True)
    if len(ks) >= 2 and ks[0] > sum(ks[1:]):
        unit = GaussianRational(1) if state.field_tag == EXACT else 1.0 + 0j
        return HyperdetResult(False, unit, 0, fmt)
    raise UnsupportedFormat(f"no hyperdeterminant rule implemented for format {fmt}")
