import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onionclass.scalars import (
    GaussianRational,
    QuadExt,
    exact_sqrt,
    gaussian_sqrt,
    rational_sqrt,
    scalar_is_zero,
)


def test_field_arithmetic_closed():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(17, 4))
    assert (a * b) / b == a
    assert a - a == GaussianRational(0)
    assert not (a - a)
    assert a * 0 == GaussianRational(0)


def test_int_and_fraction_coercion():
    a = GaussianRational(3, 1)
    assert 2 * a == GaussianRational(6, 2)
    assert a + Fraction(1, 3) == GaussianRational(Fraction(10, 3), 1)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_powers():
    i = GaussianRational(0, 1)
    assert i**2 == GaussianRational(-1)
    assert i**-1 == GaussianRational(0, -1)
    assert GaussianRational(Fraction(1, 2)) ** 3 == GaussianRational(Fraction(1, 8))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


@pytest.mark.parametrize(
    "value",
    [
        GaussianRational(4),
        GaussianRational(-9),
        GaussianRational(0, 2),  # (1+i)^2
        GaussianRational(3, 4),  # (2+i)^2
        GaussianRational(2, Fraction(3, 2)),  # ((3+i)/2)^2
    ],
)
def test_gaussian_sqrt_perfect_squares(value):
    root = gaussian_sqrt(value)
    assert root is not None
    assert root * root == value


def test_gaussian_sqrt_absent():
    assert gaussian_sqrt(GaussianRational(2)) is None
    assert gaussian_sqrt(GaussianRational(1, 1)) is None


def test_quad_ext_field():
    rad = GaussianRational(2)
    x = exact_sqrt(rad)
    assert isinstance(x, QuadExt)
    assert x * x == QuadExt(2, 0, rad)
    y = (1 + x) / (1 - x)
    assert y * (1 - x) == 1 + x
    assert (x / x).simplified() == GaussianRational(1)


def test_quad_ext_mixed_radicands_rejected():
    a = QuadExt(1, 1, GaussianRational(2))
    b = QuadExt(1, 1, GaussianRational(3))
    with pytest.raises(ValueError):
        a + b


def test_scalar_is_zero_relative():
    assert scalar_is_zero(1e-12, scale=1.0, tol=1e-9)
    assert not scalar_is_zero(1e-6, scale=1.0, tol=1e-9)
    assert scalar_is_zero(1e-6, scale=1e4, tol=1e-9)
    assert scalar_is_zero(0.0, scale=0.0, tol=1e-9)
    assert not scalar_is_zero(1e-300, scale=0.0, tol=1e-9)


# --- properties against a (Fraction, Fraction) reference ---------------------

_ints = st.integers(-60, 60)
_dens = st.integers(1, 24)
_props = settings(derandomize=True, max_examples=300, deadline=None)
_EXACT_STR = re.compile(r"^(-?\d+/\d+)(?:([+-])(\d+/\d+)i)?$")


@st.composite
def _gaussians(draw):
    """A Gaussian rational and its reference pair; literals need not be in lowest terms."""
    a, b, c, e = draw(_ints), draw(_dens), draw(_ints), draw(_dens)
    ref = (Fraction(a, b), Fraction(c, e))
    if draw(st.booleans()):
        return GaussianRational(f"{a}/{b}", f"{c}/{e}"), ref
    return GaussianRational(*ref), ref


_operands = st.one_of(
    _gaussians(),
    _ints.map(lambda n: (n, (Fraction(n), Fraction(0)))),
    st.builds(lambda a, b: (Fraction(a, b), (Fraction(a, b), Fraction(0))), _ints, _dens),
)


def _ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _ref_div(p, q):
    n2 = q[0] ** 2 + q[1] ** 2
    return ((p[0] * q[0] + p[1] * q[1]) / n2, (p[1] * q[0] - p[0] * q[1]) / n2)


_REF = {
    operator.add: lambda p, q: (p[0] + q[0], p[1] + q[1]),
    operator.sub: lambda p, q: (p[0] - q[0], p[1] - q[1]),
    operator.mul: _ref_mul,
    operator.truediv: _ref_div,
}


def _matches(value, ref):
    assert isinstance(value, GaussianRational)
    assert isinstance(value.re, Fraction) and isinstance(value.im, Fraction)
    assert (value.re, value.im) == ref
    assert value == GaussianRational(*ref)


@_props
@given(_gaussians(), _operands, st.sampled_from(sorted(_REF, key=lambda f: f.__name__)))
def test_arithmetic_matches_fraction_pairs(left, right, op):
    (x, p), (y, q) = left, right
    for a, b, pa, pb in [(x, y, p, q), (y, x, q, p)]:
        if op is operator.truediv and not any(pb):
            with pytest.raises(ZeroDivisionError):
                op(a, b)
            continue
        _matches(op(a, b), _REF[op](pa, pb))


@_props
@given(_gaussians(), st.integers(-4, 4))
def test_powers_match_fraction_pairs(base, exponent):
    x, p = base
    if exponent < 0 and not any(p):
        with pytest.raises(ZeroDivisionError):
            x**exponent
        return
    ref = (Fraction(1), Fraction(0))
    for _ in range(abs(exponent)):
        ref = _ref_mul(ref, p)
    if exponent < 0:
        ref = _ref_div((Fraction(1), Fraction(0)), ref)
    _matches(x**exponent, ref)


@_props
@given(_gaussians(), _gaussians())
def test_equality_and_hash(left, right):
    (x, p), (y, q) = left, right
    assert (x == y) == (p == q)
    twin = GaussianRational(f"{3 * p[0].numerator}/{3 * p[0].denominator}", p[1])
    assert twin == x and hash(twin) == hash(x)
    # a real value hashes as the Fraction it equals, any other as its (re, im) pair
    assert hash(x) == (hash(p[0]) if p[1] == 0 else hash(p))
    assert (x == p[0]) == (p[1] == 0)
    if p[1] == 0 and p[0].denominator == 1:
        assert x == int(p[0])


@_props
@given(_gaussians())
def test_unary_surface(value):
    x, (re_, im_) = value
    assert bool(x) == (re_ != 0 or im_ != 0)
    assert x.is_real() == (im_ == 0)
    _matches(x.conjugate(), (re_, -im_))
    _matches(-x, (-re_, -im_))
    n2 = x.abs_squared()
    assert isinstance(n2, Fraction) and n2 == re_**2 + im_**2
    assert complex(x) == complex(float(re_), float(im_))
    assert abs(x) == math.sqrt(re_**2 + im_**2)


@_props
@given(_gaussians())
def test_str_lowest_terms(value):
    x, (re_, im_) = value
    text = f"{re_.numerator}/{re_.denominator}"
    if im_:
        sign = "+" if im_ > 0 else "-"
        text += f"{sign}{abs(im_).numerator}/{abs(im_).denominator}i"
    assert str(x) == text
    assert _EXACT_STR.match(str(x))


_int_parts = st.one_of(st.booleans(), st.integers(-10**20, 10**20))


@_props
@given(_int_parts, _int_parts)
def test_int_constructor_matches_fraction_path(re_, im_):
    for value, ref in [(GaussianRational(re_, im_), GaussianRational(Fraction(re_), Fraction(im_))),
                       (GaussianRational(re_), GaussianRational(Fraction(re_)))]:
        assert (value._x, value._y, value._d) == (ref._x, ref._y, ref._d)
        assert repr(value) == repr(ref)


@pytest.mark.parametrize("value, twin", [
    (GaussianRational(3), 3),
    (GaussianRational(-1), -1),
    (GaussianRational(0), 0),
    (GaussianRational(Fraction(-5, 4)), Fraction(-5, 4)),
    (QuadExt(3, 0, GaussianRational(2)), GaussianRational(3)),
    (QuadExt(3, 0, GaussianRational(2)), 3),
    (QuadExt(GaussianRational(1, 2), 0, GaussianRational(5)), GaussianRational(1, 2)),
])
def test_equal_scalars_hash_equal(value, twin):
    assert value == twin and twin == value
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1
