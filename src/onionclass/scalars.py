"""Scalar fields used for amplitude arithmetic.

Every quantity in this package lives in one of two fields: exact Gaussian
rationals (complex numbers with arbitrary-precision rational components,
closed under +, -, *, /) or ordinary complex floats.  Exact arithmetic never
rounds; float arithmetic carries a relative tolerance that all zero tests
respect.  A quadratic extension field (values a + b*sqrt(d) over the
Gaussian rationals) supports the one place where a square root is
unavoidable, the splitting step of the 3-qubit canonical form.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL = 1e-9


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


_new = object.__new__


def reduced(x: int, y: int, d: int) -> "GaussianRational":
    """The Gaussian rational (x + y*i)/d for d > 0, put in lowest terms."""
    if d != 1:
        g = math.gcd(x, y, d)
        if g != 1:
            x //= g
            y //= g
            d //= g
    z = _new(GaussianRational)
    z._x = x
    z._y = y
    z._d = d
    return z


def _sum(x: int, y: int, d: int, u: int, v: int, e: int) -> "GaussianRational":
    """(x + y*i)/d + (u + v*i)/e, sharing the denominator when d == e."""
    if d == e:
        return reduced(x + u, y + v, d)
    return reduced(x * e + u * d, y * e + v * d, d * e)


def _parts(other):
    """(x, y, d) of an exact operand, or None for any other type."""
    if isinstance(other, GaussianRational):
        return other._x, other._y, other._d
    if isinstance(other, int):
        return other, 0, 1
    if isinstance(other, Fraction):
        return other.numerator, 0, other.denominator
    return None


class GaussianRational:
    """Exact complex scalar re + im*i with rational components.

    Stored as Python ints (x + y*i)/d with d > 0 and gcd(x, y, d) == 1, so
    equal values have equal triples.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._x, self._y, self._d = re, im, 1
            return
        re, im = _frac(re), _frac(im)
        b, e = re.denominator, im.denominator
        d = b * e // math.gcd(b, e)
        # re and im are in lowest terms, so over their lcm the triple is too
        self._x = re.numerator * (d // b)
        self._y = im.numerator * (d // e)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._x, self._y, self._d, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        u, v, e = o
        return _sum(self._x, self._y, self._d, -u, -v, e)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(-self._x, -self._y, self._d, *o)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        u, v, e = o
        x, y, d = self._x, self._y, self._d
        return reduced(x * u - y * v, x * v + y * u, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        u, v, e = o
        n2 = u * u + v * v
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        x, y, d = self._x, self._y, self._d
        return reduced(e * (x * u + y * v), e * (y * u - x * v), d * n2)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return reduced(*o) / self

    def __neg__(self):
        return reduced(-self._x, -self._y, self._d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return GaussianRational(1) / self ** (-exponent)
        result = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self._x, self._y, self._d) == o

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if self._y:
            return hash((self.re, self.im))
        return hash(self._x) if self._d == 1 else hash(Fraction(self._x, self._d))

    def __bool__(self):
        return bool(self._x) or bool(self._y)

    def conjugate(self) -> "GaussianRational":
        return reduced(self._x, -self._y, self._d)

    def abs_squared(self) -> Fraction:
        return Fraction(self._x * self._x + self._y * self._y, self._d * self._d)

    def __abs__(self) -> float:
        return math.sqrt(self.abs_squared())

    def is_real(self) -> bool:
        return self._y == 0

    def __complex__(self):
        return complex(self._x / self._d, self._y / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return frac_str(re)
        sign = "+" if im >= 0 else "-"
        return f"{frac_str(re)}{sign}{frac_str(abs(im))}i"


def numerators(values):
    """(pairs, d): each value as (x + y*i)/d, with (x, y) in pairs and d the lcm denominator.

    None when any value is not a GaussianRational, such as a QuadExt or a float.
    """
    if not all(type(v) is GaussianRational for v in values):
        return None
    d = math.lcm(*(v._d for v in values))
    if d == 1:
        return [(v._x, v._y) for v in values], 1
    return [(v._x * (k := d // v._d), v._y * k) for v in values], d


def dyadic_numerators(values):
    """(pairs, d) of finite complex floats as numerators gives, exactly, as d is a power of two."""
    ratios = [x.as_integer_ratio() for v in values for x in (v.real, v.imag)]
    d = max([q for _, q in ratios])
    nums = iter([p if q == d else p * (d // q) for p, q in ratios])
    return list(zip(nums, nums)), d


def gauss_mul(u, v):
    """The product of two complex numbers given as (re, im) pairs: Gaussian integers, floats or field values."""
    (a, b), (c, d) = u, v
    return a * c - b * d, a * d + b * c


def gauss_dot(us, vs):
    """sum u*v over the paired (re, im) pairs of `us` and `vs`, as one pair."""
    x = y = 0
    for (a, b), (c, d) in zip(us, vs):
        x += a * c - b * d
        y += a * d + b * c
    return x, y


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


class QuadExt:
    """Scalar a + b*sqrt(rad) over the Gaussian rationals.

    The radicand is fixed per value and must not be a perfect square in the
    base field, which keeps division well defined (a^2 - b^2*rad can then
    vanish only at zero).
    """

    __slots__ = ("a", "b", "rad")

    def __init__(self, a, b, rad: GaussianRational):
        self.a = a if isinstance(a, GaussianRational) else GaussianRational(a)
        self.b = b if isinstance(b, GaussianRational) else GaussianRational(b)
        self.rad = rad

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.rad != self.rad:
                raise ValueError("mixed radicands in quadratic extension arithmetic")
            return other
        if isinstance(other, (GaussianRational, int, Fraction)):
            return QuadExt(other, 0, self.rad)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.rad)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.rad)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.rad,
            self.a * o.b + self.b * o.a,
            self.rad,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        denom = o.a * o.a - o.b * o.b * self.rad
        if not denom:
            raise ZeroDivisionError("division by zero in quadratic extension")
        num = self * QuadExt(o.a, -o.b, self.rad)
        return QuadExt(num.a / denom, num.b / denom, self.rad)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.rad)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.rad)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def simplified(self):
        """Collapse back to the base field when the extension part is zero."""
        return self.a if not self.b else self

    def __complex__(self):
        return complex(self.a) + complex(self.b) * cmath.sqrt(complex(self.rad))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.rad!r})"

    def __str__(self):
        return f"({self.a})+({self.b})*sqrt({self.rad})"


def is_exact(value) -> bool:
    return isinstance(value, (GaussianRational, QuadExt))


def as_exact(value) -> GaussianRational:
    """Coerce ints, Fractions, pairs, and strings into a Gaussian rational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, QuadExt):
        if value.b:
            raise TypeError("cannot flatten a proper extension element")
        return value.a
    if isinstance(value, (int, Fraction, str)):
        return GaussianRational(value)
    if isinstance(value, tuple) and len(value) == 2:
        return GaussianRational(value[0], value[1])
    if isinstance(value, complex) or isinstance(value, float):
        raise TypeError("floats cannot be promoted to the exact field")
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact scalar")


def as_float(value) -> complex:
    if isinstance(value, complex):
        return value
    if isinstance(value, (int, float, Fraction, GaussianRational, QuadExt)):
        return complex(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a complex float")


def scalar_is_zero(value, scale: float = 1.0, tol: float = DEFAULT_TOL) -> bool:
    """Mode-aware zero test: exact values test exactly, floats relative to scale.

    A float is zero when |value| <= tol * scale, the scale of the object
    that contains it; at a scale of zero only an exact 0.0 is zero.
    """
    if is_exact(value):
        return not value
    return abs(value) <= tol * scale


def rational_sqrt(f: Fraction):
    """Exact square root of a nonnegative rational, or None when irrational."""
    if f < 0:
        return None
    num, den = f.numerator, f.denominator
    rn = math.isqrt(num)
    if rn * rn != num:
        return None
    rd = math.isqrt(den)
    if rd * rd != den:
        return None
    return Fraction(rn, rd)


def gaussian_sqrt(z: GaussianRational):
    """Exact square root inside the Gaussian rationals, or None if absent."""
    if z.im == 0:
        if z.re >= 0:
            r = rational_sqrt(z.re)
            return None if r is None else GaussianRational(r, 0)
        r = rational_sqrt(-z.re)
        return None if r is None else GaussianRational(0, r)
    norm = rational_sqrt(z.abs_squared())
    if norm is None:
        return None
    u = rational_sqrt((norm + z.re) / 2)
    if u is None or u == 0:
        return None
    v = z.im / (2 * u)
    return GaussianRational(u, v)


def exact_sqrt(z: GaussianRational):
    """Square root of an exact scalar, extending the field when necessary.

    Returns a GaussianRational when z is a perfect square and a QuadExt
    with radicand z otherwise.
    """
    root = gaussian_sqrt(z)
    if root is not None:
        return root
    return QuadExt(0, 1, z)
