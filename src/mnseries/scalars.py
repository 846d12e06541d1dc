"""Exact coefficient fields: rationals, prime fields F_p, and quadratic fields Q(sqrt m).

Everything is exact; no floating point is used anywhere. The three field kinds
are closed, and the series/crossed machinery is written against the small
contract the field objects expose: from_int (zero and one are its values at
0 and 1), arithmetic, inv (a value is a unit exactly when inv accepts it),
text parsing and random sampling. Fields carry no automorphisms: a crossed
system's action is a function of its own (quadratic-conj-Z conjugates
through QuadraticFieldElement.conjugate).

A rational, and each part of an element of Q(sqrt m), is an int when it is
integral and a Fraction otherwise: int arithmetic is several times faster than
Fraction arithmetic, and the Magnus images and unit words are integral. The
two print the same (str(3) == str(Fraction(3))) and equal values hash equal.
Products and sums of Fractions may stay Fractions even when integral; only
parsing, sampling and inversion normalise. field.inv is the one field-level
coefficient division, since 1 / x on two ints would be a float; series
inversion over Q divides its integer numerators once per output coefficient,
as an exact ratio of ints.
"""

from __future__ import annotations

import re
from collections import _tuplegetter
from fractions import Fraction


class FieldMismatchError(ValueError):
    """Two scalars from different fields met in a single operation."""


_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_MOD_RE = re.compile(r"^(\d+) mod (\d+)$")
_QUAD_RE = re.compile(r"^(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)\*sqrt\((-?\d+)\)$")


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    match = _RAT_RE.match(text)
    if match is None:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    # the two parts are validated digit strings, which int reads as
    # Fraction(text) would
    numerator, denominator = match.groups("1")
    denominator = int(denominator)
    if not denominator:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(numerator), denominator)


def normal_rational(x):
    """An int or Fraction as an int when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def randint(rng, lo: int, hi: int) -> int:
    """A random int in [lo, hi] from a random.Random, drawn as its randint
    draws on CPython 3.10 to 3.13: getrandbits of the bit length of the range
    size, redrawn while the value falls past the range, so a seeded rng gives
    the same values, at a third of the cost. The package's one integer draw."""
    size = hi - lo + 1
    if size < 1:
        raise ValueError(f"empty range for randint ({lo}, {hi})")
    bits = size.bit_length()
    r = rng.getrandbits(bits)
    while r >= size:
        r = rng.getrandbits(bits)
    return lo + r


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
# is_square_free trial-divides up to the square root: below 2**31 that stops by 46,341
RADICAND_LIMIT = 2 ** 31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # Miller-Rabin on the 12 bases 2..37: exact below PSI_12, the least
    # strong pseudoprime to all of them (Sorenson and Webster 2015)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_square_free(m: int) -> bool:
    m = abs(m)
    if m == 0:
        return False
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        while m % p == 0:
            m //= p
        p += 1
    return True


class TupleValue(tuple):
    """An immutable value held as the tuple of its fields: the base of every
    immutable value in the package, the group and field elements, the group,
    field, subgroup-ring and free-monoid contexts, free words, series and
    reports.

    A subclass names its fields in _fields, declares __slots__ = () and
    builds its values through tuple.__new__, validating its arguments in
    __new__; each field reads as a read-only attribute. The hash is the
    tuple's own, run in C, so a value hashes as the tuple of its fields;
    only GradedSeries hashes otherwise, on its context, degree and the items
    of its term dict, as a dict has no hash. Equality compares the fields as
    the tuple does, but a value equals only a value of its own class, never
    a plain tuple; that test runs in Python, so a hot loop that only needs
    the fields (groups.enumerate_monoid) keys its dicts by plain field
    tuples instead. The value's own + and * (where a subclass defines no
    arithmetic) and the order comparisons are refused, but len and iteration
    read the fields, and a plain tuple on the left still concatenates:
    (4,) + HeisenbergElement(1, 2, 3) is (4, 1, 2, 3). A value with no
    fields is an empty tuple, so such a class defines __bool__ to stay true;
    GradedSeries defines it as having a term.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"The field {name}."))

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return _tuple_ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    def __lt__(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"


_value = tuple.__new__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class PrimeFieldElement(TupleValue):
    """Residue in [0, p); arithmetic is field arithmetic mod p."""

    __slots__ = ()
    _fields = ("residue", "modulus")

    def __new__(cls, residue, modulus):
        return _value(cls, (residue % modulus, modulus))

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise FieldMismatchError(f"mixed prime fields F_{self.modulus} and F_{other.modulus}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.modulus)
        raise FieldMismatchError(f"cannot mix F_{self.modulus} with {type(other).__name__}")

    def __add__(self, other):
        r, p = self
        s, _ = self._coerce(other)
        return _value(PrimeFieldElement, ((r + s) % p, p))

    __radd__ = __add__

    def __sub__(self, other):
        r, p = self
        s, _ = self._coerce(other)
        return _value(PrimeFieldElement, ((r - s) % p, p))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        r, p = self
        s, _ = self._coerce(other)
        return _value(PrimeFieldElement, (r * s % p, p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.residue == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.modulus}")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        r, p = self
        return _value(PrimeFieldElement, (-r % p, p))

    def __pow__(self, k: int):
        r, p = self
        if r == 0 and k < 0:
            raise ZeroDivisionError(f"0 has no negative power in F_{p}")
        return _value(PrimeFieldElement, (pow(r, k, p), p))

    def inverse(self) -> "PrimeFieldElement":
        r, p = self
        if r == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{p}")
        return _value(PrimeFieldElement, (pow(r, -1, p), p))

    def __bool__(self):
        return self.residue != 0

    def __str__(self):
        return f"{self.residue} mod {self.modulus}"


class QuadraticFieldElement(TupleValue):
    """u + v*sqrt(m) with exact rational parts; m square-free, not 0 or 1.
    Each part is stored as an int when integral, else as a Fraction."""

    __slots__ = ()
    _fields = ("u", "v", "radicand")

    def __new__(cls, u, v, radicand):
        if type(u) is not int:
            u = normal_rational(u)
        if type(v) is not int:
            v = normal_rational(v)
        return _value(cls, (u, v, radicand))

    def _coerce(self, other):
        if isinstance(other, QuadraticFieldElement):
            if other.radicand != self.radicand:
                raise FieldMismatchError(
                    f"mixed quadratic fields sqrt({self.radicand}) and sqrt({other.radicand})"
                )
            return other
        if isinstance(other, int):
            return QuadraticFieldElement(other, 0, self.radicand)
        raise FieldMismatchError(f"cannot mix Q(sqrt {self.radicand}) with {type(other).__name__}")

    def __add__(self, other):
        u, v, m = self
        x, y, _ = self._coerce(other)
        return QuadraticFieldElement(u + x, v + y, m)

    __radd__ = __add__

    def __sub__(self, other):
        u, v, m = self
        x, y, _ = self._coerce(other)
        return QuadraticFieldElement(u - x, v - y, m)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        u, v, m = self
        x, y, _ = self._coerce(other)
        return QuadraticFieldElement(u * x + v * y * m, u * y + x * v, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        u, v, m = self
        # negation keeps a part's type, so the parts stay normal
        return _value(QuadraticFieldElement, (-u, -v, m))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadraticFieldElement(1, 0, self.radicand)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "QuadraticFieldElement":
        u, v, m = self
        return _value(QuadraticFieldElement, (u, -v, m))

    def inverse(self) -> "QuadraticFieldElement":
        # norm u^2 - m v^2 vanishes only at 0 because m is square-free, not 0 or 1
        u, v, m = self
        norm = u * u - v * v * m
        if norm == 0:
            raise ZeroDivisionError(f"0 is not invertible in Q(sqrt {m})")
        return QuadraticFieldElement(Fraction(u, norm), Fraction(-v, norm), m)

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __str__(self):
        u, v, m = self
        if v >= 0:
            return f"{u}+{v}*sqrt({m})"
        return f"{u}-{-v}*sqrt({m})"


class _Field(TupleValue):
    """What the three fields share: zero and one are from_int(0) and
    from_int(1), values print as str, nonzero values invert through their
    inverse(), and a nonzero sample is drawn from sample until one is
    nonzero. Q overrides inv, as an int has no inverse(), and F_p draws a
    nonzero residue directly. Each field keeps its own from_int, contains,
    parse, sample and panel."""

    __slots__ = ()

    # a builtin, so formatting a series' coefficients makes no Python call
    format = staticmethod(str)

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def inv(self, x):
        return x.inverse()

    def sample_nonzero(self, rng):
        while True:
            x = self.sample(rng)
            if x:
                return x


class RationalField(_Field):
    """Q, with values int when integral and Fraction otherwise."""

    __slots__ = ()

    def __new__(cls):
        return _value(cls, ())

    def __bool__(self):
        return True

    @property
    def name(self) -> str:
        return "Q"

    def from_int(self, n: int):
        return n

    def contains(self, x) -> bool:
        return type(x) is int or isinstance(x, Fraction)

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("0 is not invertible in Q")
        return normal_rational(Fraction(x.denominator, x.numerator))

    def parse(self, text: str):
        return normal_rational(parse_rational(text))

    def sample(self, rng):
        return normal_rational(Fraction(randint(rng, -9, 9), randint(rng, 1, 6)))

    def panel(self):
        return (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


class PrimeField(_Field):
    __slots__ = ()
    _fields = ("p",)

    def __new__(cls, p):
        if p >= PSI_12:
            raise ValueError(f"modulus {p} is outside p < {PSI_12}, the range of the "
                             "primality test")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        return _value(cls, (p,))

    @property
    def name(self) -> str:
        return f"Fp:{self.p}"

    def from_int(self, n: int):
        return PrimeFieldElement(n, self.p)

    def contains(self, x) -> bool:
        return isinstance(x, PrimeFieldElement) and x.modulus == self.p

    def parse(self, text: str):
        m = _MOD_RE.match(text.strip())
        if not m or int(m.group(2)) != self.p:
            raise ValueError(f"not an element of F_{self.p}: {text!r}")
        return PrimeFieldElement(int(m.group(1)), self.p)

    def sample(self, rng):
        return PrimeFieldElement(randint(rng, 0, self.p - 1), self.p)

    def sample_nonzero(self, rng):
        return PrimeFieldElement(randint(rng, 1, self.p - 1), self.p)

    def panel(self):
        return tuple(PrimeFieldElement(r, self.p) for r in range(min(self.p, 5)))


class QuadraticField(_Field):
    __slots__ = ()
    _fields = ("radicand",)

    def __new__(cls, radicand):
        if abs(radicand) >= RADICAND_LIMIT:
            raise ValueError(f"radicand {radicand} is outside |m| < 2**31, the range of "
                             "the square-free test")
        if radicand in (0, 1) or not is_square_free(radicand):
            raise ValueError(f"radicand must be square-free and not 0 or 1: {radicand}")
        return _value(cls, (radicand,))

    @property
    def name(self) -> str:
        return f"Qsqrt:{self.radicand}"

    @property
    def sqrt(self):
        return QuadraticFieldElement(0, 1, self.radicand)

    def from_int(self, n: int):
        return QuadraticFieldElement(n, 0, self.radicand)

    def from_parts(self, u, v):
        return QuadraticFieldElement(u, v, self.radicand)

    def contains(self, x) -> bool:
        return isinstance(x, QuadraticFieldElement) and x.radicand == self.radicand

    def parse(self, text: str):
        m = _QUAD_RE.match(text.strip())
        if not m or int(m.group(4)) != self.radicand:
            raise ValueError(f"not an element of Q(sqrt {self.radicand}): {text!r}")
        u = parse_rational(m.group(1))
        v = parse_rational(m.group(3))
        if m.group(2) == "-":
            v = -v
        return QuadraticFieldElement(u, v, self.radicand)

    def sample(self, rng):
        return QuadraticFieldElement(
            Fraction(randint(rng, -6, 6), randint(rng, 1, 4)),
            Fraction(randint(rng, -6, 6), randint(rng, 1, 4)),
            self.radicand,
        )

    def panel(self):
        one = self.one
        root = self.sqrt
        return (self.zero, one, -one, root, one + root, self.from_parts(Fraction(1, 2), Fraction(-2)))


QQ = RationalField()


def field_from_spec(spec: str):
    """Resolve a field spec string: "Q", "Fp:<p>" or "Qsqrt:<m>"."""
    m = re.fullmatch(r"Q|Fp:(\d+)|Qsqrt:(-?\d+)", spec.strip())
    if m is None:
        raise ValueError(f"unknown field spec {spec!r} (Q, Fp:<p> or Qsqrt:<m>)")
    p, radicand = m.groups()
    if p is not None:
        return PrimeField(int(p))
    return QQ if radicand is None else QuadraticField(int(radicand))


def field_of_text(text: str):
    """The field a scalar's text names by its syntax: F_p for "r mod p",
    Q(sqrt m) for "u+v*sqrt(m)" or "u-v*sqrt(m)", and Q otherwise."""
    text = text.strip()
    m = _MOD_RE.match(text)
    if m:
        return PrimeField(int(m.group(2)))
    m = _QUAD_RE.match(text)
    if m:
        return QuadraticField(int(m.group(4)))
    return QQ


def rational_power(r: Fraction, k: int) -> Fraction:
    """Exact r**k for rational r and integer k."""
    r = Fraction(r)
    if r == 0 and k < 0:
        raise ZeroDivisionError("0 has no negative power")
    return r**k
