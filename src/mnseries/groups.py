"""Concrete bi-ordered groups with exact canonical forms.

Each built-in group ships one fixed total order satisfying the two-sided
invariance law (g < h implies zg < zh and gz < hz), a designated positive
generating monoid with an additive weight, membership oracles for the named
subgroups of its convex chain, and a convex-jump classification.

Canonical element strings: "H(a,b,c)", "B(p/q,n)@r=p'/q'", "W({i:v,...},n)"
with indices ascending, "Z(n)" and "Z2(a,b)" for the lattice groups. Each
group reads its elements by one full match of one pattern, and refuses any
other text as "not a <group id> element: <text>".
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import gcd
from operator import add, neg

from .report import VERIFIED, InvariantError, Report
from .scalars import TupleValue, parse_rational, randint


class GroupMismatchError(ValueError):
    """Two elements of different group instances met in one operation."""


class NotInMonoidError(ValueError):
    """Element lies outside the group's designated graded monoid."""


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


# ---------------------------------------------------------------------------
# elements


class _Element(TupleValue):
    """What the four group element classes share: one product. It refuses an
    element of another class, and otherwise wraps the field tuple that the
    class's _product computes (which makes any further check, of the ratio
    or the rank)."""

    __slots__ = ()

    def __mul__(self, other):
        cls = self.__class__
        if other.__class__ is not cls:
            raise GroupMismatchError(f"cannot multiply {cls.__name__} by {type(other).__name__}")
        return _value(cls, cls._product(self, other))


def _heis_product(g, h):
    a, b, c = g
    x, y, z = h
    return (a + x, b + y, c + z + a * y)


class HeisenbergElement(_Element):
    """Upper unitriangular 3x3 integer matrix with entries (1,2)=a, (2,3)=b, (1,3)=c."""

    __slots__ = ()
    _fields = ("a", "b", "c")
    _product = staticmethod(_heis_product)

    def __new__(cls, a, b, c):
        return _value(cls, (a, b, c))

    def inverse(self):
        a, b, c = self
        return _value(HeisenbergElement, (-a, -b, a * b - c))

    def order_key(self):
        return tuple(self)

    def __str__(self):
        a, b, c = self
        return f"H({a},{b},{c})"


def _semidirect_product(g, h):
    hn, hd, n, p, q = g
    kn, kd, m, p2, q2 = h
    if p2 != p or q2 != q:
        raise GroupMismatchError("cannot mix semidirect-product groups with different ratios")
    # h + r**n * k = h + (s/t) * k over one denominator, reduced by one gcd;
    # p, q > 0, so the denominator is positive
    if n >= 0:
        s, t = p ** n, q ** n
    else:
        s, t = q ** -n, p ** -n
    num, den = hn * t * kd + s * kn * hd, hd * t * kd
    c = gcd(num, den)
    return (num // c, den // c, n + m, p, q)


class SemidirectElement(_Element):
    """Element (h, n) of H x| C where the generator of C scales H by the
    ratio r.

    h is held as the ints num/den in lowest terms with den > 0, and r as the
    ints p/q in lowest terms with p, q > 0; the properties h and ratio build
    their Fractions when asked. An element hashes as its five ints."""

    __slots__ = ()
    _fields = ("num", "den", "n", "p", "q")
    _product = staticmethod(_semidirect_product)

    def __new__(cls, h, n, ratio):
        if not isinstance(ratio, Fraction):
            ratio = Fraction(ratio)
        if ratio.numerator <= 0:
            raise ValueError("ratio must be positive")
        if not isinstance(h, (int, Fraction)):
            h = Fraction(h)
        return _value(cls, (h.numerator, h.denominator, n, ratio.numerator, ratio.denominator))

    def __getnewargs__(self):
        # copy and pickle call the constructor, which takes h and the ratio
        return (self.h, self.n, self.ratio)

    @property
    def h(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __repr__(self):
        return f"SemidirectElement(h={self.h!r}, n={self.n!r}, ratio={self.ratio!r})"

    def inverse(self):
        # -(r**-n) * h = -(s/t) * h
        num, den, n, p, q = self
        if n >= 0:
            s, t = q ** n, p ** n
        else:
            s, t = p ** -n, q ** -n
        num, den = -s * num, t * den
        c = gcd(num, den)
        return _value(SemidirectElement, (num // c, den // c, -n, p, q))

    def order_key(self):
        return (self.n, self.h)

    def __str__(self):
        num, den, n, p, q = self
        return f"B({num}/{den},{n})@r={p}/{q}"


def _wreath_product(g, h):
    cells, shift = g
    theirs, n = h
    # h's cells, shifted by shift, go in one at a time at the place bisect
    # finds among the ascending indices ((j,) sorts before every cell at j);
    # a cell whose values cancel is dropped. A generator has at most one cell.
    at = 0
    for i, v in theirs:
        j = i + shift
        at = bisect_left(cells, (j,), at)
        if at < len(cells) and cells[at][0] == j:
            v += cells[at][1]
            if not v:
                cells = cells[:at] + cells[at + 1:]
                continue
            cells = cells[:at] + ((j, v),) + cells[at + 1:]
        else:
            cells = cells[:at] + ((j, v),) + cells[at:]
        at += 1
    return (cells, shift + n)


class WreathElement(_Element):
    """Element (f, n) of the restricted wreath product Z wr Z.

    cells holds the finitely supported map f as (index, value) pairs with
    ascending indices and no zero values.
    """

    __slots__ = ()
    _fields = ("cells", "n")
    _product = staticmethod(_wreath_product)

    def __new__(cls, cells, n):
        return _value(cls, (cells, n))

    @staticmethod
    def from_map(mapping, n: int) -> "WreathElement":
        cells = tuple(sorted((i, v) for i, v in mapping.items() if v != 0))
        return WreathElement(cells, n)

    def inverse(self):
        cells, n = self
        return _value(WreathElement, (tuple((i - n, -v) for i, v in cells), -n))

    def order_key(self):
        # n first, then the sign of the difference at the largest index where
        # the maps differ: the cells are read from the top index down, and
        # the sentinel (0,) sorts a missing cell between a negative value
        # (-1, -i, v) and a positive one (1, i, v)
        cells, n = self
        return (n, tuple((1, i, v) if v > 0 else (-1, -i, v) for i, v in reversed(cells)) + ((0,),))

    def __str__(self):
        inner = ",".join(f"{i}:{v}" for i, v in self.cells)
        return f"W({{{inner}}},{self.n})"


def _lattice_product(g, h):
    mine, theirs = g[0], h[0]
    if len(mine) != len(theirs):
        raise GroupMismatchError("cannot mix lattice groups of different rank")
    return (tuple(map(add, mine, theirs)),)


class LatticeElement(_Element):
    """Element of Z^rank, ordered lexicographically."""

    __slots__ = ()
    _fields = ("coords",)
    _product = staticmethod(_lattice_product)

    def __new__(cls, coords):
        return _value(cls, (coords,))

    def inverse(self):
        return _value(LatticeElement, (tuple(map(neg, self.coords)),))

    def order_key(self):
        return self.coords

    def __str__(self):
        coords = self.coords
        prefix = "Z" if len(coords) == 1 else f"Z{len(coords)}"
        return f"{prefix}({','.join(str(x) for x in coords)})"


_value = tuple.__new__


# ---------------------------------------------------------------------------
# digit-sum membership for the semidirect monoid


def digit_expansion(x, ratio):
    """Ascending exponents e of the distinct powers ratio**e that sum to x,
    or None when x is not such a sum (x <= 0 included); ratio is any positive
    rational. Reads only .numerator and .denominator, so ints work too.

    With ratio = p/q in lowest terms and p != q, a sum whose top exponent is
    k has denominator exactly q**k, and x*q**k is the sum of p**e * q**(k-e)
    over its exponents. For p >= 2 the exponent-0 digit is fixed mod p, as
    q**k is a unit mod p: subtract it, divide by p and repeat. For p = 1 the
    digits of x*q**k in base q sit at positions k - e. Either way the
    expansion is unique when it exists. For ratio 1 the answer is the lowest
    x exponents, as a range."""
    return _expansion(x.numerator, x.denominator, ratio.numerator, ratio.denominator)


def _expansion(value, den, p, q):
    # digit_expansion of value/den (lowest terms, den > 0) at ratio p/q
    if value <= 0:
        return None
    if p == q:
        return range(value) if den == 1 else None
    top, w = 0, 1
    while w < den and q > 1:
        top, w = top + 1, w * q
    if w != den:
        return None
    if p == 1:
        digits = _expansion(value, 1, q, 1)
        if digits is None or digits[-1] > top:
            return None
        return [top - j for j in reversed(digits)]
    # value is x*q**top less the digits taken; w runs through q**(top-e) and
    # is 0 past the top exponent, where no nonzero digit fits. Taking e
    # leaves (p*value + digit - w)/p = value - w//p, as digit == w % p.
    exponents = []
    position = 0
    while value:
        value, digit = divmod(value, p)
        if digit:
            if digit != w % p:
                return None
            exponents.append(position)
            value -= w // p
        w //= q
        position += 1
    return exponents


# ---------------------------------------------------------------------------
# group contexts


class _Group(TupleValue):
    """What the group contexts share. Each context keeps multiply, weight and
    in_monoid in its own body, beside grade: the additive weight of a monoid
    element, unchecked, which weight returns after the membership check. It
    answers its own subgroup tags in _subgroup_contains and _sample_subgroup;
    "1" and "G" are answered here. It reads its element strings by its
    _pattern, whose groups its _read turns into the element, and
    parse_element here is the one refusal. The patterns are strings, which
    re compiles on first use and caches, so importing compiles none."""

    __slots__ = ()
    graded = True

    def __new__(cls):
        return _value(cls, ())

    def __bool__(self):
        return True

    def inverse(self, g):
        return g.inverse()

    def compare(self, g, h) -> int:
        if not (self.contains(g) and self.contains(h)):
            raise GroupMismatchError(f"{self._noun} comparison on foreign elements")
        return _cmp(g.order_key(), h.order_key())

    # a builtin, so printing a series' support makes no Python call
    format_element = staticmethod(str)

    def parse_element(self, text: str):
        m = re.fullmatch(self._pattern, text.strip())
        if m is None:
            raise ValueError(f"not a {self.id} element: {text!r}")
        return self._read(*m.groups())

    def subgroup_contains(self, tag: str, g) -> bool:
        if tag == "1":
            return g == self.identity()
        if tag == "G":
            return True
        return self._subgroup_contains(tag, g)

    def sample_subgroup(self, tag: str, rng):
        if tag == "1":
            return self.identity()
        if tag == "G":
            return self.sample_element(rng)
        return self._sample_subgroup(tag, rng)

    def _tag_index(self, pattern: str, tag: str) -> int:
        k = _tag_number(pattern, tag)
        if k is None:
            raise self._unknown(tag)
        return k

    def _unknown(self, tag: str) -> ValueError:
        return ValueError(f"unknown {self._noun} subgroup {tag!r}")


@cache
def _tag_number(pattern: str, tag: str):
    """The number a subgroup tag carries in its pattern's one group, or None
    when the tag does not match; each (pattern, tag) is read once."""
    m = re.fullmatch(pattern, tag)
    return None if m is None else int(m.group(1))


class Heisenberg(_Group):
    __slots__ = ()
    _noun = "Heisenberg"

    @property
    def id(self) -> str:
        return "heis"

    def identity(self):
        return HeisenbergElement(0, 0, 0)

    def contains(self, g) -> bool:
        return isinstance(g, HeisenbergElement)

    def multiply(self, g, h):
        return g * h

    def monoid_generators(self):
        return (HeisenbergElement(1, 0, 0), HeisenbergElement(0, 1, 0))

    def in_monoid(self, g) -> bool:
        return self.contains(g) and g.a >= 0 and g.b >= 0 and 0 <= g.c <= g.a * g.b

    def weight(self, g) -> int:
        if not self.in_monoid(g):
            raise NotInMonoidError(f"{g} is outside the monoid generated by x, y")
        return self.grade(g)

    def grade(self, g) -> int:
        return g.a + g.b

    _pattern = r"H\((-?\d+),(-?\d+),(-?\d+)\)"

    def _read(self, a, b, c):
        return HeisenbergElement(int(a), int(b), int(c))

    def sample_element(self, rng):
        return HeisenbergElement(randint(rng, -5, 5), randint(rng, -5, 5), randint(rng, -5, 5))

    def panel_elements(self):
        return tuple(
            HeisenbergElement(a, b, c)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
            for c in (0, 1)
        )

    def _subgroup_contains(self, tag: str, g) -> bool:
        if tag == "center":
            return g.a == 0 and g.b == 0
        if tag == "a=0":
            return g.a == 0
        raise self._unknown(tag)

    def _sample_subgroup(self, tag: str, rng):
        if tag == "center":
            return HeisenbergElement(0, 0, randint(rng, -5, 5))
        if tag == "a=0":
            return HeisenbergElement(0, randint(rng, -5, 5), randint(rng, -5, 5))
        raise self._unknown(tag)


class SemidirectGroup(_Group):
    """H x| C with H the rationals reachable from the generators and C = <x>,
    where x z x^-1 = ratio * z for z in H. With ratio 2, t_value 1 this is
    the Baumslag-Solitar group B(1,2) in its standard ordering."""

    __slots__ = ()
    _fields = ("ratio", "t_value")

    _noun = "semidirect"

    def __new__(cls, ratio=Fraction(2), t_value=Fraction(1)):
        ratio = Fraction(ratio)
        t_value = Fraction(t_value)
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        if t_value == 0:
            raise ValueError("t_value must be nonzero")
        return _value(cls, (ratio, t_value))

    @property
    def id(self) -> str:
        if self.ratio == 2 and self.t_value == 1:
            return "bs12"
        return f"bs(r={self.ratio},t={self.t_value})"

    def identity(self):
        return SemidirectElement(0, 0, self.ratio)

    def contains(self, g) -> bool:
        ratio = self.ratio
        return isinstance(g, SemidirectElement) and g.p == ratio.numerator and g.q == ratio.denominator

    def multiply(self, g, h):
        return g * h

    def element(self, h, n: int):
        return SemidirectElement(h, n, self.ratio)

    def monoid_generators(self):
        return (self.element(self.t_value, 1), self.element(0, 1))

    def in_monoid(self, g) -> bool:
        if not self.contains(g) or g.n < 0:
            return False
        if not g.num:
            return True
        digits = self.digits(g)
        return digits is not None and digits[-1] <= g.n - 1

    def digits(self, g):
        """The group's one h/t digit routine: digit_expansion(h/t, ratio) of
        g = (h, n), on ints, that is the ascending exponents of the distinct
        ratio powers summing to h/t, or None when there are none (so for
        h = 0, and for every non-integral h/t at an integer ratio)."""
        ratio, t = self
        num, den = g.num * t.denominator, g.den * t.numerator
        if den < 0:
            num, den = -num, -den
        c = gcd(num, den)
        return _expansion(num // c, den // c, ratio.numerator, ratio.denominator)

    def weight(self, g) -> int:
        if not self.in_monoid(g):
            raise NotInMonoidError(f"{g} is outside the monoid generated by tx, x")
        return self.grade(g)

    def grade(self, g) -> int:
        return g.n

    # the @r= suffix may be left out: the group fixes the ratio
    _pattern = r"B\((-?\d+(?:/\d+)?),(-?\d+)\)(?:@r=(-?\d+(?:/\d+)?))?"

    def _read(self, h, n, ratio):
        if ratio is not None and parse_rational(ratio) != self.ratio:
            raise ValueError(f"element ratio {ratio} does not match group {self.id}")
        return self.element(parse_rational(h), int(n))

    def sample_element(self, rng):
        num, den = self._sample_base(rng)
        ratio = self.ratio
        return _value(SemidirectElement, (num, den, randint(rng, -3, 3), ratio.numerator, ratio.denominator))

    def _sample_base(self, rng):
        # h = a*t/p**e for a drawn from [-20, 20] and e from [0, 2], as
        # num/den in lowest terms by one gcd (t's denominator and p are
        # positive, and h = 0 is 0/1)
        ratio, t = self
        num = randint(rng, -20, 20) * t.numerator
        den = ratio.numerator ** randint(rng, 0, 2) * t.denominator
        c = gcd(num, den)
        return num // c, den // c

    def panel_elements(self):
        t = self.t_value
        out = []
        for h in (Fraction(0), t, -t, t / self.ratio.numerator):
            for n in (-1, 0, 1):
                out.append(self.element(h, n))
        return tuple(out)

    def _subgroup_contains(self, tag: str, g) -> bool:
        if tag == "base":
            return g.n == 0
        raise self._unknown(tag)

    def _sample_subgroup(self, tag: str, rng):
        if tag == "base":
            num, den = self._sample_base(rng)
            ratio = self.ratio
            return _value(SemidirectElement, (num, den, 0, ratio.numerator, ratio.denominator))
        raise self._unknown(tag)


class WreathGroup(_Group):
    __slots__ = ()
    _noun = "wreath"

    @property
    def id(self) -> str:
        return "wreath"

    def identity(self):
        return WreathElement((), 0)

    def contains(self, g) -> bool:
        return isinstance(g, WreathElement)

    def multiply(self, g, h):
        return g * h

    def element(self, mapping, n: int):
        return WreathElement.from_map(mapping, n)

    def monoid_generators(self):
        return (WreathElement(((0, 1),), 0), WreathElement((), 1))

    def in_monoid(self, g) -> bool:
        if not self.contains(g) or g.n < 0:
            return False
        return all(0 <= i <= g.n and v > 0 for i, v in g.cells)

    def weight(self, g) -> int:
        if not self.in_monoid(g):
            raise NotInMonoidError(f"{g} is outside the monoid generated by a, t")
        return self.grade(g)

    def grade(self, g) -> int:
        return sum(v for _, v in g.cells) + g.n

    # the map is a comma-separated list of cells index:value, maybe none
    _pattern = r"W\(\{((?:-?\d+:-?\d+,)*-?\d+:-?\d+)?\},(-?\d+)\)"

    def _read(self, cells, n):
        cells = re.findall(r"(-?\d+):(-?\d+)", cells or "")
        return WreathElement.from_map({int(i): int(v) for i, v in cells}, int(n))

    def sample_element(self, rng):
        mapping = {}
        for _ in range(randint(rng, 0, 3)):
            mapping[randint(rng, -3, 3)] = randint(rng, -3, 3)
        return WreathElement.from_map(mapping, randint(rng, -3, 3))

    def panel_elements(self):
        a = WreathElement(((0, 1),), 0)
        t = WreathElement((), 1)
        items = [self.identity(), a, t, a.inverse(), t.inverse(), a * t, t * a,
                 WreathElement(((1, -1),), 0), WreathElement(((-1, 2),), -1)]
        return tuple(items)

    def _subgroup_contains(self, tag: str, g) -> bool:
        k = self._tag_index(r"B(-?\d+)", tag)
        return g.n == 0 and all(i <= k for i, _ in g.cells)

    def _sample_subgroup(self, tag: str, rng):
        k = self._tag_index(r"B(-?\d+)", tag)
        mapping = {}
        for _ in range(randint(rng, 0, 3)):
            mapping[randint(rng, k - 3, k)] = randint(rng, -3, 3)
        return WreathElement.from_map(mapping, 0)


class LatticeGroup(_Group):
    __slots__ = ()
    _fields = ("rank",)

    _noun = "lattice"

    def __new__(cls, rank=1):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        return _value(cls, (rank,))

    @property
    def id(self) -> str:
        return "z" if self.rank == 1 else f"z{self.rank}"

    def identity(self):
        return LatticeElement((0,) * self.rank)

    def contains(self, g) -> bool:
        return isinstance(g, LatticeElement) and len(g.coords) == self.rank

    def multiply(self, g, h):
        return g * h

    def element(self, *coords):
        return LatticeElement(tuple(int(c) for c in coords))

    def monoid_generators(self):
        gens = []
        for i in range(self.rank):
            coords = [0] * self.rank
            coords[i] = 1
            gens.append(LatticeElement(tuple(coords)))
        return tuple(gens)

    def in_monoid(self, g) -> bool:
        return self.contains(g) and all(c >= 0 for c in g.coords)

    def weight(self, g) -> int:
        if not self.in_monoid(g):
            raise NotInMonoidError(f"{g} has a negative coordinate")
        return self.grade(g)

    def grade(self, g) -> int:
        return sum(g.coords)

    @property
    def _pattern(self):
        # exactly rank coordinates
        prefix = "Z" if self.rank == 1 else f"Z{self.rank}"
        return rf"{prefix}\((-?\d+(?:,-?\d+){{{self.rank - 1}}})\)"

    def _read(self, coords):
        return LatticeElement(tuple(map(int, coords.split(","))))

    def sample_element(self, rng):
        return LatticeElement(tuple([randint(rng, -6, 6) for _ in range(self.rank)]))

    def panel_elements(self):
        if self.rank == 1:
            return tuple(LatticeElement((k,)) for k in (-2, -1, 0, 1, 2))
        vals = (-1, 0, 1)
        out = []
        for a in vals:
            for b in vals:
                out.append(LatticeElement((a, b) + (0,) * (self.rank - 2)))
        return tuple(out)

    def _subgroup_contains(self, tag: str, g) -> bool:
        k = self._tag_index(r"axis>(\d+)", tag)
        return all(c == 0 for c in g.coords[:k])

    def _sample_subgroup(self, tag: str, rng):
        k = self._tag_index(r"axis>(\d+)", tag)
        return LatticeElement((0,) * k + tuple([randint(rng, -6, 6) for _ in range(self.rank - k)]))


# ---------------------------------------------------------------------------
# monoid enumeration


def monoid_word_count(generators: int, max_length: int) -> int:
    """The number of words of length at most max_length in the given number
    of generators, (k**(L+1) - 1)/(k - 1), in closed form."""
    if max_length < 0:
        raise ValueError("max length must be nonnegative")
    if generators == 1:
        return max_length + 1
    return (generators ** (max_length + 1) - 1) // (generators - 1)


def sample_monoid_element(context, rng, max_weight: int):
    """A random product of at most max_weight monoid generators of a graded
    context, a group's or a free monoid's, each factor drawn from all of
    them."""
    g = context.identity()
    gens = context.monoid_generators()
    for _ in range(randint(rng, 0, max_weight)):
        g = context.multiply(g, gens[randint(rng, 0, len(gens) - 1)])
    return g


def enumerate_monoid(group, generators, max_length: int):
    """Count the distinct products of at most max_length generators and find
    the first collision of two words.

    The generators must be positive and share one weight w. Weight is a
    homomorphism on every built-in group, so a word of length n reaches
    weight n*w and words of different lengths never meet: the element sets
    of the levels are disjoint. Level n+1 is built from the distinct
    elements of level n alone, one product per (element, generator) pair.

    Words of one length are numbered lexicographically, the word
    (i_1, ..., i_n) being the base-k numeral i_1...i_n, k = len(generators).
    Each level maps its elements to the smallest number of a word reaching
    them; the parents are taken in that order, so a new element's first word
    extends its parent's and the levels keep (length, lex) discovery order.
    Below the first colliding level every element has one word, so there the
    first repeat of an element is its second word.

    The levels hold plain field tuples, multiplied by the element class's
    field-level product (its _product, the function its __mul__ wraps), so
    hashing and equality run in C; the generators are checked as elements
    first, and only the collision element is built as a group element.

    Returns (elements, collision): elements is the number of distinct
    elements, identity included; collision is None when the word map is
    injective, else (element, word1, word2) for the first element in
    discovery order with two words, and its first two words as tuples of
    generator indices. The words counted are monoid_word_count(k, L).
    """
    if not generators:
        raise ValueError("need at least one generator")
    identity = group.identity()
    weights = set()
    for g in generators:
        if not group.contains(g):
            raise GroupMismatchError(f"{g} does not belong to group {group.id}")
        if group.compare(identity, g) >= 0:
            raise ValueError(f"generator {group.format_element(g)} is not positive")
        weights.add(group.weight(g))
    if len(weights) != 1 or next(iter(weights)) < 1:
        raise ValueError("generators must all have one equal positive weight")

    k = len(generators)
    cls = type(identity)
    product = cls._product
    gens = [tuple(g) for g in generators]
    level = {tuple(identity): 0}
    elements = 1
    collision = None
    for length in range(1, max_length + 1):
        nxt = {}
        first = nxt.setdefault
        second = {} if collision is None else None
        for elt, number in level.items():
            word = number * k
            for gen in gens:
                fields = product(elt, gen)
                if first(fields, word) != word and second is not None:
                    second.setdefault(fields, word)
                word += 1
        if second:
            fields = min(second, key=nxt.__getitem__)
            collision = (_value(cls, fields), _word(nxt[fields], length, k), _word(second[fields], length, k))
        elements += len(nxt)
        level = nxt
    return elements, collision


def _word(number: int, length: int, k: int) -> tuple:
    """The word of the given length whose base-k numeral is number."""
    digits = []
    for _ in range(length):
        number, digit = divmod(number, k)
        digits.append(digit)
    return tuple(reversed(digits))


# ---------------------------------------------------------------------------
# convex jumps and classification


def _jump(group, lower, upper, action_ratio=None):
    """The report entry of the convex jump lower < upper: central when no
    action ratio is given, else the base is scaled by action_ratio."""
    return {
        "group": group.id,
        "lower": lower,
        "upper": upper,
        "central": action_ratio is None,
        "action_ratio": None if action_ratio is None else str(action_ratio),
    }


def _commutator(g, h):
    """g^-1 h^-1 g h, multiplied on field tuples by the element class's own
    _product; only the result is built as an element."""
    product = g._product
    return _value(g.__class__, product(product(g.inverse(), h.inverse()), product(g, h)))


def _conjugate(g, x):
    """g x g^-1, multiplied as _commutator multiplies."""
    product = g._product
    return _value(g.__class__, product(product(g, x), g.inverse()))


def classify_order_type(group, samples: int = 200, seed: int = 0) -> Report:
    """Table-driven classification with witness re-verification by sampling.
    The report's details give the group, the order type (1, 2 or 3), the
    convex jumps and the number of sampled checks."""
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    rng = random.Random(seed)
    # a failed sampled check raises, so checks is the number of samples drawn
    if isinstance(group, (Heisenberg, LatticeGroup)):
        if isinstance(group, Heisenberg):
            chain = ("1", "center", "a=0", "G")
        else:
            chain = ("1",) + tuple(f"axis>{i}" for i in range(group.rank - 1, 0, -1)) + ("G",)
        # a central chain: [upper, G] lies in lower at every jump
        jumps = []
        for lower, upper in zip(chain, chain[1:]):
            for _ in range(samples):
                h = group.sample_subgroup(upper, rng)
                g = group.sample_element(rng)
                if not group.subgroup_contains(lower, _commutator(h, g)):
                    raise InvariantError(f"jump ({lower},{upper}) is not central")
            jumps.append(_jump(group, lower, upper))
        order_type, checks, witness = 1, samples * len(jumps), {"chain": list(chain)}
    elif isinstance(group, SemidirectGroup) and group.ratio != 1:
        conjugator = group.element(0, 1)
        p, q = group.ratio.numerator, group.ratio.denominator
        for _ in range(samples):
            z = group.sample_subgroup("base", rng)
            conj = _conjugate(conjugator, z)
            # conj == (ratio * z.h, 0), cross-multiplied on ints
            if conj.n or conj.num * q * z.den != p * z.num * conj.den:
                raise InvariantError("conjugation does not scale the base by the ratio")
            g = group.sample_element(rng)
            moved = _conjugate(g, z)
            if not group.subgroup_contains("base", moved):
                raise InvariantError("base subgroup is not normal")
        jumps = [_jump(group, "1", "base", group.ratio)]
        order_type, checks = 2, samples
        witness = {"jump": jumps[0], "conjugator": group.format_element(conjugator)}
    elif isinstance(group, WreathGroup):
        b = group.inverse(WreathElement((), 1))  # t^-1 shrinks B_0 to B_-1
        a = WreathElement(((0, 1),), 0)
        for _ in range(samples):
            c = group.sample_subgroup("B0", rng)
            inside = _conjugate(b, c)
            if not group.subgroup_contains("B-1", inside):
                raise InvariantError("conjugate of B0 does not land in B-1")
        if group.subgroup_contains("B-1", a) or not group.subgroup_contains("B0", a):
            raise InvariantError("witness element must lie in B0 but not in B-1")
        jumps = []
        order_type, checks, witness = 3, samples, {
            "subgroup": "B0",
            "conjugator": group.format_element(b),
            "conjugated_into": "B-1",
            "separating_element": group.format_element(a),
        }
    else:
        # ratio 1 makes the semidirect product abelian: it has no table either
        raise ValueError(f"no classification table for group {group!r}")
    return Report("order-type", VERIFIED, {"samples": samples}, witness,
                  {"group": group.id, "type": order_type, "jumps": jumps, "checks": checks})
