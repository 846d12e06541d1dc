"""Property tests for what the level-by-level monoid enumeration and the
element products rely on: the weight grading, the merged wreath product, the
semidirect product on ints against the affine oracle and the
semidirect-element hash; and for the element readers' refusals."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (reference_wreath_compare, reference_wreath_mul, semidirect_product_oracle,
                     semidirect_to_affine)
from mnseries.groups import (GroupMismatchError, Heisenberg, LatticeGroup, SemidirectElement, SemidirectGroup,
                             WreathElement, WreathGroup, sample_monoid_element)

GRADED = (Heisenberg(), SemidirectGroup(), SemidirectGroup(Fraction(3, 2)), WreathGroup(),
          LatticeGroup(1), LatticeGroup(2))
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@PROPERTY
@given(st.sampled_from(GRADED), st.integers(0, 2**32))
def test_weight_is_a_grading_of_the_monoid(group, seed):
    # words of different lengths in generators of one weight never meet
    rng = random.Random(seed)
    g = sample_monoid_element(group, rng, 8)
    h = sample_monoid_element(group, rng, 8)
    assert group.weight(group.multiply(g, h)) == group.weight(g) + group.weight(h)


# indices and values from small ranges, zero values included, so that cells
# collide and cancel often
wreath_elements = st.builds(
    WreathElement.from_map,
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=5),
    st.integers(-4, 4),
)


@PROPERTY
@given(wreath_elements, wreath_elements)
def test_wreath_product_matches_dict_merge(g, h):
    for left, right in ((g, h), (h, g), (g, g), (g.inverse(), h), (g, h.inverse()),
                        (g, g.inverse()), (g.inverse(), g)):
        product = left * right
        assert product == reference_wreath_mul(left, right)
        indices = [i for i, _ in product.cells]
        assert indices == sorted(set(indices)) and all(v for _, v in product.cells)


def _sign(a, b):
    return (a > b) - (a < b)


@PROPERTY
@given(st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=5), st.integers(-1, 1),
       st.integers(-4, 4), st.integers(-3, 3), st.booleans(), wreath_elements)
def test_wreath_order_key_matches_cell_comparison(f, n, i, v, same_n, other):
    g = WreathElement.from_map(f, n)
    # h is g with the cell at i set to v: the maps differ at one index, often
    # below the top one, and v = 0 or a new index leaves one side without a cell
    h = WreathElement.from_map({**f, i: v}, n if same_n else n + 1)
    group = WreathGroup()
    for x, y in ((g, h), (h, g), (g, g), (g, other), (other, h)):
        expected = reference_wreath_compare(x, y)
        assert type(x.order_key()) is tuple
        assert _sign(x.order_key(), y.order_key()) == expected
        assert group.compare(x, y) == expected


@PROPERTY
@given(wreath_elements, st.integers(-4, 4))
def test_wreath_product_cancels_cells(g, n):
    # h's cells, shifted by g.n, are exactly -g's: the product has none
    h = WreathElement(tuple((i - g.n, -v) for i, v in g.cells), n)
    assert g * h == reference_wreath_mul(g, h) == WreathElement((), g.n + n)


@PROPERTY
@given(st.integers(-50, 50), st.integers(1, 30), st.integers(2, 6), st.integers(-4, 4),
       st.sampled_from((Fraction(2), Fraction(3, 2), Fraction(2, 5))))
def test_equal_semidirect_elements_hash_equal(a, b, c, n, ratio):
    g = SemidirectElement(Fraction(a, b), n, ratio)
    # h unreduced before the Fraction reduces it, the ratio a distinct object
    twin = SemidirectElement(Fraction(a * c, b * c), n, Fraction(ratio.numerator * c, ratio.denominator * c))
    # both store the reduced (p, q) of the ratio, which hashing relies on
    assert twin[3:] == g[3:] == (ratio.numerator, ratio.denominator)
    assert twin == g and hash(twin) == hash(g)
    assert len({g, twin}) == 1
    if b == 1:
        assert SemidirectElement(a, n, ratio) == g and hash(SemidirectElement(a, n, ratio)) == hash(g)


def test_semidirect_hash_of_a_half():
    half = SemidirectElement(Fraction(1, 2), 1, Fraction(2))
    two_quarters = SemidirectElement(Fraction(2, 4), 1, Fraction(4, 2))
    assert half == two_quarters and hash(half) == hash(two_quarters)
    assert {half: 0}[two_quarters] == 0


# ratios with p or q above 1, h with denominators the products cannot clear
# at once, and n on both sides of 0
RATIOS = (Fraction(2), Fraction(3), Fraction(3, 2), Fraction(2, 5), Fraction(1, 3))
semidirect_parts = st.tuples(st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 5, 7, 9, 25)),
                             st.integers(-4, 4))


@PROPERTY
@given(st.sampled_from(RATIOS), semidirect_parts, semidirect_parts)
def test_semidirect_product_matches_affine_oracle(ratio, first, second):
    g, h = (SemidirectElement(Fraction(a, b), n, ratio) for a, b, n in (first, second))
    for left, right in ((g, h), (h, g), (g, g), (g.inverse(), h), (g, h.inverse())):
        product = left * right
        expected = semidirect_product_oracle(left, right)
        assert product == expected and hash(product) == hash(expected)
        assert str(product) == str(expected) and product.order_key() == expected.order_key()
        assert type(product.num) is int and type(product.den) is int
        assert product.den > 0 and gcd(product.num, product.den) == 1
        # the affine map z -> s*z + t inverts to z -> z/s - t/s
        s, t = semidirect_to_affine(product)
        assert product.inverse() == SemidirectElement(-t / s, -product.n, ratio)
    identity = SemidirectElement(0, 0, ratio)
    assert g * g.inverse() == identity == g.inverse() * g


def test_semidirect_element_contract():
    g = SemidirectElement(Fraction(3, 4), -2, Fraction(3, 2))
    h = SemidirectElement(5, 1, Fraction(3, 2))
    assert type(g.h) is Fraction and g.h == Fraction(3, 4)
    assert type(h.h) is Fraction and type(h.ratio) is Fraction
    # the product carries the ratio as its two ints p, q
    assert (g * h).ratio == g.ratio and type((g * h).ratio) is Fraction
    assert (g * h)[3:] == (3, 2)
    for name in ("n", "h", "num", "den", "p", "q", "ratio"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.num, g.den, g.n) == (3, 4, -2)
    with pytest.raises(GroupMismatchError):
        g * SemidirectElement(5, 1, Fraction(2))
    with pytest.raises(GroupMismatchError):
        g * Heisenberg().identity()
    for ratio in (0, -2, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            SemidirectElement(1, 0, ratio)


def test_semidirect_inverse_on_ints_matches_the_fraction_formula():
    # the inverse (-(r**-n) * h, -n) computed on ints, against the same
    # formula in Fraction arithmetic; ratios above and below 1, n of both signs
    rng = random.Random(26)
    for ratio in (Fraction(2), Fraction(3, 2), Fraction(2, 5), Fraction(1, 3)):
        for _ in range(100):
            h = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 5, 9, 25)))
            n = rng.randint(-5, 5)
            g = SemidirectElement(h, n, ratio)
            inverse = g.inverse()
            expected = SemidirectElement(-(ratio ** -n) * h, -n, ratio)
            assert inverse == expected and hash(inverse) == hash(expected)
            assert type(inverse.num) is int and type(inverse.den) is int
            assert inverse.den > 0 and gcd(inverse.num, inverse.den) == 1
            assert g * inverse == SemidirectElement(0, 0, ratio) == inverse * g


# near misses of the element grammars: a group's opening, a body from the
# characters the grammars use, and a closing
element_texts = st.builds(
    lambda head, body, tail: head + body + tail,
    st.sampled_from(["H(", "B(", "W({", "Z(", "Z2("]),
    st.text(alphabet="0123-/:,{}x@r= ", max_size=10),
    st.sampled_from([")", "},0)", ",1)", ")@r=2/1"]),
)


@PROPERTY
@given(st.sampled_from(GRADED), element_texts)
def test_element_text_is_read_or_refused_by_name(group, text):
    # any text reads as an element of the group or is refused by a message
    # of the package's own, never by int() or by unpacking
    try:
        g = group.parse_element(text)
    except ValueError as exc:
        assert "invalid literal" not in str(exc) and "unpack" not in str(exc), text
    else:
        assert group.contains(g)
