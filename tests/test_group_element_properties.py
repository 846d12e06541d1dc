"""Property tests for what the level-by-level monoid enumeration and the
element products rely on: the weight grading, the merged wreath product and
the semidirect-element hash."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_wreath_mul
from mnseries.groups import (Heisenberg, LatticeGroup, SemidirectElement, SemidirectGroup, WreathElement,
                             WreathGroup)

GRADED = (Heisenberg(), SemidirectGroup(), SemidirectGroup(Fraction(3, 2)), WreathGroup(),
          LatticeGroup(1), LatticeGroup(2))
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@PROPERTY
@given(st.sampled_from(GRADED), st.integers(0, 2**32))
def test_weight_is_a_grading_of_the_monoid(group, seed):
    # words of different lengths in generators of one weight never meet
    rng = random.Random(seed)
    g = group.sample_monoid_element(rng, 8)
    h = group.sample_monoid_element(rng, 8)
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
    assert twin.ratio is not g.ratio
    assert twin == g and hash(twin) == hash(g)
    assert len({g, twin}) == 1
    if b == 1:
        assert SemidirectElement(a, n, ratio) == g and hash(SemidirectElement(a, n, ratio)) == hash(g)


def test_semidirect_hash_of_a_half():
    half = SemidirectElement(Fraction(1, 2), 1, Fraction(2))
    two_quarters = SemidirectElement(Fraction(2, 4), 1, Fraction(4, 2))
    assert half == two_quarters and hash(half) == hash(two_quarters)
    assert {half: 0}[two_quarters] == 0
