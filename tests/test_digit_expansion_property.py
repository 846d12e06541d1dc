"""Property test: digit_expansion recovers every sum of distinct powers."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mnseries.groups import digit_expansion


# S is nonempty: the empty sum is 0, which digit_expansion does not expand
@settings(derandomize=True, database=None, max_examples=200)
@given(st.integers(1, 9), st.integers(1, 9), st.sets(st.integers(0, 40), min_size=1))
def test_digit_expansion_recovers_sums_of_distinct_powers(p, q, exponents):
    assume(p != q)
    ratio = Fraction(p, q)
    total = sum((ratio**e for e in exponents), Fraction(0))
    assert digit_expansion(total, ratio) == sorted(exponents)
