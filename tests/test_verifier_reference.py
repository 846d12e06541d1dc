"""Differential tests of the combinatorial verifiers' fast paths against the
slow reference oracles in helpers.py."""

from fractions import Fraction
from math import gcd

import pytest

from helpers import reference_digit_sum_check, reference_enumerate_monoid
from mnseries.freeness import digit_sum_check
from mnseries.groups import Heisenberg, LatticeGroup, SemidirectGroup, WreathGroup, enumerate_monoid

_RATIOS = [Fraction(p, q) for p in range(2, 10) for q in range(1, p) if gcd(p, q) == 1]
DIGIT_SUM_RATIOS = [Fraction(1)] + _RATIOS + [1 / r for r in _RATIOS]


@pytest.mark.parametrize("r", DIGIT_SUM_RATIOS, ids=str)
def test_digit_sum_check_matches_rational_reference(r):
    for n in range(11):
        assert digit_sum_check(r, n) == reference_digit_sum_check(r, n), f"r={r} N={n}"


@pytest.mark.parametrize("group,length", [
    (SemidirectGroup(), 9),
    (SemidirectGroup(Fraction(3, 2)), 7),
    (WreathGroup(), 8),
    (Heisenberg(), 7),
    (LatticeGroup(2), 8),
], ids=lambda v: getattr(v, "id", str(v)))
def test_enumerate_monoid_matches_reference_table(group, length):
    gens = list(group.monoid_generators()[:2])
    table = enumerate_monoid(group, gens, length)
    got = [(group.format_element(g), words) for g, words in table.items()]
    assert got == reference_enumerate_monoid(group, gens, length)
