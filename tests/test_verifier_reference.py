"""Differential tests of the combinatorial verifiers' fast paths against the
slow reference oracles in helpers.py."""

from fractions import Fraction
from math import gcd

import pytest

from helpers import reference_digit_sum_check, reference_enumerate_monoid, reference_pingpong_check
from mnseries import freeness
from mnseries.freeness import digit_sum_check, pingpong_check
from mnseries.groups import (Heisenberg, LatticeGroup, SemidirectGroup, WreathGroup, digit_expansion,
                             enumerate_monoid)

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


def _poisoned(value, kind):
    """digit_expansion with one answer changed: at x == value it reports no
    expansion, drops the exponent-0 digit or adds it."""
    def digits(x, ratio):
        found = digit_expansion(x, ratio)
        if x != value:
            return found
        if kind == "none":
            return None
        if kind == "drop0":
            return [e for e in found if e]
        return [0] + [e for e in found if e]
    return digits


@pytest.mark.parametrize("group,t", [(SemidirectGroup(), 1), (SemidirectGroup(3, Fraction(5, 7)), Fraction(5, 7))],
                         ids=("bs12", "r3"))
def test_pingpong_matches_two_pass_reference(group, t, monkeypatch):
    # every orbit element's h/t is hit once, so each poisoned value makes
    # one element fail in one way; the one-pass check must name the same
    # witness and count the same elements as the orbit-first reference
    length = 4
    asked = []
    monkeypatch.setattr(freeness, "digit_expansion", lambda x, r: asked.append(x) or digit_expansion(x, r))
    assert pingpong_check(group, t, length) == reference_pingpong_check(group, t, length, digit_expansion)
    assert len(asked) == len(set(asked)) == 2 ** (length + 2) - 1
    witnesses = set()
    for value in asked:
        for kind in ("none", "drop0", "add0"):
            digits = _poisoned(value, kind)
            monkeypatch.setattr(freeness, "digit_expansion", digits)
            got = pingpong_check(group, t, length)
            assert got == reference_pingpong_check(group, t, length, digits), (value, kind)
            witnesses.add((got.witness or {}).get("reason"))
    assert len(witnesses) == 4
