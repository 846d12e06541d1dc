"""Differential tests of the combinatorial verifiers' fast paths against the
slow reference oracles in helpers.py."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (corrupt_twist, reference_check_crossed_system, reference_digit_sum_check,
                     reference_digit_sum_subset, reference_enumerate_monoid, reference_pingpong_check,
                     semidirect_product_oracle)
from mnseries import groups, registry
from mnseries.crossed import (CrossedSystem, QuotientSystem, check_crossed_system, diagonal_change, quadratic_conj_z,
                              quotient_system, z2_sign_twist)
from mnseries.freeness import digit_sum_check, pingpong_check
from mnseries.groups import (Heisenberg, HeisenbergElement, LatticeElement, LatticeGroup, SemidirectElement,
                             SemidirectGroup, WreathGroup, enumerate_monoid)
from mnseries.scalars import QQ, field_from_spec

_RATIOS = [Fraction(p, q) for p in range(2, 10) for q in range(1, p) if gcd(p, q) == 1]
DIGIT_SUM_RATIOS = [Fraction(1)] + _RATIOS + [1 / r for r in _RATIOS]


@pytest.mark.parametrize("r", DIGIT_SUM_RATIOS, ids=str)
def test_digit_sum_check_matches_rational_reference(r):
    for n in range(11):
        assert digit_sum_check(r, n) == reference_digit_sum_check(r, n), f"r={r} N={n}"


def _expected_enumeration(group, gens, length):
    """(elements, collision) read off the full reference table: its length,
    and the first entry in discovery order with two words, with those two."""
    table = reference_enumerate_monoid(group, gens, length)
    collision = next(((key, words[0], words[1]) for key, words in table if len(words) > 1), None)
    return len(table), collision


def _enumeration(group, gens, length):
    elements, collision = enumerate_monoid(group, gens, length)
    if collision is not None:
        element, w1, w2 = collision
        collision = (group.format_element(element), w1, w2)
    return elements, collision


_MONOID_CASES = [
    # the default generator pairs: bs12 and wreath free, heis and z2 colliding
    (SemidirectGroup(), None, 9, "bs12-9"),
    (SemidirectGroup(Fraction(3, 2)), None, 7, "bs(r=3/2,t=1)-7"),
    (WreathGroup(), None, 8, "wreath-8"),
    (Heisenberg(), None, 7, "heis-7"),
    (LatticeGroup(2), None, 8, "z2-8"),
    # three and four generators
    (Heisenberg(), ("H(1,1,0)", "H(1,1,1)", "H(2,0,0)"), 5, "heis-3gens-5"),
    (SemidirectGroup(), ("B(0/1,2)", "B(1/1,2)", "B(2/1,2)", "B(3/1,2)"), 4, "bs12-4gens-4"),
    (WreathGroup(), ("W({0:2},0)", "W({},2)", "W({0:1},1)"), 4, "wreath-3gens-4"),
    # a repeated generator: the collision is at level 1; mirrored, the first
    # repeat seen (y) is not the first element in discovery order (x)
    (Heisenberg(), ("H(1,0,0)", "H(0,1,0)", "H(1,0,0)"), 5, "heis-repeated-5"),
    (Heisenberg(), ("H(1,0,0)", "H(0,1,0)", "H(0,1,0)", "H(1,0,0)"), 4, "heis-mirrored-4"),
    # first collisions at level 2 and 3; in the last three the first repeat
    # seen is not the witness
    (LatticeGroup(2), ("Z2(2,0)", "Z2(1,1)", "Z2(0,2)"), 5, "z2-level2-5"),
    (LatticeGroup(2), ("Z2(1,1)", "Z2(0,2)", "Z2(2,0)"), 5, "z2-level2-order-5"),
    (Heisenberg(), ("H(1,2,1)", "H(1,2,0)", "H(1,2,2)"), 4, "heis-level2-order-4"),
    (Heisenberg(), ("H(0,3,0)", "H(2,1,1)", "H(1,2,1)"), 4, "heis-level3-order-4"),
]


@pytest.mark.parametrize("group,gens,length", [case[:3] for case in _MONOID_CASES],
                         ids=[case[3] for case in _MONOID_CASES])
def test_enumerate_monoid_matches_reference_table(group, gens, length):
    if gens is None:
        gens = list(group.monoid_generators()[:2])
    else:
        gens = [group.parse_element(g) for g in gens]
    assert _enumeration(group, gens, length) == _expected_enumeration(group, gens, length)


def _pool(name, weight):
    """The positive elements of one weight that the strategy draws from."""
    if name == "heis":
        return [HeisenbergElement(a, weight - a, c)
                for a in range(weight + 1) for c in range(a * (weight - a) + 1)]
    if name == "z2":
        return [LatticeElement((a, weight - a)) for a in range(weight + 1)]
    if name == "z":
        return [LatticeElement((weight,))]
    return [SemidirectGroup().element(h, weight) for h in range(1 << weight)]


_GROUPS = {"heis": Heisenberg(), "z2": LatticeGroup(2), "z": LatticeGroup(1),
           "bs12": SemidirectGroup()}


@st.composite
def _generator_tuples(draw):
    name = draw(st.sampled_from(sorted(_GROUPS)))
    pool = _pool(name, draw(st.integers(1, 3)))
    return _GROUPS[name], draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_generator_tuples(), st.integers(0, 6))
def test_enumerate_monoid_matches_reference_on_random_generators(case, length):
    group, gens = case
    assert _enumeration(group, gens, length) == _expected_enumeration(group, gens, length)


_EXPANSION = groups._expansion
_PRODUCT = groups._semidirect_product


def _poisoned(value, kind):
    """groups._expansion(num, den, p, q), the expansion of num/den at the
    ratio p/q, with one answer changed: at num/den == value it reports no
    expansion, drops the exponent-0 digit or adds it."""
    def expansion(num, den, p, q):
        found = _EXPANSION(num, den, p, q)
        if Fraction(num, den) != value:
            return found
        if kind == "none":
            return None
        if kind == "drop0":
            return [e for e in found if e]
        return [0] + [e for e in found if e]
    return expansion


def _digits(expansion):
    """The digit_expansion(x, ratio) of an expansion kernel."""
    return lambda x, ratio: expansion(x.numerator, x.denominator, ratio.numerator, ratio.denominator)


def _faulted(target, kind, t):
    """A fault on semidirect field tuples (num, den, n, p, q): the tuple
    target, an orbit element with integral h/t, is pushed out of A (h
    negated, or n set to -1), or its h/t loses the exponent-0 digit (h - t),
    gains it (h + t), or gains the digit p**(n + 1), above its own, which
    keeps it in A ("move"); the exponent-0 digit of h/t is h/t mod p. Every
    other tuple passes unchanged."""
    def fault(fields):
        if fields != target:
            return fields
        num, den, n, p, q = fields
        h = Fraction(num, den)
        digit0 = h / t % p == 1
        if kind == "none":
            h = -h
        elif kind == "below":
            n = -1
        elif kind == "drop0" and digit0:
            h -= t
        elif kind == "add0" and not digit0:
            h += t
        elif kind == "move":
            h += t * p ** (n + 1)
        return h.numerator, h.denominator, n, p, q
    return fault


def _oracle_under(fault):
    """The affine product oracle with the fault applied to its answers."""
    def product(g, h):
        num, den, n, p, q = fault(tuple(semidirect_product_oracle(g, h)))
        return SemidirectElement(Fraction(num, den), n, Fraction(p, q))
    return product


@pytest.mark.parametrize("group,t", [(SemidirectGroup(), 1), (SemidirectGroup(3, Fraction(5, 7)), Fraction(5, 7)),
                                     (SemidirectGroup(2, -1), -1)], ids=("bs12", "r3", "t-negative"))
def test_pingpong_matches_two_pass_reference(group, t, monkeypatch):
    # an honest check asks the digit kernel about the seed alone (h/t = 1)
    # and takes every image on its relation. Each fault makes one orbit
    # position fail in one way: at the seed the kernel reports no expansion,
    # drops the exponent-0 digit or adds it; at each image, hit once by the
    # product, the product does the same to the image, or moves it inside
    # A. The one-pass check must name the same witness and count the
    # same elements as the orbit-first reference handed the same product,
    # and ask the kernel about no more than the seed and the image the fault
    # changed: the walk goes on from a moved image's own h/t, so its
    # descendants meet their relations. The kernel patch sits under the
    # group's h/t reduction, which so runs in every check and hands its
    # ints to the kernel as it made them.
    length = 4
    asked, images = [], []

    def recorded(num, den, p, q):
        asked.append(Fraction(num, den))
        return _EXPANSION(num, den, p, q)

    monkeypatch.setattr(groups, "_expansion", recorded)
    monkeypatch.setattr(SemidirectElement, "_product",
                        staticmethod(lambda g, h: images.append(_PRODUCT(g, h)) or images[-1]))
    got = pingpong_check(group, length)
    assert asked == [1]
    assert len(images) == len(set(images)) == 2 ** (length + 2) - 2
    monkeypatch.setattr(SemidirectElement, "_product", staticmethod(_PRODUCT))
    assert got == reference_pingpong_check(group, t, length, _digits(_EXPANSION))
    witnesses = set()
    for kind in ("none", "drop0", "add0"):
        expansion = _poisoned(asked[0], kind)
        monkeypatch.setattr(groups, "_expansion", expansion)
        got = pingpong_check(group, length)
        assert got == reference_pingpong_check(group, t, length, _digits(expansion)), ("seed", kind)
        witnesses.add((got.witness or {}).get("reason"))
    monkeypatch.setattr(groups, "_expansion", recorded)
    for target in images:
        for kind in ("none", "below", "drop0", "add0", "move"):
            fault = _faulted(target, kind, Fraction(t))
            monkeypatch.setattr(SemidirectElement, "_product", staticmethod(lambda g, h: fault(_PRODUCT(g, h))))
            asked.clear()
            got = pingpong_check(group, length)
            assert (len(asked) == 2) if kind == "move" else (len(asked) <= 2), (target, kind)
            assert got == reference_pingpong_check(group, t, length, _digits(_EXPANSION),
                                                   _oracle_under(fault)), (target, kind)
            witnesses.add((got.witness or {}).get("reason"))
    assert len(witnesses) == 4


def _pingpong_grid(rng, count):
    """count distinct (r, t, L) drawn from r in 2..9, t = +-a/b with
    1 <= a, b <= 9 and L <= 6."""
    grid = sorted({(r, sign * Fraction(a, b), length) for r in range(2, 10) for sign in (1, -1)
                   for a in range(1, 10) for b in range(1, 10) for length in range(7)})
    return rng.sample(grid, count)


@pytest.mark.parametrize("r,t,length", _pingpong_grid(random.Random(34), 60), ids=str)
def test_pingpong_matches_reference_on_honest_digits(r, t, length):
    # the digits are the independent subset search's, top exponent first in
    # rational arithmetic; an orbit image at level n has exponents <= n
    digits = lambda x, ratio: reference_digit_sum_subset(x, ratio, length + 1)
    report = pingpong_check(SemidirectGroup(r, t), length)
    assert report == reference_pingpong_check(SemidirectGroup(r, t), t, length, digits)
    assert report.verified


CROSSED_BASES = ([z2_sign_twist(QQ), z2_sign_twist(field_from_spec("Fp:5")),
                  quadratic_conj_z(field_from_spec("Qsqrt:2"))]
                 + [registry.trivial_on(g) for g in registry.group_ids()]
                 + [quotient_system(Heisenberg(), "center"), quotient_system(SemidirectGroup(), "base")])


def _corrupted(base, pairs=(), acted=None, zeroed=()):
    """base with its twist negated at each of the given pairs of elements,
    zero at each of the pairs zeroed, and its action negated at the element
    acted."""
    def twist(g, h):
        if (g, h) in zeroed:
            return base.field.zero
        value = base.twist(g, h)
        return -value if (g, h) in pairs else value

    def action(g, r):
        value = base.action(g, r)
        return -value if g == acted else value

    return CrossedSystem(f"corrupted:{base.id}", base.group, base.field, action, twist)


def _crossed_runs(base, rng):
    """(kind, system, samples, seed) runs on base: the base itself, its twist
    corrupted at a panel pair, at pairs its sampler draws, its action
    corrupted at a panel element and at a drawn one, and its twist zero at a
    panel pair and at a drawn pair. On a quotient base, whose coefficients
    are N-series, the twist is also set to a nonzero non-unit, the two-term
    series of the ring's panel, at a panel pair and at a drawn pair. The
    last run, which draws nothing from rng so that every other run keeps its
    draws, is a diagonal change whose d is zero at the last panel element
    (never the identity), so that its twists raise while they are
    computed."""
    group = base.group
    panel = group.panel_elements()
    kinds = (("valid",) + ("panel-twist",) * 4 + ("sampled-twist", "panel-action", "sampled-action") * 2
             + ("panel-zero-twist", "sampled-zero-twist"))
    if isinstance(base, QuotientSystem):
        kinds += ("panel-nonunit-twist", "sampled-nonunit-twist")
    for kind in kinds:
        samples, seed = rng.randint(0, 25), rng.randrange(10**6)
        draw = random.Random(seed)
        drawn = [group.sample_element(draw) for _ in range(3 * samples)] or list(panel)
        if kind == "valid":
            system = base
        elif kind == "panel-twist":
            system = _corrupted(base, {(rng.choice(panel), rng.choice(panel))})
        elif kind == "sampled-twist":
            starts = [rng.randrange(len(drawn) - 1) for _ in range(2)]
            system = _corrupted(base, {(drawn[i], drawn[i + 1]) for i in starts})
        elif kind == "panel-zero-twist":
            # the first pair checked: any other panel pair's twist is read
            # by an earlier case's cocycle identity first
            system = _corrupted(base, zeroed={(panel[0], panel[0])})
        elif kind == "sampled-zero-twist":
            i = rng.randrange(len(drawn) - 1)
            system = _corrupted(base, zeroed={(drawn[i], drawn[i + 1])})
        elif kind == "panel-nonunit-twist":
            system = corrupt_twist(base, (panel[0], panel[0]), base.field.panel()[-2])
        elif kind == "sampled-nonunit-twist":
            i = rng.randrange(len(drawn) - 1)
            system = corrupt_twist(base, (drawn[i], drawn[i + 1]), base.field.panel()[-2])
        else:
            system = _corrupted(base, acted=rng.choice(panel if kind == "panel-action" else drawn))
        yield kind, system, samples, seed
    zero, one = base.field.zero, base.field.one
    yield "diagonal-nonunit", diagonal_change(base, lambda x: zero if x == panel[-1] else one), 5, 0


def test_check_crossed_system_matches_the_reference_checker():
    # whole reports, verdict, witness and checked count, on the built-in
    # and quotient systems and on corruptions of each
    rng = random.Random(27)
    found = set()
    for base in CROSSED_BASES:
        for kind, system, samples, seed in _crossed_runs(base, rng):
            got = check_crossed_system(system, samples, seed)
            assert got == reference_check_crossed_system(system, samples, seed), (base.id, base.group.id,
                                                                                  kind, samples, seed)
            if kind == "valid":
                assert got.verified, (base.id, base.group.id)
            if kind in ("panel-nonunit-twist", "diagonal-nonunit"):
                assert got.witness["identity"] == "nonzero-twist", (base.id, base.group.id)
            found.add((got.witness or {}).get("identity"))
    assert found == {None, "normalization", "nonzero-twist", "action", "cocycle"}
