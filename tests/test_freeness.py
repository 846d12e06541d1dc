import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from helpers import reference_enumerate_monoid
from mnseries import groups
from mnseries.freeness import (
    GuardLimitError,
    digit_sum_check,
    free_monoid_check,
    group_algebra_independence,
    pingpong_check,
    type1_unit_generators,
    type2_generators,
    type3_generators,
)
from mnseries.groups import Heisenberg, LatticeGroup, SemidirectGroup, WreathGroup, enumerate_monoid
from mnseries.report import COUNTEREXAMPLE, INCONCLUSIVE, digest
from mnseries.scalars import QQ, PrimeField
from mnseries.series import GradedSeries

HEIS = Heisenberg()
BS = SemidirectGroup()
WREATH = WreathGroup()


# --- free monoid checks -----------------------------------------------------

def test_bs_generators_free_up_to_8():
    report = free_monoid_check(BS, list(BS.monoid_generators()), 8)
    assert report.verified
    assert report.details["elements"] == 2**9 - 1
    assert report.details["words"] == 2**9 - 1


def test_heisenberg_collision():
    report = free_monoid_check(HEIS, list(HEIS.monoid_generators()), 4)
    assert report.verdict == COUNTEREXAMPLE
    assert report.witness == {"words": ["xyyx", "yxxy"], "element": "H(2,2,2)"}
    assert report.exit_code == 2


def test_wreath_generators_free_up_to_8():
    report = free_monoid_check(WREATH, list(type3_generators(WREATH)), 8)
    assert report.verified
    assert report.details["elements"] == 2**9 - 1


def test_verified_report_injectivity_recheck():
    # independent re-check by the full table keyed by canonical element
    # strings: every word reaches its own element
    gens = list(BS.monoid_generators())
    table = reference_enumerate_monoid(BS, gens, 6)
    assert all(len(words) == 1 for _, words in table)
    report = free_monoid_check(BS, gens, 6)
    assert report.verified
    assert report.details["elements"] == report.details["words"] == len(table) == 2**7 - 1


def _monoid_cases(rng):
    """(group, generators) pairs: the free pairs of bs12, wreath and
    bs(r=3/2,t=1/3) (whose products reduce denominators other than 1), the
    colliding pairs of heis and z2 and bs12 with two equal generators, and,
    for every group, seeded sets of three products of three distinct words
    of one length in its monoid generators."""
    z2 = LatticeGroup(2)
    thirds = SemidirectGroup(Fraction(3, 2), Fraction(1, 3))
    tx, _ = BS.monoid_generators()
    cases = [(HEIS, HEIS.monoid_generators()), (BS, BS.monoid_generators()),
             (WREATH, type3_generators(WREATH)), (z2, z2.monoid_generators()),
             (thirds, type2_generators(thirds)), (BS, (tx, tx))]
    for group in (HEIS, BS, WREATH, z2, thirds):
        gens = group.monoid_generators()
        for weight in (2, 3):
            three = []
            for word in rng.sample(list(product(gens, repeat=weight)), 3):
                g = group.identity()
                for letter in word:
                    g = g * letter
                three.append(g)
            cases.append((group, tuple(three)))
    return cases


def test_enumerate_monoid_matches_the_reference_table():
    # the walk on plain field tuples against the full table of every word,
    # keyed by element strings: the element count, the first collision's two
    # words, and the collision element's string and class
    for group, gens in _monoid_cases(random.Random(26)):
        for length in range(8):
            elements, collision = enumerate_monoid(group, gens, length)
            table = reference_enumerate_monoid(group, gens, length)
            assert elements == len(table), (group.id, gens, length)
            expected = next(((key, words[0], words[1]) for key, words in table if len(words) > 1), None)
            if expected is None:
                assert collision is None, (group.id, gens, length)
                continue
            element, w1, w2 = collision
            assert (group.format_element(element), w1, w2) == expected, (group.id, gens, length)
            assert type(element) is type(group.identity()) and group.contains(element)


def test_free_monoid_check_preconditions():
    with pytest.raises(ValueError):
        free_monoid_check(HEIS, [HEIS.monoid_generators()[0]], 3)
    with pytest.raises(ValueError):
        free_monoid_check(HEIS, [g.inverse() for g in HEIS.monoid_generators()], 3)


# --- digit sums --------------------------------------------------------------

def test_digit_sum_base_two():
    report = digit_sum_check(Fraction(2), 3)
    assert report.verified
    assert report.details["sums"] == 15


def test_digit_sum_r_one_counterexample():
    report = digit_sum_check(Fraction(1), 1)
    assert report.verdict == COUNTEREXAMPLE
    assert report.witness["subsets"] == [[0], [1]]
    assert report.witness["sum"] == "1"


def test_digit_sum_rational_ratio():
    assert digit_sum_check(Fraction(5, 2), 8).verified


def test_digit_sum_reciprocal_metamorphic():
    for r in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3), Fraction(1)):
        forward = digit_sum_check(r, 8)
        backward = digit_sum_check(1 / r, 8)
        assert forward.verdict == backward.verdict


def test_digit_sum_guard_and_domain():
    with pytest.raises(GuardLimitError):
        digit_sum_check(Fraction(2), 21)
    with pytest.raises(ValueError):
        digit_sum_check(Fraction(-1), 3)


# --- ping-pong ---------------------------------------------------------------

def test_pingpong_verified():
    report = pingpong_check(BS, 6)
    assert report.verified
    assert report.details["orbit"] == 2**7 - 1


def test_pingpong_seed_and_first_moves():
    # tx.(t x^0) has h = 3 = (1 + 2) t, x.(t x^0) has h = 2: disjoint digit 0
    tx, x = BS.monoid_generators()
    seed = BS.element(1, 0)
    assert BS.multiply(tx, seed) == BS.element(3, 1)
    assert BS.multiply(x, seed) == BS.element(2, 1)
    report = pingpong_check(BS, 0)
    assert report.verified  # the empty application: the seed itself is in A


def test_pingpong_requires_integer_ratio():
    group = SemidirectGroup(Fraction(5, 2))
    with pytest.raises(ValueError, match="ping-pong certificate requires an integer ratio"):
        pingpong_check(group, 4)


def test_pingpong_requires_ratio_at_least_two():
    with pytest.raises(ValueError):
        pingpong_check(SemidirectGroup(Fraction(1)), 4)


def test_negative_lengths_rejected():
    # a negative bound enumerates nothing and must not certify anything
    with pytest.raises(ValueError, match="nonnegative"):
        free_monoid_check(BS, list(BS.monoid_generators()), -2)
    with pytest.raises(ValueError, match="nonnegative"):
        pingpong_check(BS, -1)


def test_pingpong_nontrivial_t():
    report = pingpong_check(SemidirectGroup(Fraction(3), Fraction(5, 7)), 5)
    assert report.verified


def test_pingpong_puts_a_non_integral_h_over_t_outside_A(monkeypatch):
    # a product fault adding t/3 to h at n = 2 leaves h/t non-integral; a
    # floored h/t would read as a valid digit set and certify the fault
    exact = groups._semidirect_product

    def faulty(g, h):
        num, den, n, p, q = exact(g, h)
        if n == 2:
            num, den = 3 * num + den, 3 * den
            c = gcd(num, den)
            num, den = num // c, den // c
        return num, den, n, p, q

    monkeypatch.setattr(groups.SemidirectElement, "_product", staticmethod(faulty))
    for length in (1, 2):
        report = pingpong_check(SemidirectGroup(2, 1), length)
        assert report.verdict == COUNTEREXAMPLE
        assert report.witness == {"reason": "tx-image missing the exponent-0 digit",
                                  "element": "B(22/3,2)@r=2/1"}


# --- generator constructions --------------------------------------------------

def test_type2_generators_standard():
    tx, x = type2_generators(BS)
    assert (tx.h, tx.n) == (1, 1)
    assert (x.h, x.n) == (0, 1)
    assert free_monoid_check(BS, [tx, x], 8).verified


def test_type2_generators_fractional_ratio():
    group = SemidirectGroup(Fraction(3, 2))
    tx, x = type2_generators(group)
    assert tx.n == 2 and x.n == 2  # (3/2)^2 = 9/4 >= 2
    assert tx.h == 1 and x.h == 0
    report = free_monoid_check(group, [tx, x], 8)
    assert report.verified


def test_type2_generators_small_ratio():
    group = SemidirectGroup(Fraction(1, 3))
    tx, x = type2_generators(group)
    assert tx.n == 1 and x.n == 1
    assert free_monoid_check(group, [tx, x], 8).verified


def test_type2_generators_ratio_one_rejected():
    with pytest.raises(ValueError):
        type2_generators(SemidirectGroup(Fraction(1)))


def test_type3_generators():
    a, t = type3_generators(WREATH)
    assert a == WREATH.element({0: 1}, 0)
    assert t == WREATH.element({}, 1)
    # proof intermediates: b = t^-1 shrinks B0; -delta_0 separates
    b = WREATH.inverse(t)
    moved = WREATH.multiply(WREATH.multiply(b, a), WREATH.inverse(b))
    assert WREATH.subgroup_contains("B-1", moved)
    neg = WREATH.element({0: -1}, 0)
    assert WREATH.subgroup_contains("B0", neg)
    assert not WREATH.subgroup_contains("B-1", neg)


def test_type1_unit_generators():
    ux, uy = type1_unit_generators(HEIS, Fraction(1), Fraction(1), 2, QQ)
    x, y = HEIS.monoid_generators()
    assert ux.terms == {HEIS.identity(): Fraction(1), x: Fraction(1)}
    assert uy.terms == {HEIS.identity(): Fraction(1), y: Fraction(1)}
    ux2, uy3 = type1_unit_generators(HEIS, Fraction(2), Fraction(3), 2, QQ)
    assert ux2.coefficient(x) == 2 and uy3.coefficient(y) == 3
    inv = ux.invert()
    assert inv.terms == {
        HEIS.identity(): Fraction(1),
        x: Fraction(-1),
        x * x: Fraction(1),
    }
    with pytest.raises(ValueError):
        type1_unit_generators(HEIS, Fraction(0), Fraction(1), 2, QQ)


def test_type1_unit_generators_refuse_a_scalar_off_the_field():
    # the caller names the field; a scalar outside it is refused by name,
    # also at degree 0, where neither scalar enters a unit
    F5 = PrimeField(5)
    for degree in (0, 2):
        with pytest.raises(ValueError, match="is not in field Fp:5"):
            type1_unit_generators(HEIS, 1, F5.from_int(2), degree, F5)
        with pytest.raises(ValueError, match="is not in field Q$"):
            type1_unit_generators(HEIS, Fraction(1), F5.from_int(2), degree, QQ)


# --- group algebra independence -----------------------------------------------

def test_rank_five_at_length_one():
    units = list(type1_unit_generators(HEIS, Fraction(1), Fraction(1), 2, QQ))
    report = group_algebra_independence(units, 1)
    assert report.verified
    assert report.details["rank"] == 5
    assert report.details["words"] == 5


def test_single_unit_length_zero():
    (unit, _) = type1_unit_generators(HEIS, Fraction(1), Fraction(1), 2, QQ)
    report = group_algebra_independence([unit], 0)
    assert report.verified and report.details["rank"] == 1


def test_rank_with_arbitrary_scalars():
    units = list(type1_unit_generators(HEIS, Fraction(2), Fraction(3), 4, QQ))
    report = group_algebra_independence(units, 2)
    assert report.verified
    assert report.details["words"] == 17


def test_duplicate_units_dependency_found_and_reverified():
    (unit, _) = type1_unit_generators(HEIS, Fraction(1), Fraction(1), 3, QQ)
    report = group_algebra_independence([unit, unit], 1)
    assert report.verdict == INCONCLUSIVE
    assert report.exit_code == 3
    assert report.witness["dependency"]  # re-verification already ran inside


def test_dependency_is_monotone_under_truncation():
    # a dependency of truncations at degree D stays one at every lower degree
    (unit, _) = type1_unit_generators(HEIS, Fraction(1), Fraction(1), 3, QQ)
    report = group_algebra_independence([unit, unit], 1)
    deps = report.witness["dependency"]
    from mnseries.magnus import parse_word

    units = [unit, unit]
    inverses = [u.invert() for u in units]
    for degree in (2, 1, 0):
        total = GradedSeries.zero(HEIS, degree, QQ)
        for word_text, coeff_text in deps.items():
            word = parse_word(word_text, size=2)
            img = GradedSeries.one(HEIS, 3, QQ)
            for sym, sign in word.letters:
                img = img * (units[sym] if sign == 1 else inverses[sym])
            total = total + img.truncated(degree).scale(Fraction(coeff_text))
        assert not total


def test_word_evaluation_is_multiplicative():
    from mnseries.magnus import enumerate_reduced_words

    units = list(type1_unit_generators(HEIS, Fraction(1), Fraction(1), 4, QQ))
    inverses = [u.invert() for u in units]

    def evaluate(word):
        img = GradedSeries.one(HEIS, 4, QQ)
        for sym, sign in word.letters:
            img = img * (units[sym] if sign == 1 else inverses[sym])
        return img

    words = enumerate_reduced_words(2, 2)
    rng = random.Random(0)
    for _ in range(50):
        u = rng.choice(words)
        v = rng.choice(words)
        assert evaluate(u * v) == evaluate(u) * evaluate(v)


def test_independence_over_prime_field():
    F5 = PrimeField(5)
    units = list(type1_unit_generators(HEIS, F5.from_int(1), F5.from_int(1), 4, F5))
    report = group_algebra_independence(units, 2)
    assert report.verified
    assert report.details["field"] == "Fp:5"


def test_report_digest_is_stable():
    r1 = digit_sum_check(Fraction(2), 5)
    r2 = digit_sum_check(Fraction(2), 5)
    assert r1 == r2
    blob = r1.to_json()
    assert set(blob) == {"kind", "verdict", "bounds", "witness", "details"}
    # the digest covers the content, not the timing or a previous digest
    assert digest(blob) == digest(r2.to_json())
    assert digest({**blob, "elapsed_ms": 7, "digest": "0" * 16}) == digest(blob)
    assert digest({**blob, "details": {}}) != digest(blob)
