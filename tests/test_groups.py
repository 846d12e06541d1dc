import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    heis_product_oracle,
    reference_digit_sum_subset,
    semidirect_product_oracle,
    reference_wreath_mul,
)
from mnseries.groups import (
    GroupMismatchError,
    Heisenberg,
    HeisenbergElement,
    LatticeElement,
    LatticeGroup,
    NotInMonoidError,
    SemidirectElement,
    SemidirectGroup,
    WreathGroup,
    classify_order_type,
    digit_expansion,
    enumerate_monoid,
    monoid_word_count,
    sample_monoid_element,
)
from mnseries.magnus import free_monoid
from mnseries.registry import group_ids, resolve_group
from mnseries.scalars import PSI_12, randint

HEIS = Heisenberg()
BS = SemidirectGroup()
WREATH = WreathGroup()
Z2 = LatticeGroup(2)
Z1 = LatticeGroup(1)
ALL_GROUPS = (HEIS, BS, WREATH, Z2, Z1)

X = HeisenbergElement(1, 0, 0)
Y = HeisenbergElement(0, 1, 0)


def test_heisenberg_products_match_matrix_oracle():
    assert X * Y == heis_product_oracle(X, Y) == HeisenbergElement(1, 1, 1)
    assert Y * X == heis_product_oracle(Y, X) == HeisenbergElement(1, 1, 0)
    rng = random.Random(0)
    for _ in range(300):
        g = HEIS.sample_element(rng)
        h = HEIS.sample_element(rng)
        assert g * h == heis_product_oracle(g, h)


def test_semidirect_products_match_affine_oracle():
    tx, x = BS.monoid_generators()
    assert tx * x == BS.element(1, 2)
    assert x * tx == BS.element(2, 2)
    rng = random.Random(1)
    for group in (BS, SemidirectGroup(Fraction(3, 2)), SemidirectGroup(Fraction(2, 5))):
        for _ in range(300):
            g = group.sample_element(rng)
            h = group.sample_element(rng)
            assert g * h == semidirect_product_oracle(g, h)


def test_semidirect_element_hash_agrees_with_equality():
    rng = random.Random(3)
    for _ in range(200):
        g = BS.sample_element(rng)
        twin = SemidirectElement(Fraction(g.h.numerator, g.h.denominator), g.n, Fraction(2))
        assert twin == g and hash(twin) == hash(g)
    from_ints = SemidirectElement(3, 1, 2)
    assert type(from_ints.h) is Fraction and type(from_ints.ratio) is Fraction
    assert from_ints == BS.element(3, 1) and hash(from_ints) == hash(BS.element(3, 1))


def test_semidirect_elements_with_other_ratio_stay_distinct():
    g = BS.element(Fraction(1, 3), 2)
    other = SemidirectGroup(Fraction(3)).element(Fraction(1, 3), 2)
    assert (g.h, g.n) == (other.h, other.n)
    assert g != other and other != g
    assert len({g: 0, other: 1}) == 2


def test_semidirect_encodes_scaling_conjugation():
    x = BS.element(0, 1)
    rng = random.Random(2)
    for _ in range(50):
        z = BS.sample_subgroup("base", rng)
        assert x * z * x.inverse() == BS.element(2 * z.h, 0)


def test_wreath_products_match_shift_oracle():
    rng = random.Random(3)
    for _ in range(300):
        g = WREATH.sample_element(rng)
        h = WREATH.sample_element(rng)
        assert g * h == reference_wreath_mul(g, h)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.id)
def test_canonical_form_soundness(group):
    rng = random.Random(4)
    ident = group.identity()
    for _ in range(200):
        g = group.sample_element(rng)
        assert group.multiply(g, group.inverse(g)) == ident
        assert group.multiply(group.inverse(g), g) == ident


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.id)
def test_bi_invariance(group):
    rng = random.Random(5)
    for _ in range(1000):
        g = group.sample_element(rng)
        h = group.sample_element(rng)
        z = group.sample_element(rng)
        base = group.compare(g, h)
        assert group.compare(group.multiply(z, g), group.multiply(z, h)) == base
        assert group.compare(group.multiply(g, z), group.multiply(h, z)) == base


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.id)
def test_weight_is_additive_on_the_monoid(group):
    rng = random.Random(6)
    for _ in range(200):
        g = sample_monoid_element(group, rng, 5)
        h = sample_monoid_element(group, rng, 5)
        assert group.weight(group.multiply(g, h)) == group.weight(g) + group.weight(h)
    assert group.weight(group.identity()) == 0
    for gen in group.monoid_generators():
        assert group.weight(gen) == 1
        assert group.compare(group.identity(), gen) < 0


@pytest.mark.parametrize("group", ALL_GROUPS + (LatticeGroup(3),), ids=lambda g: g.id)
def test_sampled_monoid_elements_stay_within_max_weight(group):
    rng = random.Random(9)
    for max_weight in range(5):
        for _ in range(50):
            assert group.weight(sample_monoid_element(group, rng, max_weight)) <= max_weight


def test_monoid_sampler_reaches_every_generator():
    z3 = LatticeGroup(3)
    rng = random.Random(10)
    seen = {sample_monoid_element(z3, rng, 1) for _ in range(200)}
    assert seen == {z3.identity(), *z3.monoid_generators()}


# sha256 prefixes of the 200 samples of test_seeded_samples_are_pinned,
# one per line as the context prints them
PINNED_SAMPLES = {
    "heis": "4fab9009daefe1a3", "bs12": "08d970b9f37b9f39", "wreath": "ab17d5955134c34d",
    "z2": "992992d5561a80c0", "z": "e254f98cf46990cf", "free:1": "5fd85b8a4a284ad5",
    "free:2": "bf9956116eb7cbc6", "free:3": "ae76108eea74a151",
}


def test_seeded_samples_are_pinned():
    # one sampler over context.multiply serves the groups and the free
    # monoids; the pins fix its seeded draws on each
    contexts = [*map(resolve_group, group_ids()), *map(free_monoid, (1, 2, 3))]
    assert [ctx.id for ctx in contexts] == list(PINNED_SAMPLES)
    for ctx in contexts:
        rng = random.Random(39)
        text = "\n".join(ctx.format_element(sample_monoid_element(ctx, rng, i % 7))
                         for i in range(200))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_SAMPLES[ctx.id], ctx.id


@pytest.mark.parametrize("group", (BS, WREATH, Z2), ids=lambda g: g.id)
def test_two_generator_samples_draw_one_bit_per_factor(group):
    # a product of n factors, each picked by randint(0, 1): the draws of
    # randrange(2), so the samples of two-generator groups keep their values
    rng, twin = random.Random(11), random.Random(11)
    gens = group.monoid_generators()
    for _ in range(100):
        expected = group.identity()
        for _ in range(twin.randint(0, 6)):
            expected = expected * gens[twin.randint(0, 1)]
        assert sample_monoid_element(group, rng, 6) == expected


# sha256 prefixes of 300 seeded draws of sample_subgroup for each subgroup tag
# the package samples, "G" being sample_element, one per line as the group
# prints them; taken when every draw was random.Random.randint's own.
# "bs(3/2,-2/5)" is the semidirect group of ratio 3/2 and t -2/5, and B3 a
# wreath tag nothing samples, beside the B0 and B-1 that classify does
PINNED_GROUP_SAMPLES = {
    ("heis", "G"): "7a89497e6b519499", ("heis", "center"): "541985cc8e681185",
    ("heis", "a=0"): "6924310187ceaa0a", ("bs12", "G"): "dce74c3fba1e3905",
    ("bs12", "base"): "7100e7bbf5424592", ("wreath", "G"): "aedc5becb6ad1b4b",
    ("wreath", "B0"): "a378037b78339025", ("wreath", "B-1"): "cb2fdfc541d9530a",
    ("wreath", "B3"): "29b66030b93ea941", ("z2", "G"): "fcd909dd89c9828e",
    ("z2", "axis>1"): "ec4d3533eeecad6d", ("z", "G"): "6d425e7160c3727e",
    ("bs(3/2,-2/5)", "G"): "f4c699fea05ac672", ("bs(3/2,-2/5)", "base"): "7136eb9efbdcedcb",
}


@pytest.mark.parametrize("gid,tag", PINNED_GROUP_SAMPLES, ids=[f"{g}-{t}" for g, t in PINNED_GROUP_SAMPLES])
def test_seeded_group_samples_are_pinned(gid, tag):
    group = (SemidirectGroup(Fraction(3, 2), Fraction(-2, 5)) if gid == "bs(3/2,-2/5)"
             else resolve_group(gid))
    rng = random.Random(43)
    text = "\n".join(group.format_element(group.sample_subgroup(tag, rng)) for _ in range(300))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_GROUP_SAMPLES[gid, tag]


# the ranges the package draws from: group and subgroup samplers, the free
# monoid sampler's factor count and generator index (k up to 26 letters), the
# crossed term count, and the Q, F_p (p up to PSI_12) and Q(sqrt m) samplers
PACKAGE_RANGES = [(-5, 5), (-20, 20), (0, 2), (-3, 3), (0, 3), (-6, 6), (-4, -1), (-3, 0), (1, 3),
                  (-9, 9), (1, 6), (1, 4), *((0, w) for w in range(13)), *((0, k - 1) for k in range(1, 27)),
                  (0, 4), (0, 100), (1, 100), (0, PSI_12 - 2), (1, PSI_12 - 2)]


def test_randint_draws_as_random_randint():
    # the package's one integer draw must give random.Random.randint's values
    # on the same seed, draw for draw, and leave the generator where randint
    # leaves it; the CI matrix runs this on every supported interpreter
    ranges = list(PACKAGE_RANGES)
    picker = random.Random(2024)
    for _ in range(200):
        lo = picker.randint(-2 ** 70, 2 ** 70)
        ranges.append((lo, lo + picker.randint(0, 2 ** picker.randint(0, 80))))
    ranges += [(n, n) for n in (-7, 0, 1, 2 ** 64)]
    for seed, (lo, hi) in enumerate(ranges):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert randint(rng, lo, hi) == twin.randint(lo, hi), (lo, hi)
        assert rng.getstate() == twin.getstate()


def test_randint_refuses_an_empty_range():
    rng = random.Random(0)
    for lo, hi in ((1, 0), (0, -1), (5, -5)):
        with pytest.raises(ValueError, match="empty range"):
            randint(rng, lo, hi)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.id)
def test_order_keys_are_tuples(group):
    rng = random.Random(12)
    for _ in range(50):
        assert type(group.sample_element(rng).order_key()) is tuple


def test_weight_examples():
    assert HEIS.weight(HeisenbergElement(2, 3, 4)) == 5
    assert BS.weight(BS.element(1, 1)) == 1
    assert WREATH.weight(WREATH.element({0: 2, 1: 1}, 3)) == 6


def test_weight_outside_monoid_raises():
    with pytest.raises(NotInMonoidError):
        HEIS.weight(HeisenbergElement(-1, 0, 0))
    with pytest.raises(NotInMonoidError):
        HEIS.weight(HeisenbergElement(0, 0, 1))  # center is not reachable from x, y
    with pytest.raises(NotInMonoidError):
        HEIS.weight(HeisenbergElement(1, 1, 2))  # c exceeds a*b
    with pytest.raises(NotInMonoidError):
        BS.weight(BS.element(Fraction(1, 3), 1))  # not a digit sum of powers of 2
    with pytest.raises(NotInMonoidError):
        WREATH.weight(WREATH.element({-1: 1}, 1))


def test_digit_expansion_examples():
    assert digit_expansion(Fraction(11), 2) == [0, 1, 3]
    assert digit_expansion(Fraction(12), 3) == [1, 2]
    assert digit_expansion(Fraction(5), 3) is None  # digit 2
    assert digit_expansion(Fraction(3, 2), 2) is None
    assert digit_expansion(Fraction(0), 2) is None
    assert digit_expansion(Fraction(-4), 2) is None


@pytest.mark.parametrize("ratio,t", [(2, 1), (2, Fraction(-3, 2)), (3, 1), (4, Fraction(2, 5))])
def test_monoid_membership_digit_oracle_matches_subset_search(ratio, t):
    # integer ratios take the base-r digit oracle; the backtracking subset
    # search is the independent reference for the same membership question
    group = SemidirectGroup(ratio, t)
    for n in range(0, 6):
        for k in range(-3, ratio ** n + 3):
            for den in (1, ratio, 3):
                g = group.element(t * Fraction(k, den), n)
                q = g.h / t
                expected = g.h == 0 or (
                    n > 0 and reference_digit_sum_subset(q, Fraction(ratio), n - 1) is not None
                )
                assert group.in_monoid(g) == expected, (ratio, t, g)


@pytest.mark.parametrize("ratio", [Fraction(3, 2), Fraction(2, 5), Fraction(1, 3),
                                   Fraction(5, 4), Fraction(1)], ids=str)
def test_monoid_membership_digit_oracle_matches_subset_search_at_rational_ratios(ratio):
    # every sum of distinct powers below n, each nudged by the smallest step
    # of its grid, and plain rationals over 1, q, q^2 and 7
    t = Fraction(-3, 2)
    group = SemidirectGroup(ratio, t)
    q = ratio.denominator
    for n in range(0, 8):
        sums = {sum((ratio**e for e in s), Fraction(0))
                for k in range(n + 1) for s in combinations(range(n), k)}
        step = Fraction(1, q ** max(n - 1, 0))
        queries = sums | {s + step for s in sums} | {s - step for s in sums}
        bound = math.ceil(max(sums)) + 2
        for den in (1, q, q * q, 7):
            queries.update(Fraction(k, den) for k in range(-2 * den, bound * den))
        for x in queries:
            expected = reference_digit_sum_subset(x, ratio, n - 1)
            assert group.in_monoid(group.element(t * x, n)) == (expected is not None), (n, x)
            digits = digit_expansion(x, ratio)
            if ratio != 1 and x != 0:
                # away from ratio 1 the expansion is unique, so the exponents agree too
                fits = digits is not None and digits[-1] <= n - 1
                assert (tuple(digits) if fits else None) == expected, (n, x)


def test_digit_expansion_at_top_exponent_200():
    ratio = Fraction(5, 4)
    rng = random.Random(11)
    exponents = sorted(rng.sample(range(200), 100))
    total = sum((ratio**e for e in exponents), Fraction(0))
    digits = digit_expansion(total, ratio)
    assert digits == exponents
    assert sum((ratio**e for e in digits), Fraction(0)) == total
    near = total + Fraction(1, 4**199)
    assert digit_expansion(near, ratio) is None
    group = SemidirectGroup(ratio)
    assert group.in_monoid(group.element(total, 200))
    assert not group.in_monoid(group.element(near, 200))


def test_compare_examples():
    assert HEIS.compare(HeisenbergElement(0, 0, 1), HeisenbergElement(0, 1, 0)) == -1
    g = BS.element(Fraction(5, 2), -1)
    assert BS.compare(g, g) == 0
    assert WREATH.compare(WREATH.element({0: 1}, 0), WREATH.element({}, 1)) == -1
    # the maps differ first at index 1 from the top: a missing cell sits
    # between a negative and a positive value
    for low, high in (({1: -1, 2: 1}, {2: 1}), ({2: 1}, {1: 1, 2: 1}), ({1: -2, 2: 1}, {0: 3, 2: 1}),
                      ({0: 5, 1: 1}, {1: 2}), ({3: -1}, {})):
        assert WREATH.compare(WREATH.element(low, 0), WREATH.element(high, 0)) == -1
        assert WREATH.compare(WREATH.element(high, 0), WREATH.element(low, 0)) == 1


@pytest.mark.parametrize("left,right,message", [
    (SemidirectElement(1, 0, 2), X, "cannot multiply SemidirectElement by HeisenbergElement"),
    (LatticeElement((1,)), X, "cannot multiply LatticeElement by HeisenbergElement"),
    (X, WREATH.element({}, 1), "cannot multiply HeisenbergElement by WreathElement"),
    (SemidirectElement(1, 0, 2), SemidirectElement(1, 0, 3), "semidirect-product groups with different ratios"),
    (LatticeElement((1,)), LatticeElement((1, 2)), "lattice groups of different rank"),
], ids=("semidirect-heis", "lattice-heis", "heis-wreath", "ratios", "ranks"))
def test_element_product_mismatch_messages(left, right, message):
    # another class is named as such; within one class the product names
    # the ratio or rank that differs
    with pytest.raises(GroupMismatchError, match=message):
        left * right


def test_mixed_group_instances_rejected():
    with pytest.raises(GroupMismatchError):
        X * BS.element(0, 1)
    with pytest.raises(GroupMismatchError):
        BS.multiply(BS.element(0, 1), SemidirectGroup(Fraction(3)).element(0, 1))
    with pytest.raises(GroupMismatchError):
        HEIS.compare(X, WREATH.element({}, 1))
    with pytest.raises(GroupMismatchError):
        WREATH.compare(X, WREATH.element({}, 1))
    with pytest.raises(GroupMismatchError):
        BS.compare(BS.element(0, 1), SemidirectGroup(Fraction(3)).element(0, 1))


def test_heisenberg_centrality():
    z = HeisenbergElement(0, 0, 1)
    rng = random.Random(7)
    for _ in range(100):
        g = HEIS.sample_element(rng)
        assert g * z == z * g
    commutator = X.inverse() * Y.inverse() * X * Y
    assert commutator == z


def test_enumerate_monoid_weight_two():
    # x, y, xx, xy, yx, yy and the identity are distinct; xy = H(1,1,1),
    # yx = H(1,1,0)
    assert enumerate_monoid(HEIS, [X, Y], 2) == (7, None)
    assert monoid_word_count(2, 2) == 7


def test_enumerate_monoid_collision_bookkeeping():
    # xyyx and yxxy are the first two words of H(2,2,2); 30 distinct elements
    assert enumerate_monoid(HEIS, [X, Y], 4) == (
        30, (HeisenbergElement(2, 2, 2), (0, 1, 1, 0), (1, 0, 0, 1)))


def test_enumerate_monoid_bs_level3():
    # the eight words of length 3 reach eight new elements
    gens = list(BS.monoid_generators())
    assert enumerate_monoid(BS, gens, 2) == (7, None)
    assert enumerate_monoid(BS, gens, 3) == (15, None)


def test_monoid_word_count_closed_form():
    assert [monoid_word_count(k, 3) for k in (1, 2, 3, 4)] == [4, 15, 40, 85]
    assert monoid_word_count(4, 16) == 5726623061
    with pytest.raises(ValueError):
        monoid_word_count(2, -1)


def test_enumerate_monoid_rejects_bad_generators():
    with pytest.raises(ValueError):
        enumerate_monoid(HEIS, [X, X.inverse()], 2)
    with pytest.raises(ValueError):
        enumerate_monoid(HEIS, [X, HeisenbergElement(2, 0, 0)], 2)  # unequal weights
    with pytest.raises(ValueError):
        enumerate_monoid(HEIS, [], 2)


@pytest.mark.parametrize(
    "group,expected",
    [(HEIS, 1), (BS, 2), (WREATH, 3), (Z2, 1), (Z1, 1)],
    ids=lambda v: getattr(v, "id", v),
)
def test_classification(group, expected):
    result = classify_order_type(group, samples=100, seed=0)
    assert result.verified and result.kind == "order-type"
    assert result.details["type"] == expected and result.details["group"] == group.id


def test_classification_rejects_negative_samples():
    with pytest.raises(ValueError, match="must be nonnegative"):
        classify_order_type(HEIS, samples=-5)


def test_classification_has_no_table_for_ratio_one(monkeypatch):
    # ratio 1 makes the semidirect product abelian: refused before sampling
    def no_sampling(*args):
        raise AssertionError("sampled a group without a classification table")

    group = SemidirectGroup(Fraction(1))
    monkeypatch.setattr(SemidirectGroup, "sample_subgroup", no_sampling)
    monkeypatch.setattr(SemidirectGroup, "sample_element", no_sampling)
    with pytest.raises(ValueError, match="no classification table"):
        classify_order_type(group)


def test_heisenberg_classification_witness_chain():
    result = classify_order_type(HEIS, samples=50)
    assert result.witness["chain"] == ["1", "center", "a=0", "G"]
    assert all(j["central"] for j in result.details["jumps"])


def test_bs_classification_witness_ratio():
    result = classify_order_type(BS, samples=50)
    [jump] = result.details["jumps"]
    assert (jump["lower"], jump["upper"], jump["central"]) == ("1", "base", False)
    assert jump["action_ratio"] == "2"


def test_wreath_classification_witness():
    result = classify_order_type(WREATH, samples=50)
    assert result.witness["subgroup"] == "B0"
    assert result.witness["conjugator"] == "W({},-1)"
    # conjugation by t^-1 shifts B_k down: t B_k t^-1 = B_{k+1}
    t = WREATH.element({}, 1)
    a = WREATH.element({0: 1}, 0)
    shifted = t * a * t.inverse()
    assert shifted == WREATH.element({1: 1}, 0)


def test_wreath_convexity_of_b0():
    # only n = 0 elements can sit between two B0 elements, so sample those
    rng = random.Random(8)
    hits = 0
    for _ in range(2000):
        u = WREATH.sample_subgroup("B0", rng)
        v = WREATH.sample_subgroup("B0", rng)
        mapping = {rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
        g = WREATH.element(mapping, 0)
        if WREATH.compare(u, g) < 0 and WREATH.compare(g, v) < 0:
            hits += 1
            assert WREATH.subgroup_contains("B0", g)
    assert hits > 100  # the sandwich actually happened often enough to mean something


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.id)
def test_element_string_round_trip(group):
    rng = random.Random(9)
    for _ in range(100):
        g = group.sample_element(rng)
        assert group.parse_element(group.format_element(g)) == g


@pytest.mark.parametrize("group,text", [
    (HEIS, "H(1,0)"), (HEIS, "H(1,0,0,0)"), (HEIS, "H(1, 0,0)"), (HEIS, "H(1,0,0)x"),
    (BS, "B(1/2)"), (BS, "B(1/2,1)@r="), (BS, "B(1/-2,1)"),
    (WREATH, "W({0:1:2},0)"), (WREATH, "W({0:x},0)"), (WREATH, "W({0:1,},0)"),
    (WREATH, "W({,},0)"), (WREATH, "W({0},0)"), (WREATH, "W({0: 1},0)"),
    (Z2, "Z2(0,0,0)"), (Z2, "Z2(0)"), (Z2, "Z(0,0)"), (Z1, "Z(1,2)"), (Z1, "Z2(1)"),
    (Z1, "Z()"), (LatticeGroup(3), "Z3(1,2)"),
])
def test_malformed_element_strings_are_refused_by_name(group, text):
    # each group reads its elements by one full match of one pattern, the
    # lattice arity and the wreath cells included, and parse_element is the
    # one refusal
    with pytest.raises(ValueError) as info:
        group.parse_element(text)
    assert str(info.value) == f"not a {group.id} element: {text!r}"


def test_element_strings_are_read_by_one_full_match():
    # the text is read past its surrounding spaces; a wreath map may be
    # empty, repeat an index (the last value is kept) or hold a zero value
    assert HEIS.parse_element(" H(1,-2,3)\n") == HeisenbergElement(1, -2, 3)
    assert WREATH.parse_element("W({},-1)") == WREATH.element({}, -1)
    assert WREATH.parse_element("W({-2:1,0:3,0:-1,5:0},2)") == WREATH.element({-2: 1, 0: -1}, 2)
    assert LatticeGroup(3).parse_element("Z3(1,-2,3)") == LatticeElement((1, -2, 3))
    assert BS.parse_element("B(-3/4,2)@r=2/1") == BS.element(Fraction(-3, 4), 2)


def test_bs_element_strings():
    assert BS.format_element(BS.element(1, 1)) == "B(1/1,1)@r=2/1"
    assert BS.parse_element("B(1/1,1)") == BS.element(1, 1)
    with pytest.raises(ValueError):
        BS.parse_element("B(1/1,1)@r=3/1")


def test_wreath_element_strings_ascending_indices():
    g = WREATH.element({2: 1, 0: 2}, 3)
    assert WREATH.format_element(g) == "W({0:2,2:1},3)"

