"""Group-algebra answers known from mathematics, not from the code's own
earlier output.

Over z2 with the trivial system any two units commute, so each reduced word
in u, v maps to u^i v^j with |i| + |j| <= L: the rank of the word images is
at most the 2L^2 + 2L + 1 lattice points of that ball, with equality once the
monomials separate. Under z2-sign-twist, x^2 and y^2 are central, the series
ring is an order in a quaternion algebra, and it satisfies Hall's identity
[[u, v]^2, u] = 0 of 2 x 2 matrices: an exact relation among six positive
words of length 5.

Inside Q[heis], which grows polynomially, the positive words of length at
most L in a pair of polynomials lie in the span of the monoid elements of
weight at most L*w (w the largest weight in the pair), fewer than the
2^(L+1) - 1 words once L is large enough, so they become dependent. The
weight of heis is additive, so at D = L*w no term of a positive word's image
is truncated and the dependency is an exact relation.

Four metamorphic relations hold whatever the code computes: the rank and
column count do not depend on the nonzero scalars c and d of the units
1 + c*x and 1 + d*y (rescaling the generators is a graded automorphism of
the algebra the pair spans); bs12, wreath and free:2, whose monoids are
free on their two generators, give equal counts at equal (L, D);
truncation is a ring map, so words verified independent at (L, D) stay so
at (L, D+1) and their subset at (L-1, D); and for integer c and d the
images have integer coefficients, so their rank mod p is at most their
rank over Q.
"""

from fractions import Fraction

import pytest

from mnseries.crossed import z2_sign_twist
from mnseries.freeness import group_algebra_independence
from mnseries.groups import Heisenberg, HeisenbergElement, LatticeGroup, SemidirectGroup, WreathGroup
from mnseries.linalg import rank_and_left_nullspace
from mnseries.magnus import enumerate_reduced_words, free_monoid, parse_word, word_images
from mnseries.scalars import QQ, PrimeField
from mnseries.series import GradedSeries, unit_generators

HEIS = Heisenberg()
Z2 = LatticeGroup(2)
FP101 = PrimeField(101)


def _counts(context, scalars, max_length, degree, field):
    """(rank, columns) of the reduced words in the units 1 + s*g."""
    units = unit_generators(context, scalars, degree, field)
    details = group_algebra_independence(units, max_length).details
    return details["rank"], details["columns"]


# --- z2: the commutative closed form and Hall's identity ---------------------

@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=lambda f: f.name)
@pytest.mark.parametrize("max_length", (1, 2, 3, 4))
def test_z2_rank_is_the_lattice_ball(field, max_length):
    units = unit_generators(Z2, (field.one, field.one), 12, field)
    report = group_algebra_independence(units, max_length)
    assert report.details["rank"] == 2 * max_length ** 2 + 2 * max_length + 1
    assert report.verified == (max_length == 1)


# [[u, v]^2, u] expanded: uvuvu cancels, six positive words of length 5 remain
HALL_RELATION = {"uuvvu": 1, "uvuuv": 1, "vuvuu": 1, "uvvuu": -1, "vuuvu": -1, "uuvuv": -1}


@pytest.mark.parametrize("degree", (8, 12))
def test_z2_sign_twist_satisfies_halls_identity(degree):
    one = Z2.identity()
    u, v = (GradedSeries(Z2, degree, {one: 1, g: 1}, QQ, z2_sign_twist(QQ)) for g in Z2.monoid_generators())
    c = u * v - v * u
    assert c
    assert not (c * c) * u - u * (c * c)
    # the same relation on the six word images, u and v read as a and b
    words = [parse_word(w.replace("u", "a").replace("v", "b"), 2) for w in HALL_RELATION]
    images = word_images(words, (u, v))
    assert len(set(images)) == 6
    combo = GradedSeries.zero(Z2, degree, QQ, u.system)
    for coeff, image in zip(HALL_RELATION.values(), images):
        combo = combo + image.scale(coeff)
    assert not combo


@pytest.mark.parametrize("field", (QQ, FP101), ids=lambda f: f.name)
def test_z2_sign_twist_rank_lies_between_the_closed_form_and_the_words(field):
    # Hall's relation caps the twisted rank below the 485 words of length
    # at most 5; the twist still separates more words than the commutative
    # control's 2L^2 + 2L + 1 = 61, and fewer than the columns
    one = Z2.identity()
    for degree, rank, columns in ((12, 87, 91), (14, 105, 120), (16, 109, 153)):
        units = tuple(GradedSeries(Z2, degree, {one: field.one, g: field.one}, field, z2_sign_twist(field))
                      for g in Z2.monoid_generators())
        report = group_algebra_independence(units, 5)
        assert (report.details["rank"], report.details["columns"], report.details["words"]) == (
            rank, columns, 485)
        assert not report.verified
        assert 61 < rank < columns
        control = group_algebra_independence(unit_generators(Z2, (field.one, field.one), degree, field), 5)
        assert control.details["rank"] == 61 and control.details["columns"] == columns


# --- the scalars c and d, and the free monoids --------------------------------

@pytest.mark.parametrize("max_length, degree, counts", [(3, 6, (53, 78)), (4, 6, (94, 98)),
                                                        (4, 8, (159, 249))])
def test_heis_counts_do_not_depend_on_the_scalars(max_length, degree, counts):
    for scalars in ((1, 2), (1, -1), (Fraction(1, 2), 3), (-2, Fraction(1, 3)), (5, 7)):
        assert _counts(HEIS, scalars, max_length, degree, QQ) == counts, scalars
    for scalars in ((1, 2), (3, 5), (100, 1), (7, 99)):
        residues = tuple(map(FP101.from_int, scalars))
        assert _counts(HEIS, residues, max_length, degree, FP101) == counts, scalars


@pytest.mark.parametrize("max_length, degree, counts", [(3, 5, (45, 51)), (4, 7, (145, 197))])
def test_free_monoid_groups_give_equal_counts(max_length, degree, counts):
    for context in (SemidirectGroup(), WreathGroup(), free_monoid(2)):
        for scalars in ((1, 1), (1, 2), (Fraction(1, 3), -1)):
            assert _counts(context, scalars, max_length, degree, QQ) == counts, (context.id, scalars)


# scalar pairs over Q: +-1 and +-2, and +-1/2
METAMORPHIC_SCALARS = ((1, 2), (-1, -2), (2, -1), (Fraction(1, 2), -1),
                       (Fraction(-1, 2), Fraction(1, 2)))


@pytest.mark.parametrize("scalars", METAMORPHIC_SCALARS, ids=str)
@pytest.mark.parametrize("group", (HEIS, SemidirectGroup()), ids=lambda g: g.id)
def test_verified_holds_at_a_higher_degree_and_a_shorter_length(group, scalars):
    verified = {}
    for degree in range(10):
        units = unit_generators(group, scalars, degree, QQ)
        for max_length in range(1, 5):
            verified[max_length, degree] = group_algebra_independence(units, max_length).verified
    for (max_length, degree), holds in verified.items():
        if holds and degree < 9:
            assert verified[max_length, degree + 1], (max_length, degree)
        if holds and max_length > 1:
            assert verified[max_length - 1, degree], (max_length, degree)
    # not vacuous: L = 1, 2 and 3 are verified at degree 9, and no length
    # at degree 0
    assert all(verified[max_length, 9] for max_length in (1, 2, 3))
    assert not any(verified[max_length, 0] for max_length in range(1, 5))


@pytest.mark.parametrize("scalars", [s for s in METAMORPHIC_SCALARS if all(type(x) is int for x in s)],
                         ids=str)
@pytest.mark.parametrize("group", (HEIS, SemidirectGroup()), ids=lambda g: g.id)
def test_rank_mod_p_is_at_most_the_rank_over_q(group, scalars):
    residues = tuple(map(FP101.from_int, scalars))
    for degree in (2, 4, 6, 8):
        for max_length in range(1, 5):
            rank_q, _ = _counts(group, scalars, max_length, degree, QQ)
            rank_p, _ = _counts(group, residues, max_length, degree, FP101)
            assert rank_p <= rank_q, (max_length, degree)


# --- heis: exact relations among positive words inside Q[heis] ---------------

def _positive_word_images(v_terms, max_length, degree):
    """The positive words of length at most max_length and their images
    under (1 + x, v) over Q at degree."""
    ident = HEIS.identity()
    x, _ = HEIS.monoid_generators()
    units = (GradedSeries(HEIS, degree, {ident: 1, x: 1}, QQ), GradedSeries(HEIS, degree, v_terms, QQ))
    words = [w for w in enumerate_reduced_words(2, max_length) if all(sign == 1 for _, sign in w.letters)]
    return words, word_images(words, units)


@pytest.mark.parametrize("v_powers, max_length, degree, counts", [
    ((0, 1), 4, 4, (31, 30, 30)),
    ((0, 1, 2), 7, 14, (255, 456, 253)),
], ids=("1+y-L4", "1+y+y2-L7"))
def test_positive_words_in_q_heis_are_exactly_dependent(v_powers, max_length, degree, counts):
    v_terms = {HeisenbergElement(0, k, 0): 1 for k in v_powers}
    assert degree == max_length * max(v_powers)
    words, images = _positive_word_images(v_terms, max_length, degree)
    columns = sorted(set().union(*(img.terms for img in images)),
                     key=lambda g: (HEIS.grade(g), HEIS.format_element(g)))
    col_index = {g: j for j, g in enumerate(columns)}
    rows = [{col_index[g]: c for g, c in img.terms.items()} for img in images]
    rank, dependency = rank_and_left_nullspace(rows, len(columns), QQ)
    assert (len(words), len(columns), rank) == counts
    assert len(words) == 2 ** (max_length + 1) - 1
    # the dependency re-verifies by direct evaluation
    combo = GradedSeries.zero(HEIS, degree, QQ)
    for coeff, image in zip(dependency, images):
        combo = combo + image.scale(coeff)
    assert any(dependency) and not combo
    # nothing was truncated: at twice the degree every image is the same,
    # its top weight at most D, so the relation holds exactly in Q[heis]
    for image, exact in zip(images, _positive_word_images(v_terms, max_length, 2 * degree)[1]):
        assert exact.terms == image.terms
        assert max(HEIS.grade(g) for g in exact.terms) <= degree
