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
"""

import pytest

from mnseries.crossed import z2_sign_twist
from mnseries.freeness import group_algebra_independence
from mnseries.groups import Heisenberg, HeisenbergElement, LatticeGroup
from mnseries.linalg import rank_and_left_nullspace
from mnseries.magnus import enumerate_reduced_words, parse_word, word_images
from mnseries.scalars import QQ, PrimeField
from mnseries.series import GradedSeries, unit_generators

HEIS = Heisenberg()
Z2 = LatticeGroup(2)


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
