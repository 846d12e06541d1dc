"""The shared-prefix word-image evaluator against per-word oracles.

magnus.word_images multiplies each distinct prefix once, in any word order;
the oracles in helpers.py build every word from scratch. Images must agree
term for term, and survive validation, for the Magnus map and for the
group-algebra units, and the Magnus first collision must be the one a
per-word scan finds. The evaluator takes each group product from one table
per evaluation: its images must equal plain products on every group and
crossed system, and no table may outlive the evaluation, returned or raised.
"""

import random
from fractions import Fraction

import pytest

from helpers import assert_valid, reference_magnus_image, reference_word_image
from mnseries import registry, series
from mnseries.crossed import diagonal_change, z2_sign_twist
from mnseries.freeness import type1_unit_generators
from mnseries.magnus import (
    FreeWord,
    enumerate_reduced_words,
    magnus_image,
    magnus_images,
    parse_word,
    verify_magnus_injectivity,
    word_images,
)
from mnseries.scalars import QQ, field_from_spec
from mnseries.series import GradedSeries, NoTruncatedInverseError, to_text


def reference_first_collision(words, images):
    """The first later word whose image's text an earlier word's image
    already had, as (earlier, later), or None."""
    seen = {}
    for word, image in zip(words, images):
        key = to_text(image)
        if key in seen:
            return seen[key], word
        seen[key] = word
    return None


def assert_same_images(images, expected):
    assert len(images) == len(expected)
    for image, reference in zip(images, expected):
        assert image == reference, (image, reference)
        assert_valid(image)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_magnus_images_match_per_word_reference(size):
    words = enumerate_reduced_words(size, 4)
    for degree in range(7):
        expected = [reference_magnus_image(w, degree) for w in words]
        images, _, collision = magnus_images(words, degree)
        assert_same_images(images, expected)
        assert collision == reference_first_collision(words, expected)
        if degree >= 4:
            assert collision is None
        if degree == 0:
            # every image is 1: the identity and the first letter collide
            assert collision == (words[0], words[1])


def test_magnus_image_matches_reference_word_by_word():
    for size in (1, 2, 3):
        for w in enumerate_reduced_words(size, 3):
            for degree in (0, 2, 5):
                assert_same_images([magnus_image(w, degree)], [reference_magnus_image(w, degree)])


def test_magnus_images_of_shuffled_lists_with_repeats_and_identity():
    rng = random.Random(5)
    pool = enumerate_reduced_words(2, 4)
    for _ in range(40):
        words = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        words += [parse_word("1", 2)] * rng.randint(0, 2)
        words += rng.sample(words, rng.randint(0, min(3, len(words))))
        rng.shuffle(words)
        degree = rng.randint(0, 6)
        expected = [reference_magnus_image(w, degree) for w in words]
        images, _, collision = magnus_images(words, degree)
        assert_same_images(images, expected)
        assert collision == reference_first_collision(words, expected)


def test_magnus_images_of_documented_lists():
    words = [parse_word(w, 2) for w in "b'a,ab,a'b'ab,1,ba'".split(",")]
    images, _, collision = magnus_images(words, 5)
    assert_same_images(images, [reference_magnus_image(w, 5) for w in words])
    assert collision is None
    words = [parse_word(w, 2) for w in "ab,a'b,ab".split(",")]
    images, _, collision = magnus_images(words, 4)
    assert [str(w) for w in collision] == ["ab", "ab"]
    # one repeated word is one image, multiplied once
    assert images[0] is images[2]


@pytest.mark.parametrize("spec,c,d,L,D", [
    ("Q", "1", "2", 4, 5),
    ("Fp:5", "1 mod 5", "2 mod 5", 4, 5),
    ("Qsqrt:2", "1+1*sqrt(2)", "1-1*sqrt(2)", 3, 5),
])
def test_group_algebra_images_match_per_word_products(spec, c, d, L, D):
    field = field_from_spec(spec)
    heis = registry.resolve_group("heis")
    units = list(type1_unit_generators(heis, field.parse(c), field.parse(d), D, field))
    words = enumerate_reduced_words(2, L)
    expected = [reference_word_image(w, units) for w in words]
    assert_same_images(word_images(words, units), expected)
    # any order, with repeats: each image is the same as in enumeration order
    rng = random.Random(len(words))
    shuffled = words + rng.sample(words, 20)
    rng.shuffle(shuffled)
    by_letters = {w.letters: image for w, image in zip(words, expected)}
    assert_same_images(word_images(shuffled, units), [by_letters[w.letters] for w in shuffled])


def test_word_images_of_the_empty_word_is_the_identity():
    heis = registry.resolve_group("heis")
    units = list(type1_unit_generators(heis, Fraction(1), Fraction(2), 3, QQ))
    (image,) = word_images([FreeWord(2, ())], units)
    assert image.terms == {heis.identity(): 1}


def test_magnus_rows_are_the_printed_rows_of_the_images():
    # rows[i] is images[i].rows(), and the first collision in list order is
    # keyed on them: at D=1, ab and ba agree only after truncation, and the
    # earlier pair of words wins over the later repeat of a
    words = [parse_word(w, 2) for w in "b'a,ab,ba,a,ab".split(",")]
    for degree in (1, 2):
        images, rows, collision = magnus_images(words, degree)
        assert rows == [image.rows() for image in images]
        assert collision == reference_first_collision(words, images)
    assert [str(w) for w in magnus_images(words, 1)[2]] == ["ab", "ba"]
    assert [str(w) for w in magnus_images(words, 2)[2]] == ["ab", "ab"]
    rng = random.Random(3)
    pool = enumerate_reduced_words(3, 3)
    for _ in range(40):
        words = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
        degree = rng.randint(0, 4)
        images, rows, collision = magnus_images(words, degree)
        assert rows == [image.rows() for image in images]
        assert collision == reference_first_collision(words, images)


def _units(group_id, spec, c, d, degree, system_id="trivial"):
    """The units 1 + c*x, 1 + d*y over the group's first two monoid
    generators, or 1 + c*x alone on a group with one generator, under the
    named crossed system."""
    group = registry.resolve_group(group_id)
    field = field_from_spec(spec)
    system = registry.resolve_crossed(system_id, field)
    one = {group.identity(): field.one}
    return [GradedSeries(group, degree, {**one, g: field.parse(s)}, field, system)
            for g, s in zip(group.monoid_generators()[:2], (c, d))]


# each group product of word_images comes from its evaluation's table; the
# reference multiplies every word from scratch with no table open
@pytest.mark.parametrize("group_id,spec,c,d,system_id,L,D", [
    ("bs12", "Q", "1", "2", "trivial", 4, 5),
    ("bs12", "Fp:5", "1 mod 5", "2 mod 5", "trivial", 4, 5),
    ("wreath", "Q", "1", "-1/2", "trivial", 4, 5),
    ("wreath", "Fp:5", "3 mod 5", "2 mod 5", "trivial", 4, 5),
    ("z2", "Q", "1", "2", "trivial", 4, 6),
    ("z2", "Fp:5", "1 mod 5", "4 mod 5", "trivial", 4, 6),
    ("z2", "Q", "1", "-3", "z2-sign-twist", 4, 6),
    ("z", "Qsqrt:2", "1+1*sqrt(2)", None, "quadratic-conj-Z", 6, 7),
])
def test_word_images_match_plain_products(group_id, spec, c, d, system_id, L, D):
    units = _units(group_id, spec, c, d, D, system_id)
    words = enumerate_reduced_words(len(units), L)
    expected = [reference_word_image(w, units) for w in words]
    assert_same_images(word_images(words, units), expected)
    assert series._shared is None


def _q_word_cases():
    """Q on five monoids, z2 under z2-sign-twist, and z2 under a diagonal
    change of it whose twists are +-1 times powers of 8/27."""
    for monoid_id in ("heis", "bs12", "wreath", "free:2", "z2"):
        yield pytest.param(registry.resolve_monoid(monoid_id), None, id=monoid_id)
    z2 = registry.resolve_monoid("z2")
    yield pytest.param(z2, z2_sign_twist(QQ), id="z2-sign-twist")
    d = lambda g: Fraction(2, 3) ** (z2.grade(g) % 3)
    yield pytest.param(z2, diagonal_change(z2_sign_twist(QQ), d), id="z2-diagonal-change")


def _q_units(ctx, degree, identity_coefficient, system):
    """Two units over Q with non-integral scalars and mixed denominators,
    each with the given identity coefficient."""
    x, y = ctx.monoid_generators()[:2]
    one = ctx.identity()
    terms = ({one: identity_coefficient, x: Fraction(1, 2), ctx.multiply(x, y): Fraction(-5, 4)},
             {one: identity_coefficient, y: Fraction(-3, 2), ctx.multiply(y, y): Fraction(2, 9)})
    return [GradedSeries(ctx, degree, t, QQ, system) for t in terms]


# over Q the words are evaluated on integer numerators, one scale per word;
# a negative identity coefficient flips the sign of U0^(D+1) at even D
@pytest.mark.parametrize("degree", [5, 6])
@pytest.mark.parametrize("ctx,system", _q_word_cases())
def test_q_word_images_on_integers_match_plain_products(ctx, system, degree):
    words = enumerate_reduced_words(2, 3)
    for identity_coefficient in (Fraction(2, 3), -3, Fraction(-1, 2)):
        units = _q_units(ctx, degree, identity_coefficient, system)
        images = word_images(words, units)
        assert series._shared is None
        assert_same_images(images, [reference_word_image(w, units) for w in words])
        if system is None or system.id == "z2-sign-twist":
            # integer twists: every coefficient in the field's normal form
            assert all(type(c) is int for image in images for c in image.terms.values()
                       if c.denominator == 1)


def test_q_unit_without_its_identity_term_raises_inside_the_evaluation():
    # U0 = 0: the inverse letter is refused as invert refuses it, and the
    # positive letter still evaluates
    ctx = registry.resolve_monoid("bs12")
    x, y = ctx.monoid_generators()[:2]
    units = [GradedSeries(ctx, 4, {x: Fraction(1, 2), y: Fraction(-2, 3)}, QQ),
             _q_units(ctx, 4, Fraction(2, 3), None)[1]]
    for word in ("a'", "ba'b", "ab'a'"):
        with pytest.raises(NoTruncatedInverseError):
            word_images([parse_word(word, 2)], units)
        assert series._shared is None
    words = [parse_word(w, 2) for w in ("ab", "b'a", "aab'")]
    assert_same_images(word_images(words, units), [reference_word_image(w, units) for w in words])


def test_word_images_share_one_object_per_product():
    # within one evaluation equal products are one object, across images
    # too; the next evaluation makes its own. The empty word's image is no
    # product, so only the other words count
    units = _units("heis", "Q", "1", "2", 5)
    words = enumerate_reduced_words(2, 3)[1:]
    keys = {}
    for image in word_images(words, units):
        for g in image.terms:
            assert keys.setdefault(g, g) is g
    again = word_images(words, units)
    assert any(keys[g] is not g for image in again for g in image.terms)


def _count_products(monkeypatch, group):
    made = []
    multiply = type(group).multiply

    def counted(self, g, h):
        made.append((g, h))
        return multiply(self, g, h)

    monkeypatch.setattr(type(group), "multiply", counted)
    return made


def _pairs_multiplied(f, g):
    # the pairs within the degree whose right term is not the identity: a
    # right factor whose first term is the identity (as here) has that
    # term's pairs copied from the left factor, with no group product
    grade = f.context.grade
    assert not grade(next(iter(g.terms)))
    return sum(grade(x) + grade(y) <= f.degree for x in f.terms for y in g.terms if grade(y))


def test_no_table_is_open_after_word_images_returns(monkeypatch):
    units = _units("heis", "Fp:5", "1 mod 5", "2 mod 5", 4)
    words = enumerate_reduced_words(2, 3)
    made = _count_products(monkeypatch, units[0].context)
    images = word_images(words, units)
    assert series._shared is None
    # fewer products than pairs: each distinct (g, h) was made once
    inside = len(made)
    assert inside == len(set(made))
    f, g = images[-1], images[-2]
    product = f * g
    assert len(made) - inside == _pairs_multiplied(f, g)
    assert product == reference_word_image(words[-1], units) * reference_word_image(
        words[-2], units)


def test_no_table_is_open_after_word_images_raises(monkeypatch):
    # 1 + c*x with its identity term dropped has no truncated inverse, and
    # its inverse is first asked for inside the evaluation
    group = registry.resolve_group("heis")
    field = field_from_spec("Q")
    x, y = group.monoid_generators()[:2]
    units = [GradedSeries(group, 4, {x: field.one}, field),
             GradedSeries(group, 4, {group.identity(): field.one, y: field.one}, field)]
    with pytest.raises(NoTruncatedInverseError):
        word_images([parse_word("ba'", 2)], units)
    assert series._shared is None
    made = _count_products(monkeypatch, group)
    f = units[1] * units[1]
    product = f * units[1]
    assert len(made) == _pairs_multiplied(units[1], units[1]) + _pairs_multiplied(
        f, units[1])
    assert product.terms == reference_word_image(parse_word("bbb", 2), units).terms


def test_a_product_over_another_context_inside_an_evaluation_makes_its_own():
    # a table serves only the context it was opened for
    heis = _units("heis", "Q", "1", "2", 3)
    z2 = _units("z2", "Q", "1", "2", 3)
    with series.shared_products(heis[0].context):
        assert series._shared[0] is heis[0].context
        assert z2[0] * z2[1] == reference_word_image(parse_word("ab", 2), z2)
        assert series._shared[1] == {}
    assert series._shared is None


@pytest.mark.parametrize("size,L,D", [(2, 6, 6), (2, 4, 4), (3, 3, 3), (2, 5, 5), (1, 4, 6),
                                      (2, 4, 1), (3, 3, 0), (1, 3, 2)])
def test_a_collision_keyed_on_images_is_the_first_collision_on_rows(size, L, D):
    # verify_magnus_injectivity takes its collision from magnus_images; below
    # the word length (which it refuses) images collide, and the pair is the
    # first one on the printed rows
    words = enumerate_reduced_words(size, L)
    collision = magnus_images(words, D)[2]
    if D >= L:
        assert collision is None
        report = verify_magnus_injectivity(size, L, D)
        assert report.witness is None
        assert report.details == {"k": size, "words": len(words)}
    elif D <= 1 < size:
        # ab and ba agree up to degree 1
        assert collision is not None
