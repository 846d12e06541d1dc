"""The shared-prefix word-image evaluator against per-word oracles.

magnus.word_images multiplies each distinct prefix once, in any word order;
the oracles in helpers.py build every word from scratch. Images must agree
term for term, and survive validation, for the Magnus map and for the
group-algebra units, and the Magnus first collision must be the one a
per-word scan finds.
"""

import random
from fractions import Fraction

import pytest

from helpers import assert_valid, reference_magnus_image, reference_word_image
from mnseries import registry
from mnseries.freeness import type1_unit_generators
from mnseries.magnus import (
    FreeWord,
    enumerate_reduced_words,
    magnus_image,
    magnus_images,
    parse_word,
    word_images,
)
from mnseries.scalars import field_from_spec
from mnseries.series import to_text


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
    units = list(type1_unit_generators(heis, field.parse(c), field.parse(d), D))
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
    units = list(type1_unit_generators(heis, Fraction(1), Fraction(2), 3))
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
