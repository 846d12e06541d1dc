import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_valid, reference_parse_word
from mnseries import magnus, registry
from mnseries.magnus import (
    FreeMonoid,
    FreeWord,
    enumerate_reduced_words,
    magnus_image,
    magnus_images,
    parse_word,
    reduced_word_count,
    verify_magnus_injectivity,
    word_reduce,
)
from mnseries.scalars import QQ
from mnseries.series import GradedSeries


def test_word_reduce_examples():
    # x y y^-1 x -> x x
    assert word_reduce(((0, 1), (1, 1), (1, -1), (0, 1)), 2).letters == ((0, 1), (0, 1))
    assert word_reduce(((0, 1), (0, -1)), 2).letters == ()
    w = ((0, 1), (1, 1), (0, -1), (1, -1))
    assert word_reduce(w, 2).letters == w


def test_word_reduce_is_confluent():
    rng = random.Random(0)
    for _ in range(200):
        raw = [(rng.randint(0, 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))]
        reduced = word_reduce(raw, 2)
        # reducing any rotation of the cancellation order gives the same result:
        # re-reduce the already reduced word concatenated from random splits
        k = rng.randint(0, len(raw))
        left = word_reduce(raw[:k], 2)
        right = word_reduce(raw[k:], 2)
        assert (left * right).letters == reduced.letters


def test_word_parse_and_str():
    w = parse_word("aba'b'")
    assert str(w) == "aba'b'"
    assert str(parse_word("1")) == "1"
    with pytest.raises(ValueError, match=r"^letter 'b' exceeds alphabet of size 1$"):
        parse_word("ab", size=1)
    with pytest.raises(ValueError, match=r"^letter 'c' exceeds alphabet of size 2$"):
        parse_word("abc", 2)
    for text in ("", "   "):
        with pytest.raises(ValueError, match=r"^empty word \(the identity is written 1\)$"):
            parse_word(text)
    # the first character that does not start a letter is named, an
    # apostrophe included when no letter comes before it
    for text, bad in (("a2", "2"), ("aA", "A"), ("'a", "'"), ("a''", "'")):
        with pytest.raises(ValueError, match=f"^{re.escape(f'bad letter {bad!r} in word {text!r}')}$"):
            parse_word(text)
    # the letters are read before the word is reduced
    assert parse_word("aa'b") == parse_word("b") and str(parse_word("aa'b")) == "b"


# words of letters a..e and their inverses, and texts that also hold the
# identity, blanks, a letter beyond every size drawn, stray apostrophes and
# digits
WORD_LETTERS = st.sampled_from([*"abcde", *(ch + "'" for ch in "abcde")])
WORD_PIECES = WORD_LETTERS | st.sampled_from(["1", " ", "\t", "x", "'", "''", "0", "2", "9"])
WORD_TEXTS = (st.lists(WORD_LETTERS, max_size=8).map("".join)
              | st.lists(WORD_PIECES, max_size=10).map("".join))


def _parsed(parse, text, size):
    try:
        word = parse(text, size)
    except ValueError as exc:
        return "error", str(exc)
    return word, str(word)


@settings(derandomize=True, database=None, max_examples=500)
@given(WORD_TEXTS, st.none() | st.integers(1, 5))
def test_parse_word_matches_reference(text, size):
    # the one-walk parser gives the reference's word and spelling, or its
    # error: a bad letter anywhere first, then the first letter beyond the
    # alphabet in text order
    word, spelled = _parsed(parse_word, text, size)
    assert (word, spelled) == _parsed(reference_parse_word, text, size)
    if word != "error":
        assert type(word) is FreeWord and FreeWord(word.size, word.letters) == word


def test_parse_word_error_precedence():
    for text, size, message in (("ca2", 2, "bad letter '2' in word 'ca2'"),
                                ("dcA", 2, "bad letter 'A' in word 'dcA'"),
                                ("adc", 2, "letter 'd' exceeds alphabet of size 2"),
                                ("acd", 2, "letter 'c' exceeds alphabet of size 2"),
                                ("cc'a", 2, "letter 'c' exceeds alphabet of size 2")):
        for parse in (parse_word, reference_parse_word):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse(text, size)


def test_enumerate_counts():
    assert len(enumerate_reduced_words(2, 1)) == 5
    assert len(enumerate_reduced_words(2, 2)) == 17
    assert len(enumerate_reduced_words(1, 3)) == 7
    assert len(enumerate_reduced_words(2, 3)) == 53
    assert len(enumerate_reduced_words(2, 4)) == 161


def test_reduced_word_count_matches_enumeration():
    for size in range(4):
        for length in range(6):
            assert reduced_word_count(size, length) == len(enumerate_reduced_words(size, length))
    assert reduced_word_count(2, 6) == 1457
    assert reduced_word_count(2, 16) == 1 + 2 * (3**16 - 1)
    with pytest.raises(ValueError):
        reduced_word_count(2, -1)


def test_enumerate_no_duplicates():
    words = enumerate_reduced_words(2, 4)
    assert len({w.letters for w in words}) == len(words)


def test_image_of_generator():
    img = magnus_image(parse_word("a"), 3)
    assert img.terms == {"": Fraction(1), "a": Fraction(1)}


def test_image_of_inverse_generator():
    img = magnus_image(parse_word("a'"), 3)
    assert img.terms == {
        "": Fraction(1),
        "a": Fraction(-1),
        "aa": Fraction(1),
        "aaa": Fraction(-1),
    }


def test_image_of_commutator():
    img = magnus_image(parse_word("a'b'ab"), 2)
    assert img.terms == {"": Fraction(1), "ab": Fraction(1), "ba": Fraction(-1)}


def test_image_is_multiplicative():
    rng = random.Random(1)
    words = enumerate_reduced_words(2, 3)
    for _ in range(100):
        u = rng.choice(words)
        v = rng.choice(words)
        product = u * v
        lhs = magnus_image(product, 4)
        rhs = magnus_image(u, 4) * magnus_image(v, 4)
        assert lhs == rhs


def test_image_of_inverse_is_series_inverse():
    rng = random.Random(2)
    words = enumerate_reduced_words(2, 3)
    for _ in range(60):
        w = rng.choice(words)
        assert magnus_image(w.inverse(), 4) == magnus_image(w, 4).invert()


def test_image_has_unit_identity_coefficient():
    for w in enumerate_reduced_words(2, 3):
        assert magnus_image(w, 3).identity_coefficient() == Fraction(1)


def test_image_weights_are_word_lengths():
    # the weight of each row is read from the term, a word of that length
    for w in enumerate_reduced_words(2, 3):
        image = magnus_image(w, 4)
        assert_valid(image)
        assert all(weight == (0 if elem == "1" else len(elem)) for weight, elem, _ in image.rows())


def test_letter_units_hold_no_term_above_the_degree(monkeypatch):
    # the letter units 1 + letter are built through validation, so at degree
    # 0 the unit is 1
    units = []
    word_images = magnus.word_images

    def recording(words, given):
        units.extend(given)
        return word_images(words, given)

    monkeypatch.setattr(magnus, "word_images", recording)
    magnus_image(parse_word("a"), 0)
    magnus_images([parse_word("ab", 2), parse_word("a'b", 2)], 0)
    assert units
    for unit in units:
        assert_valid(unit)
        assert all(len(w) <= unit.degree for w in unit.terms), unit


@pytest.mark.parametrize("size,length,degree,count", [(2, 3, 3, 53), (1, 2, 2, 5), (2, 4, 4, 161)])
def test_injectivity_panels(size, length, degree, count):
    report = verify_magnus_injectivity(size, length, degree)
    assert report.verified and report.witness is None
    assert report.details["words"] == count


def test_injectivity_requires_degree_at_least_length():
    with pytest.raises(ValueError):
        verify_magnus_injectivity(2, 4, 3)


def test_powers_of_one_generator_are_binomial_rows():
    for j in range(-2, 3):
        letters = tuple((0, 1 if j > 0 else -1) for _ in range(abs(j)))
        img = magnus_image(FreeWord(1, letters), 2)
        if j >= 0:
            assert img.coefficient("a") == j
        else:
            assert img.coefficient("a") == j  # (1+a)^-|j| starts 1 - |j| a


def test_free_monoid_context():
    m = FreeMonoid(2)
    assert m.monoid_generators() == ("a", "b")
    assert m.parse_element("1") == ""
    assert m.format_element("") == "1"
    assert m.weight("abba") == 4
    with pytest.raises(ValueError):
        m.parse_element("cc")
    f = GradedSeries(m, 2, {"ab": Fraction(1)}, QQ)
    assert f.coefficient("ab") == 1


def test_magnus_images_and_series_files_share_one_free_monoid():
    # one object per alphabet size, so _compatible's `is` test holds and a
    # product table opened for the context serves every image over it
    images, _, _ = magnus_images([parse_word(w, 2) for w in ("ab", "b'a", "a")], 3)
    assert all(image.context is images[0].context for image in images)
    assert images[0].context is registry.resolve_monoid("free:2")
    assert registry.resolve_monoid("free:3") is not images[0].context
