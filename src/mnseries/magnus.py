"""Reduced words in free groups and their embedding into truncated power
series over the free monoid, sending each generator to 1 + generator and each
inverse generator to the truncated geometric series.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import itemgetter

from .groups import NotInMonoidError
from .report import Report, outcome
from .scalars import QQ, TupleValue, normal_rational
from .series import GradedSeries, shared_products, unit_generators

LETTERS = "abcdefghijklmnopqrstuvwxyz"
# each letter's spellings, "a" and "a'", to its (symbol index, sign), and back
_LETTER_SIGNS = {**{ch: (sym, 1) for sym, ch in enumerate(LETTERS)},
                 **{ch + "'": (sym, -1) for sym, ch in enumerate(LETTERS)}}
_LETTER_SPELLINGS = {letter: text for text, letter in _LETTER_SIGNS.items()}


class FreeMonoid(TupleValue):
    """Support context for the free monoid on a finite alphabet; elements are
    plain strings, the identity is the empty string, weight is the length."""

    __slots__ = ()
    _fields = ("size",)

    graded = True

    def __new__(cls, size):
        if not 1 <= size <= len(LETTERS):
            raise ValueError(f"alphabet size must be in 1..{len(LETTERS)}")
        return tuple.__new__(cls, (size,))

    @property
    def id(self) -> str:
        return f"free:{self.size}"

    @property
    def alphabet(self) -> str:
        return LETTERS[: self.size]

    def identity(self):
        return ""

    def contains(self, w) -> bool:
        return isinstance(w, str) and all(ch in self.alphabet for ch in w)

    def multiply(self, u, v):
        return u + v

    def monoid_generators(self):
        return tuple(self.alphabet)

    def weight(self, w) -> int:
        if not self.contains(w):
            raise NotInMonoidError(f"{w!r} is not a word over {self.alphabet!r}")
        return self.grade(w)

    # a builtin: the arithmetic and rows() read it once per term
    grade = staticmethod(len)

    def format_element(self, w) -> str:
        return w if w else "1"

    def parse_element(self, text: str):
        text = text.strip()
        if text == "1":
            return ""
        if not self.contains(text):
            raise ValueError(f"not a word over {self.alphabet!r}: {text!r}")
        return text


@functools.cache
def free_monoid(size: int) -> FreeMonoid:
    """The free monoid on size letters, one object per size, built on first
    use: series over it then share their context object, which
    GradedSeries._compatible and series.shared_products test with `is`."""
    return FreeMonoid(size)


class FreeWord(TupleValue):
    """Reduced word in the free group on `size` letters: a tuple of
    (symbol index, sign) pairs with no adjacent cancelling pair. Its length
    is the number of letters, so the identity word is false."""

    __slots__ = ()
    _fields = ("size", "letters")

    def __new__(cls, size, letters):
        for sym, sign in letters:
            if not (0 <= sym < size) or sign not in (1, -1):
                raise ValueError(f"bad letter ({sym}, {sign}) for alphabet size {size}")
        for (s1, e1), (s2, e2) in zip(letters, letters[1:]):
            if s1 == s2 and e1 == -e2:
                raise ValueError("word is not reduced")
        return tuple.__new__(cls, (size, letters))

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if not isinstance(other, FreeWord) or other.size != self.size:
            raise ValueError("cannot multiply words over different alphabets")
        return word_reduce(self.letters + other.letters, self.size)

    def inverse(self):
        return FreeWord(self.size, tuple((s, -e) for s, e in reversed(self.letters)))

    def __str__(self):
        return "".join(map(_LETTER_SPELLINGS.__getitem__, self.letters)) or "1"


def word_reduce(raw, size: int) -> FreeWord:
    """Freely reduce a sequence of (symbol, sign) letters; the result is
    independent of cancellation order."""
    stack = []
    for sym, sign in raw:
        if stack and stack[-1][0] == sym and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((sym, sign))
    return FreeWord(size, tuple(stack))


def parse_word(text: str, size: int | None = None) -> FreeWord:
    """Word syntax: letters a..z, inverse marked with a trailing apostrophe,
    "1" for the identity. Empty text and letters beyond the alphabet are
    rejected; a bad letter anywhere is reported before the first letter
    beyond the alphabet.

    One walk reads, range-checks and freely reduces the letters, so the
    word is built as it is, without FreeWord's re-checks."""
    text = text.strip()
    if not text:
        raise ValueError("empty word (the identity is written 1)")
    # the reduced letters; the highest symbol read, which sets a missing
    # size; and the first symbol read beyond a given size
    stack = []
    high = -1
    beyond = None
    if text != "1":
        i, n = 0, len(text)
        while i < n:
            # a letter and its apostrophe are one key of the table
            end = i + 2 if text.startswith("'", i + 1) else i + 1
            letter = _LETTER_SIGNS.get(text[i:end])
            if letter is None:
                raise ValueError(f"bad letter {text[i]!r} in word {text!r}")
            sym, sign = letter
            if sym > high:
                high = sym
                if beyond is None and size is not None and sym >= size:
                    beyond = sym
            if stack and stack[-1] == (sym, -sign):
                stack.pop()
            else:
                stack.append(letter)
            i = end
    if size is None:
        size = max(high, 0) + 1
    elif beyond is not None:
        raise ValueError(f"letter {LETTERS[beyond]!r} exceeds alphabet of size {size}")
    return tuple.__new__(FreeWord, (size, tuple(stack)))


def reduced_word_count(size: int, max_length: int) -> int:
    """Number of reduced words of length at most max_length over `size`
    letters, 1 + sum over lengths l of 2k(2k-1)^(l-1), in closed form."""
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    if size == 1:
        return 1 + 2 * max_length
    return 1 + size * ((2 * size - 1) ** max_length - 1) // (size - 1)


def magnus_term_bound(word: FreeWord, degree: int) -> int:
    """Upper bound on the terms of a word's Magnus image at this degree, in
    closed form: the exponent vectors of total at most degree, where each
    positive letter takes 0 or 1 and each inverse letter any e >= 0. With p
    positive and k inverse letters that is the sum over j of
    C(p, j) * C(degree - j + k, k); for k inverse letters alone, C(degree + k, k).
    The signs sum to p - k, and the sum is computed once per (p, k, degree)."""
    inverse = (len(word) - sum(map(itemgetter(1), word.letters))) // 2
    return _term_bound(len(word) - inverse, inverse, degree)


@functools.cache
def _term_bound(positive: int, inverse: int, degree: int) -> int:
    return sum(math.comb(positive, j) * math.comb(degree - j + inverse, inverse)
               for j in range(min(positive, degree) + 1))


def enumerate_reduced_words(size: int, max_length: int) -> list:
    """All reduced words of length at most max_length, each exactly once, in
    (length, lexicographic) order; there are reduced_word_count of them."""
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    alphabet = [(sym, sign) for sym in range(size) for sign in (1, -1)]
    words = [FreeWord(size, ())]
    level = [()]
    for _ in range(max_length):
        next_level = []
        for letters in level:
            for sym, sign in alphabet:
                if letters and letters[-1][0] == sym and letters[-1][1] == -sign:
                    continue
                next_level.append(letters + ((sym, sign),))
        words.extend(FreeWord(size, ls) for ls in next_level)
        level = next_level
    return words


def word_images(words, units) -> list:
    """Images of reduced words, in any order, under i -> units[i] and i' ->
    units[i].invert() for units of one context, degree, field and system:
    each word extends its longest evaluated prefix, left to right, letter
    by letter, and a repeated word is one image.

    No letter reads the field: cleared() puts each letter's value on
    integers, as (d, d * value) over Q and (1, value) over any other field,
    and the letter is that series with the scale 1/d. Over Q a system acts
    trivially, so scalars commute with every product. A word's image is the
    product of its letters' series, and scale() by the product of their
    scales makes its coefficients, one exact ratio per distinct numerator.

    The products run under series.shared_products, so each group product of
    the evaluation is made once; the table goes when the evaluation ends."""
    first = units[0]

    @functools.cache
    def letter(sym, sign):
        # the letter's series and scale, whose product is its value; an int
        # scale, as every scale of the Magnus letters is, multiplies as one
        d, series = (units[sym] if sign == 1 else units[sym].invert()).cleared()
        return series, normal_rational(Fraction(1, d))

    images = {(): (GradedSeries.one(first.context, first.degree, first.field, first.system), 1)}
    with shared_products(first.context):
        for word in words:
            letters = word.letters
            end = len(letters)
            while letters[:end] not in images:
                end -= 1
            image, scale = images[letters[:end]]
            for end in range(end + 1, len(letters) + 1):
                series, factor = letter(*letters[end - 1])
                image, scale = image * series, scale * factor
                images[letters[:end]] = image, scale
    exact = {}
    for word in words:
        if word.letters not in exact:
            image, scale = images[word.letters]
            exact[word.letters] = image if scale == 1 else image.scale(scale)
    return [exact[word.letters] for word in words]


def magnus_image(word: FreeWord, degree: int) -> GradedSeries:
    """Image of a reduced word under the Magnus map letter -> 1 + letter,
    inverse letter -> (1 + letter)^-1, in the series over the free monoid on
    word.size letters truncated at degree over Q; evaluated by word_images
    from the letter units that series.unit_generators builds."""
    units = unit_generators(free_monoid(word.size), (QQ.one,) * word.size, degree, QQ)
    return word_images([word], units)[0]


def magnus_images(words, degree: int):
    """Magnus images of a nonempty list of words over one alphabet, evaluated
    together by word_images (the map is fixed by the images of the letters);
    their printed rows, rows[i] = images[i].rows(); and the first pair
    (earlier word, later word) in list order whose images print the same
    rows, or None. Equal rows mean equal term maps: no two terms print
    alike, and a coefficient's string is exact."""
    size = words[0].size
    images = word_images(words, [magnus_image(FreeWord(size, ((sym, 1),)), degree)
                                 for sym in range(size)])
    rows = [image.rows() for image in images]
    seen = {}
    for word, row in zip(words, map(tuple, rows)):
        if row in seen:
            return images, rows, (seen[row], word)
        seen[row] = word
    return images, rows, None


def verify_magnus_injectivity(size: int, max_length: int, degree: int) -> Report:
    """Check that all reduced words of length at most max_length have
    pairwise distinct truncated images; the first colliding pair is the
    witness, the one magnus_images finds. Requires degree >= max_length; the
    separation at that degree is verified, not assumed."""
    if degree < max_length:
        raise ValueError("degree must be at least the maximum word length")
    words = enumerate_reduced_words(size, max_length)
    collision = magnus_images(words, degree)[2]
    witness = None if collision is None else [str(w) for w in collision]
    return outcome("magnus", {"L": max_length, "D": degree, "N": None}, witness,
                   {"k": size, "words": len(words)})
