import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnseries import scalars
from mnseries.scalars import (
    PSI_12,
    QQ,
    FieldMismatchError,
    PrimeField,
    PrimeFieldElement,
    QuadraticField,
    QuadraticFieldElement,
    field_from_spec,
    field_of_text,
    is_prime,
    parse_rational,
    rational_power,
)

F7 = PrimeField(7)
Q2 = QuadraticField(2)
FIELDS = (QQ, F7, Q2)


def test_add_fractions():
    assert QQ.parse("1/2") + QQ.parse("1/3") == Fraction(5, 6)


def test_quadratic_norm_identity():
    a = Q2.from_parts(1, 1)
    b = Q2.from_parts(1, -1)
    assert a * b == Q2.from_int(-1)


def test_prime_field_division():
    assert F7.from_int(3) / F7.from_int(5) == F7.from_int(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        F7.from_int(1) / F7.from_int(0)
    with pytest.raises(ZeroDivisionError):
        Q2.from_int(1) / Q2.zero


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        Fraction(1) + F7.from_int(1)
    with pytest.raises(FieldMismatchError):
        Q2.from_int(1) * F7.from_int(1)
    with pytest.raises(FieldMismatchError):
        F7.from_int(1) + PrimeFieldElement(1, 5)
    with pytest.raises(FieldMismatchError):
        Q2.one + QuadraticField(3).one


def test_rational_power():
    assert rational_power(Fraction(2), 3) == 8
    assert rational_power(Fraction(5, 2), 2) == Fraction(25, 4)
    assert rational_power(Fraction(2), -1) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        rational_power(Fraction(0), -1)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_field_axioms(field):
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (field.sample(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + field.zero == a
        assert a * field.one == a
        if b:
            # / on two ints is float division, so Q is checked through inv alone
            if field != QQ:
                assert (a / b) * b == a
            assert field.inv(b) * b == field.one and a * field.inv(b) * b == a


def test_quadratic_conjugation_is_involutive_automorphism():
    rng = random.Random(5)
    for _ in range(200):
        a = Q2.sample(rng)
        b = Q2.sample(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_canonical_text_round_trip(field):
    rng = random.Random(3)
    for _ in range(100):
        a = field.sample(rng)
        assert field.parse(field.format(a)) == a
    # canonical form is unique: equality iff identical text
    a = field.sample(rng)
    b = field.sample(rng)
    assert (a == b) == (field.format(a) == field.format(b))


def test_quadratic_element_int_and_fraction_parts_agree():
    # integral parts are stored as ints, whatever they were given as;
    # non-integral Fractions are stored as given
    for u, v in ((3, -2), (0, 1), (-7, 0)):
        from_ints = QuadraticFieldElement(u, v, 2)
        from_fractions = QuadraticFieldElement(Fraction(u), Fraction(v), 2)
        mixed = QuadraticFieldElement(Fraction(u), v, 2)
        for x in (from_ints, mixed, from_fractions):
            assert x == from_fractions and hash(x) == hash(from_fractions)
            assert type(x.u) is int and type(x.v) is int
    half = Fraction(1, 2)
    x = QuadraticFieldElement(half, half, 2)
    assert x.u is half and x.v is half
    assert x * x == QuadraticFieldElement(Fraction(3, 4), Fraction(1, 2), 2)
    assert QuadraticFieldElement(1, 0, 2) != QuadraticFieldElement(1, 0, 3)


def test_parse_scalar_infers_field():
    for text, field in (("5/6", QQ), ("4 mod 7", F7), ("1/2-3*sqrt(2)", Q2)):
        assert field_of_text(text) == field and field.contains(field_of_text(text).parse(text))
    with pytest.raises(ValueError):
        field_of_text("1.5").parse("1.5")


def test_rational_canonicalization():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert str(Fraction(-6, 4)) == "-3/2"
    assert str(Fraction(3)) == "3"


def test_field_from_spec():
    assert field_from_spec("Q") == QQ
    assert field_from_spec("Fp:7") == F7
    assert field_from_spec("Qsqrt:2") == Q2
    with pytest.raises(ValueError):
        field_from_spec("Fp:6")
    with pytest.raises(ValueError):
        field_from_spec("Qsqrt:4")


@pytest.mark.parametrize("spec", ["Fp:x", "Qsqrt:two", "Fp:", "Fp:-5", "Fp:+5", "Fp:5x", "Qsqrt:",
                                  "Qsqrt:2:3", "q", "Q:2", "QQ", "F5", ""])
def test_field_specs_are_read_by_one_full_match(spec):
    # "Q", "Fp:<digits>" or "Qsqrt:<optional minus and digits>", read past
    # surrounding spaces; any other spec is refused, quoting it
    with pytest.raises(ValueError) as info:
        field_from_spec(spec)
    assert str(info.value) == f"unknown field spec {spec!r} (Q, Fp:<p> or Qsqrt:<m>)"
    assert field_from_spec(" Fp:7 ") == F7 and field_from_spec("Qsqrt:-1") == QuadraticField(-1)


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(9)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, s))


def test_prime_field_refuses_composites_past_trial_division():
    # 0 and 1 are below 2; 41 * 43 has no factor up to 37, the trial
    # divisors, so Miller-Rabin refuses it; 151 * 751 * 28351 is a strong
    # pseudoprime to the bases 2, 3, 5 and 7, and a later base refuses it
    spsp = 3215031751
    assert spsp == 151 * 751 * 28351
    assert all(_strong_probable_prime(spsp, a) for a in (2, 3, 5, 7))
    for p in (0, 1, 41 * 43, spsp):
        assert not is_prime(p)
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            PrimeField(p)


def test_quadratic_field_radicands_must_be_square_free():
    # 6, 10 and -15 are products of distinct primes, each divided out once
    for m in (6, 10, -15):
        assert QuadraticField(m).radicand == m
    for m in (12, 98, -50):
        with pytest.raises(ValueError, match="square-free"):
            QuadraticField(m)


def test_quadratic_powers_are_repeated_products():
    for x in (Q2.from_parts(1, 1), Q2.from_parts(Fraction(1, 2), -3), Q2.sqrt, -Q2.one):
        product = Q2.one
        for k in range(6):
            assert x ** k == product
            assert x ** -k == Q2.inv(product)
            product = product * x
    with pytest.raises(ZeroDivisionError):
        Q2.zero ** -1


def test_int_on_the_left_of_subtraction_and_division():
    for field, x in ((F7, F7.from_int(3)), (Q2, Q2.from_parts(1, 1))):
        assert 5 - x == field.from_int(5) - x
        assert 5 / x == field.from_int(5) * field.inv(x)


def _refuse(name):
    def refuse(n):
        raise AssertionError(f"{name} ran past the field parameter range")
    return refuse


def test_prime_field_modulus_range(monkeypatch):
    # PSI_12 is composite, yet the 12-base Miller-Rabin test passes it
    assert PSI_12 == 399165290221 * 798330580441 and is_prime(PSI_12)
    monkeypatch.setattr(scalars, "is_prime", _refuse("is_prime"))
    for p in (PSI_12, PSI_12 + 2, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="outside p < "):
            PrimeField(p)
    with pytest.raises(ValueError, match="outside p < "):
        field_of_text(f"1 mod {PSI_12}")
    # below the bound the primality test runs
    with pytest.raises(AssertionError, match="is_prime ran"):
        PrimeField(PSI_12 - 2)


def test_quadratic_field_radicand_range(monkeypatch):
    monkeypatch.setattr(scalars, "is_square_free", _refuse("is_square_free"))
    for m in (2 ** 31, -2 ** 31, 10 ** 30 + 57):
        with pytest.raises(ValueError, match=r"outside \|m\| < 2\*\*31"):
            QuadraticField(m)
    with pytest.raises(ValueError, match="outside"):
        field_of_text("1+1*sqrt(1000000000000000000000000000057)")
    for m in (2 ** 31 - 1, -(2 ** 31 - 1)):
        with pytest.raises(AssertionError, match="is_square_free ran"):
            QuadraticField(m)
    monkeypatch.undo()
    # the largest radicands in range are decided by trial division up to 46,341
    assert QuadraticField(2 ** 31 - 1).radicand == 2 ** 31 - 1



def test_rationals_are_ints_when_integral():
    assert (QQ.zero, QQ.one, QQ.from_int(-4)) == (0, 1, -4)
    assert all(type(x) is int for x in (QQ.zero, QQ.one, QQ.from_int(-4)))
    for text, value in (("3", 3), ("-6/2", -3), ("0/5", 0), ("5/6", Fraction(5, 6))):
        for parsed in (QQ.parse(text), field_of_text(text).parse(text)):
            assert parsed == value and type(parsed) is type(value)
    # ratios and translations feed the group code, which keeps Fractions
    assert type(parse_rational("3")) is Fraction
    assert QQ.contains(2) and QQ.contains(Fraction(1, 2)) and QQ.contains(Fraction(2))
    assert not QQ.contains(True) and not QQ.contains(1.0) and not QQ.contains("1")
    rng = random.Random(3)
    samples = [QQ.sample(rng) for _ in range(200)]
    assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in samples)
    assert str(3) == str(Fraction(3)) and hash(3) == hash(Fraction(3))


# sha256 prefixes of 300 seeded pairs "sample sample_nonzero" per field, one
# pair a line as the field prints them; taken when every draw was
# random.Random.randint's or randrange's own
PINNED_FIELD_SAMPLES = {"Q": "ab62cd019c0f863b", "Fp:5": "8bacdcaf72dbd87b",
                        "Fp:101": "94ba14fcdc1dc081", "Qsqrt:2": "43da665cd5b28c91"}


@pytest.mark.parametrize("spec", PINNED_FIELD_SAMPLES)
def test_seeded_field_samples_are_pinned(spec):
    field = field_from_spec(spec)
    rng = random.Random(43)
    text = "\n".join(f"{field.format(field.sample(rng))} {field.format(field.sample_nonzero(rng))}"
                     for _ in range(300))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_FIELD_SAMPLES[spec]


def test_inv_is_exact_and_normalised():
    for x, expected in ((1, 1), (-1, -1), (2, Fraction(1, 2)), (-3, Fraction(-1, 3)),
                        (Fraction(1, 2), 2), (Fraction(-2, 3), Fraction(-3, 2)), (Fraction(5), Fraction(1, 5))):
        y = QQ.inv(x)
        assert y == expected and type(y) is type(expected)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    assert F7.inv(F7.from_int(3)) == F7.from_int(5)
    x = Q2.from_parts(1, 1)
    assert Q2.inv(x) == Q2.from_parts(-1, 1)
    assert type(Q2.inv(x).u) is int
    y = Q2.inv(Q2.from_parts(2, 0))
    assert y.u == Fraction(1, 2) and type(y.v) is int
    for field in FIELDS:
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


def test_quadratic_parts_follow_the_rational_rule():
    for x in (Q2.zero, Q2.one, Q2.sqrt, Q2.from_int(3), Q2.parse("2-3*sqrt(2)"),
              Q2.from_int(1) + 2, Q2.from_parts(Fraction(4, 2), Fraction(-6, 3))):
        assert type(x.u) is int and type(x.v) is int
    half = Q2.parse("1/2+1/2*sqrt(2)")
    assert half.u == Fraction(1, 2) and type(half.v) is Fraction
    # a product of Fraction parts that is integral is stored as an int
    assert type((half * Q2.from_int(2)).u) is int
    assert str(Q2.from_parts(Fraction(3), Fraction(-2))) == "3-2*sqrt(2)"


def _rational_or_error(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return value, type(value)


def reference_parse_rational(text):
    """parse_rational as it was: the pattern check, then Fraction(text)."""
    text = text.strip()
    if not re.match(r"^-?\d+(?:/\d+)?$", text):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# digit runs of ASCII digits with leading zeros, Arabic-Indic, Devanagari
# and fullwidth digits (which \d accepts), possibly empty; p/q-shaped texts
# of them with signs and blanks, and texts that mix in other characters
DIGITS = st.lists(st.sampled_from(["0", "00", "1", "7", "12", "\u0663", "\u0967", "\uff15"]),
                  max_size=3).map("".join)
BLANKS = st.sampled_from(["", " ", "\t", "\n "])
RATIONAL_TEXTS = (
    st.builds(lambda pre, sign, num, den, post: f"{pre}{sign}{num}{'' if den is None else '/' + den}{post}",
              BLANKS, st.sampled_from(["", "-", "+", "--"]), DIGITS, st.none() | DIGITS, BLANKS)
    | st.lists(st.sampled_from(["0", "7", "\u0663", "-", "/", " ", ".", "_", "e", "x"]),
               max_size=7).map("".join))


@settings(derandomize=True, database=None, max_examples=600)
@given(RATIONAL_TEXTS)
def test_parse_rational_matches_fraction(text):
    # int on the two validated parts gives Fraction(text), or the same error
    assert _rational_or_error(parse_rational, text) == _rational_or_error(reference_parse_rational, text)


@pytest.mark.parametrize("text,value", [
    ("007", 7), ("-0", 0), ("-0/5", 0), ("0012/0018", Fraction(2, 3)), (" 3/4 ", Fraction(3, 4)),
    ("\u0663/\u0967\u0967", Fraction(3, 11)), ("-\uff15", -5), ("\t-6/4\n", Fraction(-3, 2)),
])
def test_parse_rational_reads_validated_digits(text, value):
    parsed = parse_rational(text)
    assert parsed == value == Fraction(text) and type(parsed) is Fraction


@pytest.mark.parametrize("text", ["1/0", "-0/0", " 5/00 ", "\u0663/\u0660"])
def test_parse_rational_refuses_zero_denominators(text):
    with pytest.raises(ValueError, match=f"^{re.escape(f'zero denominator in {text.strip()!r}')}$"):
        parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        Fraction(text)
