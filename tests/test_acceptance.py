"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Arithmetic is exact everywhere, so every comparison is equality; the
runtime caps are asserted as part of the criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import contextlib
import io
import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from helpers import corrupt_twist, random_series
from mnseries import cli, linalg
from mnseries.crossed import (
    augment_coefficients,
    check_crossed_system,
    check_morphism_extension,
    diagonal_change,
    flatten,
    good_preimage,
    quadratic_conj_z,
    quotient_system,
    regroup,
    trivial_system,
    z2_sign_twist,
)
from mnseries.freeness import (
    digit_sum_check,
    free_monoid_check,
    group_algebra_independence,
    pingpong_check,
    type1_unit_generators,
    type3_generators,
)
from mnseries.groups import (
    Heisenberg,
    HeisenbergElement,
    LatticeGroup,
    SemidirectGroup,
    WreathGroup,
)
from mnseries.magnus import verify_magnus_injectivity
from mnseries.scalars import QQ, PrimeField, QuadraticField
from mnseries.crossed import project_series
from mnseries.series import GradedSeries

HEIS = Heisenberg()
BS = SemidirectGroup()
WREATH = WreathGroup()
Z2 = LatticeGroup(2)
Z1 = LatticeGroup(1)


@contextlib.contextmanager
def criterion(number, description, limit_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= limit_seconds:
        print(f"ACCEPTANCE {number:02d} FAIL {description} (too slow: {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded {limit_seconds}s: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number:02d} PASS {description} ({elapsed:.2f}s)")


def test_criterion_01_order_axioms():
    with criterion(1, "bi-invariant total orders on all built-in groups", 5.0):
        for group in (HEIS, BS, WREATH, Z2, Z1):
            start = time.perf_counter()
            rng = random.Random(101)
            for _ in range(1000):
                g = group.sample_element(rng)
                h = group.sample_element(rng)
                z = group.sample_element(rng)
                base = group.compare(g, h)
                assert group.compare(group.multiply(z, g), group.multiply(z, h)) == base
                assert group.compare(group.multiply(g, z), group.multiply(h, z)) == base
            assert time.perf_counter() - start < 1.0, f"{group.id} exceeded 1s"


def test_criterion_02_magnus_injectivity():
    with criterion(2, "161 reduced words of length <= 4 separate at degree 4", 5.0):
        report = verify_magnus_injectivity(2, 4, 4)
        assert report.verified and report.details["words"] == 161


def test_criterion_03_type2_free_monoid_and_negative_control():
    with criterion(3, "B(1,2) {tx,x} free to L=12; Heisenberg collision at L=4", 6.0):
        start = time.perf_counter()
        report = free_monoid_check(BS, list(BS.monoid_generators()), 12)
        assert report.verified
        assert report.details["elements"] == 8191 and report.details["words"] == 8191
        assert time.perf_counter() - start < 5.0
        start = time.perf_counter()
        control = free_monoid_check(HEIS, list(HEIS.monoid_generators()), 4)
        assert control.verdict == "counterexample"
        assert control.witness["words"] == ["xyyx", "yxxy"]
        assert time.perf_counter() - start < 1.0


def test_criterion_04_type3_free_monoid():
    with criterion(4, "wreath product {delta_0, t} free to L=10", 10.0):
        gens = type3_generators(WREATH)
        assert gens == (WREATH.element({0: 1}, 0), WREATH.element({}, 1))
        report = free_monoid_check(WREATH, list(gens), 10)
        assert report.verified
        assert report.details["words"] == 2**11 - 1


def test_criterion_05_digit_sums():
    with criterion(5, "digit sums distinct for r in {2,3,5/2,7/3} at N=12; r=1 fails; 1/r agrees", 10.0):
        ratios = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3))
        for r in ratios:
            report = digit_sum_check(r, 12)
            assert report.verified, f"r={r}"
            assert report.details["sums"] == 8191
        control = digit_sum_check(Fraction(1), 12)
        assert control.verdict == "counterexample"
        for r in ratios + (Fraction(1),):
            assert digit_sum_check(1 / r, 12).verdict == digit_sum_check(r, 12).verdict


def test_criterion_06_pingpong():
    with criterion(6, "ping-pong certificate at r=2, t=1, L=8", 2.0):
        report = pingpong_check(BS, 8)
        assert report.verified
        assert report.details["orbit"] == 2**9 - 1


SERIES_CONTEXTS = (
    ("heisenberg-trivial", HEIS, QQ, None),
    ("twisted-z2", Z2, QQ, z2_sign_twist(QQ)),
    ("quadratic-conj", Z1, QuadraticField(2), quadratic_conj_z(QuadraticField(2))),
)


def test_criterion_07_series_ring():
    with criterion(7, "inverses and associativity at D=6 in all three series contexts", 30.0):
        for name, ctx, field, system in SERIES_CONTEXTS:
            rng = random.Random(107)
            one = GradedSeries.one(ctx, 6, field, system)
            for _ in range(100):
                f = random_series(ctx, 6, field, rng, system=system, unit=True)
                inv = f.invert()
                assert f * inv == one, name
                assert inv * f == one, name
            for _ in range(100):
                f = random_series(ctx, 6, field, rng, system=system)
                g = random_series(ctx, 6, field, rng, system=system)
                h = random_series(ctx, 6, field, rng, system=system)
                assert (f * g) * h == f * (g * h), name


def test_criterion_08_regroup_flatten():
    with criterion(8, "regroup/flatten round trip and multiplicativity; quotient twist panel", 30.0):
        for group, tag in ((HEIS, "center"), (BS, "base")):
            rng = random.Random(108)
            for _ in range(100):
                f = random_series(group, 4, QQ, rng)
                g = random_series(group, 4, QQ, rng)
                assert flatten(regroup(f, tag)) == f
                assert regroup(f * g, tag) == regroup(f, tag) * regroup(g, tag)
        qs = quotient_system(HEIS, "center")
        for a1 in range(-3, 4):
            for b1 in range(-3, 4):
                for a2 in range(-3, 4):
                    for b2 in range(-3, 4):
                        tw = qs.twist(Z2.element(a1, b1), Z2.element(a2, b2))
                        assert tw.terms == {HeisenbergElement(0, 0, a1 * b2): Fraction(1)}


def test_criterion_09_crossed_validity():
    with criterion(9, "validity identities: built-ins, 5 diagonal changes, corrupted twist caught", 5.0):
        builtins = [
            trivial_system(HEIS, QQ),
            trivial_system(BS, QQ),
            trivial_system(WREATH, QQ),
            trivial_system(Z2, QQ),
            trivial_system(Z1, QQ),
            z2_sign_twist(QQ),
            quadratic_conj_z(QuadraticField(2)),
        ]
        for system in builtins:
            assert check_crossed_system(system, 100, seed=9).verified, system.id
        diagonals = [
            lambda g: Fraction(1),
            lambda g: Fraction(-1) if (g.coords[0] * g.coords[1]) % 2 else Fraction(1),
            lambda g: Fraction(-1) if g.coords[0] % 2 else Fraction(1),
            lambda g: Fraction(2) ** (g.coords[0] % 3),
            lambda g: Fraction(1, 3) if (g.coords[0] + g.coords[1]) % 2 else Fraction(1),
        ]
        base = z2_sign_twist(QQ)
        for d in diagonals:
            assert check_crossed_system(diagonal_change(base, d), 100, seed=9).verified
        corrupted = corrupt_twist(base, (Z2.element(1, 1), Z2.element(1, 0)), Fraction(2))
        assert not check_crossed_system(corrupted, 300, seed=9).verified


def test_criterion_10_group_algebra_independence():
    with criterion(10, "53 reduced words of length <= 3 independent over Q and F5", 120.0):
        for field, c in ((QQ, Fraction(1)), (PrimeField(5), PrimeField(5).from_int(1))):
            verdict = None
            for degree in (6, 7, 8, 9, 10):
                units = list(type1_unit_generators(HEIS, c, c, degree, field))
                report = group_algebra_independence(units, 3)
                verdict = report
                if report.verified:
                    break
            assert verdict.verified, f"rank deficient up to D=10 over {field.name}"
            assert verdict.bounds["D"] == 6, "expected full rank already at D=6"
            assert verdict.details["rank"] == 53


def test_criterion_11_augmentation_and_good_preimages():
    with criterion(11, "projection inverts good preimages; induced map is multiplicative", 5.0):
        rng = random.Random(111)
        for _ in range(100):
            A = random_series(Z2, 4, QQ, rng)
            assert project_series(good_preimage(A, HEIS, "center"), "center") == A
        source = quotient_system(HEIS, "center")
        target = trivial_system(Z2, QQ)

        def phi(coeff):
            total = QQ.zero
            for value in coeff.terms.values():
                total = total + value
            return total

        report = check_morphism_extension(
            phi, lambda q: q, source, target, samples=60, seed=11,
            series_map=augment_coefficients,
        )
        assert report.verified and report.details["multiplicative_pairs"] > 0


DOCUMENTED_COMMANDS = (
    ("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1),B(0/1,1)", "--L", "12"),
    ("verify-monoid", "--group", "heis", "--gens", "H(1,0,0),H(0,1,0)", "--L", "4"),
    ("verify-group-algebra", "--group", "heis", "--c", "1", "--d", "1", "--L", "3", "--D", "6"),
    ("digit-sum", "--r", "5/2", "--N", "12"),
    ("magnus", "--words", "ab,ba", "--D", "4"),
    ("check-crossed", "--system", "z2-sign-twist", "--samples", "1000", "--seed", "7"),
    ("check-crossed", "--system", "quadratic-conj-Z", "--samples", "200", "--seed", "7"),
    ("check-crossed", "--system", "trivial", "--group", "heis", "--samples", "200", "--seed", "7"),
    ("pingpong", "--r", "2", "--t", "1", "--L", "8"),
    ("classify", "--group", "heis"),
    ("classify", "--group", "bs12"),
    ("classify", "--group", "wreath"),
)


# Series files whose `expand --invert` reports are pinned by digest: two runs
# of one build agreeing cannot show that a change to the series core kept the
# report bytes, a fixed digest can. The digests are those of the
# geometric-expansion inversion that the weight-by-weight solve replaced
# (params: --format json --seed 5, these names).
PINNED_EXPANDS = (
    ("bs12-inv.mns",
     "monoid=bs12 D=12 crossed=trivial\n0\tB(0/1,0)@r=2/1\t2\n1\tB(1/1,1)@r=2/1\t-1\n"
     "2\tB(2/1,2)@r=2/1\t1/2\n3\tB(0/1,3)@r=2/1\t-3/2\n",
     "2bcda597d5c6cf47"),
    ("quad-inv.mns",
     "monoid=z D=12 crossed=quadratic-conj-Z\n0\tZ(0)\t1+1*sqrt(2)\n1\tZ(1)\t-1/2+1*sqrt(2)\n"
     "2\tZ(2)\t1-2*sqrt(2)\n3\tZ(3)\t1/2+1/2*sqrt(2)\n",
     "f139c3b06041e863"),
    ("twist-inv.mns",
     "monoid=z2 D=12 crossed=z2-sign-twist\n0\tZ2(0,0)\t2\n1\tZ2(0,1)\t1\n"
     "1\tZ2(1,0)\t-1/2\n2\tZ2(1,1)\t3\n",
     "5b456772b8f1b0ed"),
    ("heis-inv.mns",
     "monoid=heis D=12 crossed=trivial\n0\tH(0,0,0)\t3\n1\tH(0,1,0)\t-1\n"
     "1\tH(1,0,0)\t1/2\n2\tH(1,1,0)\t2\n2\tH(1,1,1)\t-1/3\n",
     "77d18dfd66a16af9"),
    # computed before the wreath elements were held as tuples
    ("wreath-inv.mns",
     "monoid=wreath D=10 crossed=trivial\n0\tW({},0)\t2\n1\tW({0:1},0)\t-1\n"
     "1\tW({},1)\t1/2\n2\tW({1:1},1)\t3\n",
     "49b0cdb022f9e749"),
)

# Verifier reports pinned by exit code and digest, as computed by the
# rational-arithmetic digit-sum loop, the two-step monoid table, the dense
# elimination kernels, the per-word Magnus images and the per-verifier report
# classes (params: --format json --seed 5).
PINNED_REPORTS = (
    (("digit-sum", "--r", "1", "--N", "12"), 2, "d241660f7e8b51c9"),
    (("digit-sum", "--r", "5/2", "--N", "14"), 0, "ba87ca5d8ac77d83"),
    (("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1),B(0/1,1)", "--L", "12"),
     0, "9ea232e1b1faaf59"),
    (("verify-monoid", "--group", "heis", "--gens", "H(1,0,0),H(0,1,0)", "--L", "6"),
     2, "ef09ac1536479dfa"),
    (("verify-group-algebra", "--group", "heis", "--field=Q", "--c=1", "--d=2",
      "--L", "4", "--D", "6"), 3, "45bc06ed6a5477e5"),
    (("verify-group-algebra", "--group", "heis", "--field=Fp:5", "--c=1 mod 5", "--d=2 mod 5",
      "--L", "4", "--D", "5"), 3, "c19b4a03d6289241"),
    (("verify-group-algebra", "--group", "heis", "--field=Qsqrt:2", "--c=1+1*sqrt(2)",
      "--d=1-1*sqrt(2)", "--L", "3", "--D", "5"), 3, "42a595cde33a3bda"),
    (("verify-group-algebra", "--group", "heis", "--field=Fp:7", "--c=3 mod 7", "--d=5 mod 7",
      "--L", "3", "--D", "8"), 0, "fbe5c301268193b5"),
    # Q with a non-integral scalar: the words are evaluated on integer
    # numerators, and each image is scaled back to exact ratios
    (("verify-group-algebra", "--group", "heis", "--field=Q", "--c=1/2", "--d=-1",
      "--L", "4", "--D", "8"), 3, "bf3fb70fb17ba6b7"),
    (("verify-group-algebra", "--group", "heis", "--field=Q", "--c=-1/2", "--d=-1",
      "--L", "3", "--D", "8"), 0, "5f51514396112a37"),
    (("verify-group-algebra", "--group", "heis", "--field=Q", "--c=2/3", "--d=-3/5",
      "--L", "4", "--D", "6"), 3, "65e6250c865021a4"),
    (("magnus", "--words", "b'a,ab,a'b'ab,1,ba'", "--D", "5"), 0, "4d208412d03d33dd"),
    (("magnus", "--words", "ab,a'b,ab", "--D", "4"), 2, "9efb88e038d862c0"),
    # at D=0 every letter unit is 1, so all four images are 1 and collide
    (("magnus", "--words", "ab,a'b,1,b'", "--D", "0"), 2, "557a13848a811b4c"),
    # at D=0 both type-1 units are 1 as well, so the empty word alone is
    # independent (CI pins the dependent L=2 case)
    (("verify-group-algebra", "--group", "heis", "--field=Q", "--c=1", "--d=1",
      "--L", "0", "--D", "0"), 0, "849925794d81fccf"),
    # the documented check-crossed, pingpong and classify commands (the
    # appended --seed 5 overrides their --seed 7)
    (DOCUMENTED_COMMANDS[5], 0, "8dc365c5e63e684a"),
    (DOCUMENTED_COMMANDS[6], 0, "509cc0e5495e129c"),
    (DOCUMENTED_COMMANDS[7], 0, "790947b03e41a28b"),
    (("pingpong", "--r", "2", "--t", "1", "--L", "8"), 0, "f523343ce7706324"),
    (("classify", "--group", "heis"), 0, "efbb3ef4e2197ebd"),
    (("classify", "--group", "bs12"), 0, "624d046eaf94a2e3"),
    (("classify", "--group", "wreath"), 0, "a477f297e79f67ad"),
    # semidirect products at a negative non-integer t, at ratio 3 and on
    # generators of weight 2
    (("pingpong", "--r", "3", "--t=-7/4", "--L", "10"), 0, "5d5299f1ca2efb08"),
    (("pingpong", "--r", "2", "--t=5/3", "--L", "12"), 0, "5988303e40a5b022"),
    (("verify-monoid", "--group", "bs12", "--gens", "B(3/1,2),B(1/1,2)", "--L", "10"),
     0, "4127f7ca6860fde3"),
    # the lattice and wreath elements, computed before they were held as
    # tuples: classification and the crossed-system check on the lattices,
    # the check on wreath products and a wreath monoid on weight-3 generators
    (("classify", "--group", "z2"), 0, "47d7092e275edeb3"),
    (("classify", "--group", "z"), 0, "33c00f384f18c663"),
    (("check-crossed", "--system", "trivial", "--group", "wreath", "--samples", "200"),
     0, "beaad774715c813c"),
    (("check-crossed", "--system", "trivial", "--group", "z2", "--samples", "200"),
     0, "fde59b3ca94db14b"),
    (("verify-monoid", "--group", "wreath", "--gens", "W({0:3},0),W({},3)", "--L", "12"),
     0, "9a46e9227797bb5a"),
    # the semidirect elements, computed before they were held as tuples: the
    # crossed-system check on bs12 and a monoid whose two equal generators
    # collide at once
    (("check-crossed", "--system", "trivial", "--group", "bs12", "--samples", "200"),
     0, "65068f7f4fad8c7f"),
    (("verify-monoid", "--group", "bs12", "--gens", "B(1/1,1),B(1/1,1)", "--L", "3"),
     2, "28c98e65e8dc640d"),
)


# pingpong at the L=14 and L=16 ceilings, r = 2 and 3 and the largest ratio
# the ratio_bits guard admits, pinned by exit code and digest at the default
# seed: the check that expanded every orbit image's h/t afresh gave these
# reports.
PINNED_PINGPONG_CEILING = (
    (("--r", "2", "--t", "1", "--L", "14"), "b60ac3809ba380ec"),
    (("--r", "3", "--t=-7/4", "--L", "14"), "1336c461af070904"),
    (("--r", "2", "--t", "1", "--L", "16"), "c92a8d5df5eeb386"),
    (("--r", str(2 ** 64 - 1), "--t", "1", "--L", "16"), "cc4bbd8648e5d395"),
)


@pytest.mark.parametrize("args,digest", PINNED_PINGPONG_CEILING,
                         ids=("r2-14", "r3-14", "r2-16", "r64bit-16"))
def test_pingpong_ceiling_digests(args, digest):
    code, out = _run_captured(("pingpong", *args))
    assert (code, _parse_report(out)["digest"]) == (0, digest)


# heis word-image ranks at L=5, D=8 (485 words, 255 columns, rank 249), pinned
# by exit code and digest at the default seed: the largest matrices the
# elimination kernels are checked on, one per kernel path.
PINNED_L5_D8 = (
    (("--field=Q", "--c=1", "--d=2"), "271596e86ab38cad"),
    (("--field=Q", "--c=1", "--d=1"), "13bc7a5756e5203e"),
    (("--field=Fp:5", "--c=1 mod 5", "--d=2 mod 5"), "b118cf730b86d142"),
    (("--field=Qsqrt:2", "--c=1+1*sqrt(2)", "--d=1-1*sqrt(2)"), "4bd61ded465e631e"),
)


@pytest.mark.parametrize("flags,digest", PINNED_L5_D8, ids=("Q-d=2", "Q-d=1", "Fp:5", "Qsqrt:2"))
def test_heis_L5_D8_digests(flags, digest):
    code, out = _run_captured(("verify-group-algebra", "--group", "heis", *flags,
                               "--L", "5", "--D", "8"))
    assert (code, _parse_report(out)["digest"]) == (3, digest)


def test_heis_L5_D9_rows_that_outgrow_their_pivot(monkeypatch):
    # at L=5, D=9 over Q (485 words, rank 357) rows that stay below the
    # pivots outgrow them, and the integer kernel makes 257 of them
    # primitive before their update; the digest is the one the kernel that
    # took every row's content after every update gave
    calls = []
    primitive = linalg._primitive
    monkeypatch.setattr(linalg, "_primitive",
                        lambda row, radicand: calls.append(1) or primitive(row, radicand))
    code, out = _run_captured(("verify-group-algebra", "--field=Q", "--c=1", "--d=2",
                               "--L", "5", "--D", "9"))
    report = _parse_report(out)
    assert (code, report["digest"]) == (3, "d384468295eda5eb")
    assert len(calls) > report["details"]["rank"] == 357


def test_heis_L4_dependency_is_the_monoid_identity():
    # the heis monoid satisfies xyyx = yxxy, so (X-1)(Y-1)(Y-1)(X-1) =
    # (Y-1)(X-1)(X-1)(Y-1) for X = 1+x, Y = 1+y at every D >= 4: the words of
    # length at most 4 are dependent however large D is, and the witness is
    # -8 times the expansion of that identity in the free monoid algebra
    code, out = _run_captured(("verify-group-algebra", "--c=1", "--d=1", "--L", "4",
                               "--D", "10", "--field", "Q"))
    report = _parse_report(out)
    assert (code, report["digest"]) == (3, "4c950fb9a8101cc9")

    def expand(letters):
        # (l1 - 1)(l2 - 1)... as {word: coefficient} over the free monoid
        terms = {}
        for mask in range(2 ** len(letters)):
            word = "".join(ch for i, ch in enumerate(letters) if mask >> i & 1)
            terms[word] = terms.get(word, 0) + (-1) ** (len(letters) - len(word))
        return terms

    lhs, rhs = expand("abba"), expand("baab")
    relation = {w or "1": lhs.get(w, 0) - rhs.get(w, 0) for w in lhs.keys() | rhs.keys()}
    expected = {w: str(-8 * c) for w, c in relation.items() if c}
    assert report["witness"] == {"dependency": expected}
    assert len(expected) == 8 and min(expected) == "aab" and max(expected) == "bba"


# verify-monoid at the L=16 ceiling (131071 words for two generators), and
# three heis generators at L=9, pinned by exit code and digest at the default
# seed: the full-table enumeration gave these reports.
PINNED_MONOID_CEILING = (
    (("bs12", "B(1/1,1),B(0/1,1)", "16"), 0, "b61a0ae6dbba724c"),
    (("wreath", "W({0:1},0),W({},1)", "16"), 0, "1f1f65a102752002"),
    (("heis", "H(1,0,0),H(0,1,0)", "16"), 2, "b3b86d0853fb9105"),
    (("z2", "Z2(1,0),Z2(0,1)", "16"), 2, "c1cf79cdc5e904a7"),
    (("heis", "H(1,1,0),H(1,1,1),H(2,0,0)", "9"), 2, "22059a01c555ff06"),
)


@pytest.mark.parametrize("args,code,digest", PINNED_MONOID_CEILING,
                         ids=("bs12-16", "wreath-16", "heis-16", "z2-16", "heis-3gens-9"))
def test_verify_monoid_ceiling_digests(args, code, digest):
    group, gens, length = args
    got, out = _run_captured(("verify-monoid", "--group", group, "--gens", gens, "--L", length))
    assert (got, _parse_report(out)["digest"]) == (code, digest)


# the digests the installed console script is held to in CI
# (.github/workflows/tier1.yml), run in process on the same argv, without an
# appended --seed; twist.mns is the file CI writes, the text of twist-inv.mns.
# CI's pingpong at L=16 is the r2-16 case of PINNED_PINGPONG_CEILING
PINNED_CONSOLE_REPORTS = (
    (("check-crossed", "--system", "z2-sign-twist"), 0, "f69d07f3859d1ee3"),
    (("check-crossed", "--system", "quadratic-conj-Z"), 0, "fc04ffdf37acae23"),
    (("expand", "--series-file", "twist.mns", "--invert"), 0, "39428344e1200e0b"),
    (("verify-monoid", "--group", "wreath", "--gens", "W({0:1},0),W({},1)", "--L", "16",
      "--seed", "5"), 0, "20c99314ff81772b"),
    (("magnus", "--words", "ab'a,b'a'b,1,ba,a'", "--D", "5"), 0, "eafd99d94ae0a29e"),
    (("magnus", "--words", "b'a,ab,ba,a", "--D", "1"), 2, "7ccd7cfbe47a72cf"),
    # both units are 1 at D=0, so every word of length at most 2 has image 1
    (("verify-group-algebra", "--field=Q", "--c=1", "--d=1", "--L", "2", "--D", "0"),
     3, "4eb5b89588b3fa21"),
    # reports that print integers of more than 4300 digits, Python's default
    # limit on int-string conversion: a dependency entry of 4522 digits, and
    # inverse coefficients of up to 4801 digits
    (("verify-group-algebra", "--field=Q", "--c=7777777777", "--d=1", "--L", "4", "--D", "8"),
     3, "28f89f006ef81efb"),
    (("expand", "--series-file", "big.mns", "--invert"), 0, "d89e53d2359dfbe8"),
    # a heis unit over Q whose identity coefficient 2/3 is not integral and
    # whose terms mix denominators, so most inverse coefficients are
    # non-integral ratios of the integer layers; the digest was computed by
    # the Fraction loop that the integer layers replaced
    (("expand", "--series-file", "heis-q.mns", "--invert"), 0, "2a11e823e16d5c47"),
)

# the 447-byte free:2 series 1 + (10^400 + 1)*a, as CI writes big.mns
BIGINT_SERIES = f"monoid=free:2 D=12 crossed=trivial\n0\t1\t1\n1\ta\t{10 ** 400 + 1}\n"
# heis-q.mns, as CI writes it
HEIS_Q_SERIES = ("monoid=heis D=12 crossed=trivial\n0\tH(0,0,0)\t2/3\n1\tH(0,1,0)\t3/4\n"
                 "1\tH(1,0,0)\t-1/2\n2\tH(1,1,1)\t5/6\n")


@pytest.mark.parametrize("argv,code,digest", PINNED_CONSOLE_REPORTS,
                         ids=("z2-sign-twist", "quadratic-conj-Z", "expand-twist",
                              "wreath-16-seed-5", "magnus-D5", "magnus-D1", "group-algebra-D0",
                              "group-algebra-bigint", "expand-bigint", "expand-heis-q"))
def test_console_script_digests(argv, code, digest, tmp_path, monkeypatch):
    [twist] = [text for name, text, _ in PINNED_EXPANDS if name == "twist-inv.mns"]
    (tmp_path / "twist.mns").write_text(twist)
    (tmp_path / "big.mns").write_text(BIGINT_SERIES)
    (tmp_path / "heis-q.mns").write_text(HEIS_Q_SERIES)
    monkeypatch.chdir(tmp_path)
    got, out = _run_captured(argv)
    assert (got, _parse_report(out)["digest"]) == (code, digest)


def test_digit_runs_past_the_limit_are_usage_errors(tmp_path, capsys):
    # inputs stay bounded at 4300 digits, now that run_command lifts the
    # interpreter's limit while it runs; the limit is restored after every
    # run, failed or not
    limit = sys.get_int_max_str_digits()
    digits = "7" * (cli.MAX_INPUT_DIGITS + 1)
    series = tmp_path / "long.mns"
    series.write_text(f"monoid=z D=2 crossed=trivial\n0\tZ(0)\t{digits}\n")
    for argv in (["verify-group-algebra", f"--c={digits}", "--d=1", "--L", "2", "--D", "2"],
                 ["verify-monoid", "--group", "z", "--gens", f"Z({digits})", "--L", "2"],
                 ["expand", "--series-file", str(series)]):
        assert cli.run_command(argv) == cli.EXIT_USAGE
        assert f"a run of {len(digits)} digits, over the limit of 4300" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == limit
    code, _ = _run_captured(("expand", "--series-file", str(tmp_path / "missing.mns")))
    assert code == cli.EXIT_USAGE and sys.get_int_max_str_digits() == limit
    # a run of exactly 4300 digits is read (five words on three columns are
    # dependent, exit 3)
    code, _ = _run_captured(("verify-group-algebra", f"--c={digits[1:]}", "--d=1",
                               "--L", "1", "--D", "1"))
    assert code == 3 and sys.get_int_max_str_digits() == limit


def _run_captured(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run_command(list(argv))
    return code, buffer.getvalue()


def _parse_report(out):
    """The parsed report, once its text is checked to be the bytes of
    json.dumps(report, sort_keys=True, indent=2) and a newline."""
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    return report


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "every documented command is byte-deterministic modulo elapsed_ms", 60.0):
        strip = lambda text: re.sub(r'"?elapsed_ms"?: \d+', "elapsed_ms: 0", text)
        expand_src = tmp_path / "series.mns"
        expand_src.write_text("monoid=free:2 D=3 crossed=trivial\n0\t1\t1\n1\ta\t-1\n")
        commands = DOCUMENTED_COMMANDS + (
            ("expand", "--series-file", str(expand_src), "--invert"),
        )
        pinned = {argv: (code, digest) for argv, code, digest in PINNED_REPORTS}
        for name, text, digest in PINNED_EXPANDS:
            path = tmp_path / name
            path.write_text(text)
            argv = ("expand", "--series-file", str(path), "--invert")
            pinned[argv] = (0, digest)
        commands += tuple(argv for argv in pinned if argv not in commands)
        for argv in commands:
            for fmt in ("json", "text"):
                first_code, first_out = _run_captured(argv + ("--format", fmt, "--seed", "5"))
                second_code, second_out = _run_captured(argv + ("--format", fmt, "--seed", "5"))
                assert first_code == second_code, argv
                assert strip(first_out) == strip(second_out), argv
            code, out = _run_captured(argv + ("--format", "json", "--seed", "5"))
            report = _parse_report(out)
            assert report["schema"] == "mnseries-report/1"
            if argv in pinned:
                assert (code, report["digest"]) == pinned[argv], argv
