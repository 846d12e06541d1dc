"""Differential tests of the weight-graded series core against the slow
geometric-expansion oracle in helpers, in every context the series file
format reaches and in a diagonal change of quadratic-conj-Z, at the CLI's
whole degree range D = 6..12, and of the integer layers of Q inversion
under diagonal changes with non-integral twists."""

import random
from fractions import Fraction

import pytest

from helpers import assert_one, assert_valid, random_series, reference_invert, with_degree
from mnseries.crossed import diagonal_change, quadratic_conj_z, trivial_system, z2_sign_twist
from mnseries.groups import Heisenberg, LatticeGroup, SemidirectGroup, WreathGroup, sample_monoid_element
from mnseries.magnus import FreeMonoid
from mnseries.registry import resolve_crossed, resolve_monoid
from mnseries.scalars import QQ, QuadraticField
from mnseries.series import GradedSeries, from_text, to_text

HEIS = Heisenberg()
QSQRT2 = QuadraticField(2)
# a nonconstant basis change of quadratic-conj-Z, d(Z(k)) = k + sqrt 2 for
# k != 0: its twist and its action are both nontrivial
DIAG_QUAD = diagonal_change(
    quadratic_conj_z(QSQRT2), lambda g: QSQRT2.from_parts(g.coords[0], 1) if g.coords[0] else QSQRT2.one)

CONTEXTS = [
    ("bs12", SemidirectGroup(), QQ, None),
    ("wreath", WreathGroup(), QQ, None),
    ("heis", HEIS, QQ, None),
    ("heis-trivial-system", HEIS, QQ, trivial_system(HEIS, QQ)),
    ("free2", FreeMonoid(2), QQ, None),
    ("free3", FreeMonoid(3), QQ, None),
    ("z2-sign-twist", LatticeGroup(2), QQ, z2_sign_twist(QQ)),
    ("z-quadratic-conj", LatticeGroup(1), QSQRT2, quadratic_conj_z(QSQRT2)),
    ("z-diag-quadratic-conj", LatticeGroup(1), QSQRT2, DIAG_QUAD),
]
IDS = [c[0] for c in CONTEXTS]
DEGREES = range(6, 13)


def _resolve_crossed(crossed_id, field):
    """resolve_crossed, and the diagonal change, which no series file names."""
    if crossed_id == DIAG_QUAD.id:
        return DIAG_QUAD
    return resolve_crossed(crossed_id, field)


def _generators(ctx):
    if isinstance(ctx, FreeMonoid):
        return tuple(ctx.alphabet)
    return ctx.monoid_generators()


def _product(ctx, word):
    g = ctx.identity()
    for h in word:
        g = ctx.multiply(g, h)
    return g


def prefix_code_unit(ctx, degree, field, system, rng):
    """u + a*x + b*yu + c*yvw with u != v. In a free monoid these terms form
    a prefix code, so the inverse stays small (about 1.84^D terms) while every
    power of the positive part has terms of several weights."""
    gens = list(_generators(ctx))
    x, y = rng.sample(gens, 2) if len(gens) > 1 else gens * 2
    u, v = rng.sample(gens, 2) if len(gens) > 1 else gens * 2
    terms = {ctx.identity(): field.sample_nonzero(rng)}
    for word in ([x], [y, u], [y, v, rng.choice(gens)]):
        g = _product(ctx, word)
        terms[g] = terms.get(g, field.zero) + field.sample_nonzero(rng)
    return GradedSeries(ctx, degree, terms, field, system)


@pytest.mark.parametrize("name,ctx,field,system", CONTEXTS, ids=IDS)
def test_invert_matches_geometric_reference(name, ctx, field, system):
    rng = random.Random(f"invert:{name}")
    for degree in DEGREES:
        f = prefix_code_unit(ctx, degree, field, system, rng)
        inv = f.invert()
        assert inv.terms == reference_invert(f).terms, (name, degree)
        assert_one(f * inv)
        assert_one(inv * f)
        assert_valid(inv)


@pytest.mark.parametrize("name,ctx,field,system", CONTEXTS, ids=IDS)
def test_invert_matches_reference_on_random_units(name, ctx, field, system):
    # unrestricted supports: coinciding products and cancellation between powers
    rng = random.Random(f"random:{name}")
    for _ in range(10):
        f = random_series(ctx, 6, field, rng, n_terms=3, system=system, unit=True)
        inv = f.invert()
        assert inv.terms == reference_invert(f).terms, name
        assert_one(f * inv)
        assert_one(inv * f)
        assert_valid(inv)


@pytest.mark.parametrize("name,ctx,field,system", CONTEXTS, ids=IDS)
def test_stored_weights_follow_every_operation(name, ctx, field, system):
    # a series stores no weights; the weight column its file stores is read
    # from the context's grade, so every result of the trusted arithmetic
    # survives validation and its text, whose weights from_text checks byte
    # for byte, parses back to it (f - f included: a zero series' header
    # names its field)
    rng = random.Random(f"weights:{name}")
    for degree in (6, 12):
        f = prefix_code_unit(ctx, degree, field, system, rng)
        g = random_series(ctx, degree, field, rng, n_terms=6, system=system)
        for h in (f, f * g, g * f, f + g, f - g, f - f, -g, g.scale(field.sample_nonzero(rng)),
                  f.invert(), (f * g).truncated(degree - 3), with_degree(g, degree + 2)):
            assert_valid(h)
            assert from_text(to_text(h), resolve_monoid, _resolve_crossed) == h
            assert [w for w, _, _ in h.rows()] == sorted(ctx.weight(x) for x in h.terms)


def test_reference_oracle_on_a_known_inverse():
    m1 = FreeMonoid(1)
    f = GradedSeries(m1, 4, {"": Fraction(2), "a": Fraction(-2)}, QQ)
    expected = {"a" * k: Fraction(1, 2) for k in range(5)}
    assert reference_invert(f).terms == expected
    assert f.invert().terms == expected


# Over Q, invert solves on integer numerators over one power of the cleared
# identity coefficient per layer, and builds each coefficient as one exact
# ratio. The units below have identity coefficients that are neither +-1 nor
# integral, and other terms over mixed denominators; they run under the
# trivial system, z2-sign-twist, and diagonal changes of both whose twists
# are 1 or +-8/27, so the numerators hold Fractions.
Q_IDENTITY_COEFFICIENTS = (Fraction(2, 3), Fraction(-5, 2), Fraction(1, 2), Fraction(-1, 3))
GRADED_IDS = ("bs12", "heis", "wreath", "free:2", "free:3", "z2", "z")


def _q_systems():
    for monoid_id in GRADED_IDS:
        ctx = resolve_monoid(monoid_id)
        bases = [trivial_system(ctx, QQ)] + ([z2_sign_twist(QQ)] if monoid_id == "z2" else [])
        # d(g) = (2/3)^(weight mod 3) is 1 at the identity and makes
        # twist(g, h) a power of 8/27 times the base twist
        d = lambda g, grade=ctx.grade: Fraction(2, 3) ** (grade(g) % 3)
        for base in bases:
            for system in (base, diagonal_change(base, d)):
                yield pytest.param(ctx, system, id=f"{monoid_id}-{system.id}")


def q_unit(ctx, degree, identity_coefficient, system, rng):
    """identity_coefficient plus four terms of positive weight, over the
    denominators 1 to 6."""
    terms = {ctx.identity(): identity_coefficient}
    while len(terms) < 5:
        g = sample_monoid_element(ctx, rng, degree)
        if g != ctx.identity():
            terms[g] = Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.randint(1, 6))
    return GradedSeries(ctx, degree, terms, QQ, system)


@pytest.mark.parametrize("ctx,system", _q_systems())
def test_q_invert_on_integer_layers_matches_reference(ctx, system):
    rng = random.Random(f"q-layers:{ctx.id}:{system.id}")
    integral = 0
    for identity_coefficient in Q_IDENTITY_COEFFICIENTS:
        f = q_unit(ctx, 6, identity_coefficient, system, rng)
        inv = f.invert()
        assert inv.terms == reference_invert(f).terms
        values = inv.terms.values()
        assert all(type(c) is int for c in values if c.denominator == 1), inv
        integral += sum(c.denominator == 1 for c in values)
        assert_one(f * inv)
        assert_one(inv * f)
    # the inverse identity coefficients of 1/2 and -1/3 are 2 and -3
    assert integral >= 2


# The inverse's layers over Q repeat a few numerators across many terms, and
# each distinct numerator's ratio is made once and shared by its terms. The
# units below have the shape of the benchmark's --invert files: the prefix
# code x, yu, yvw (so the inverse holds one term per code word up to the
# degree), identity coefficients integral or not, and terms of +-1/2, +-1
# and +-1/3. The diagonal change of z2-sign-twist has twists +-1 and +-8/27,
# so its numerators are Fractions, keys like the ints.
PREFIX_IDENTITY_COEFFICIENTS = (2, -1, Fraction(2, 3))
PREFIX_COEFFICIENTS = (Fraction(1, 2), Fraction(-1, 2), 1, -1, Fraction(1, 3), Fraction(-1, 3))


def _prefix_code_cases():
    for monoid_id in ("free:2", "free:3", "bs12", "wreath", "heis"):
        yield pytest.param(resolve_monoid(monoid_id), None, id=monoid_id)
    z2 = resolve_monoid("z2")
    d = lambda g: Fraction(2, 3) ** (z2.grade(g) % 3)
    yield pytest.param(z2, diagonal_change(z2_sign_twist(QQ), d), id="z2-diag-z2-sign-twist")


@pytest.mark.parametrize("ctx,system", _prefix_code_cases())
def test_q_invert_shares_one_ratio_per_numerator(ctx, system):
    rng = random.Random(f"q-prefix:{ctx.id}")
    gens = list(_generators(ctx))
    for degree in (6, 12):
        for identity_coefficient in PREFIX_IDENTITY_COEFFICIENTS:
            x, y = rng.sample(gens, 2)
            u, v = rng.sample(gens, 2)
            terms = {ctx.identity(): identity_coefficient}
            for word in ([x], [y, u], [y, v, rng.choice(gens)]):
                terms[_product(ctx, word)] = rng.choice(PREFIX_COEFFICIENTS)
            f = GradedSeries(ctx, degree, terms, QQ, system)
            inv = f.invert()
            reference = reference_invert(f)
            assert inv.terms == reference.terms, (ctx.id, degree, identity_coefficient)
            assert to_text(inv) == to_text(reference)
            assert_one(f * inv)
            assert_one(inv * f)
