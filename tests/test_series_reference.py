"""Differential tests of the weight-graded series core against the slow
geometric-expansion oracle in helpers, in every context the series file
format reaches and in a diagonal change of quadratic-conj-Z, at the CLI's
whole degree range D = 6..12."""

import random
from fractions import Fraction

import pytest

from helpers import assert_one, assert_valid, random_series, reference_invert, with_degree
from mnseries.crossed import diagonal_change, quadratic_conj_z, trivial_system, z2_sign_twist
from mnseries.groups import Heisenberg, LatticeGroup, SemidirectGroup, WreathGroup
from mnseries.magnus import FreeMonoid
from mnseries.registry import resolve_crossed, resolve_monoid
from mnseries.scalars import QQ, QuadraticField
from mnseries.series import GradedSeries, from_text, to_text

HEIS = Heisenberg()
QSQRT2 = QuadraticField(2)
# a nonconstant basis change of quadratic-conj-Z, d(Z(k)) = k + sqrt 2 for
# k != 0: its twist and its action are both nontrivial
DIAG_QUAD = diagonal_change(
    quadratic_conj_z(2), lambda g: QSQRT2.from_parts(g.coords[0], 1) if g.coords[0] else QSQRT2.one)

CONTEXTS = [
    ("bs12", SemidirectGroup(), QQ, None),
    ("wreath", WreathGroup(), QQ, None),
    ("heis", HEIS, QQ, None),
    ("heis-trivial-system", HEIS, QQ, trivial_system(HEIS, QQ)),
    ("free2", FreeMonoid(2), QQ, None),
    ("free3", FreeMonoid(3), QQ, None),
    ("z2-sign-twist", LatticeGroup(2), QQ, z2_sign_twist(QQ)),
    ("z-quadratic-conj", LatticeGroup(1), QSQRT2, quadratic_conj_z(2)),
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
