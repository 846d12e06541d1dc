"""Differential tests of the int-when-integral ground type against the
Fraction path: the same int-valued inputs, once as ints and once wrapped in
Fraction (parts wrapped in Fraction for Q(sqrt 2)), must give equal term
maps, equal keys and byte-identical series text from every series
operation, and equal ranks and dependency vectors from elimination."""

import random
from fractions import Fraction

import pytest

from helpers import sparse_rows
from mnseries.groups import sample_monoid_element
from mnseries.linalg import rank_and_left_nullspace
from mnseries.magnus import FreeMonoid
from mnseries.registry import resolve_crossed, resolve_monoid
from mnseries.scalars import QQ, QuadraticField, QuadraticFieldElement
from mnseries.series import GradedSeries, to_text

Q2 = QuadraticField(2)
CONTEXTS = (("bs12", "trivial"), ("heis", "trivial"), ("wreath", "trivial"),
            ("free:2", "trivial"), ("free:3", "trivial"), ("z2", "trivial"),
            ("z", "trivial"), ("z2", "z2-sign-twist"), ("z", "quadratic-conj-Z"))


def as_fraction(c):
    """c with every rational stored as a Fraction, integral or not; a
    quadratic element is built past its int-normalising constructor."""
    if isinstance(c, QuadraticFieldElement):
        return tuple.__new__(QuadraticFieldElement, (Fraction(c.u), Fraction(c.v), c.radicand))
    return Fraction(c)


def int_value(field, rng, nonzero=False):
    while True:
        if field == QQ:
            x = rng.randint(-3, 3)
        else:
            x = field.from_parts(rng.randint(-3, 3), rng.randint(-2, 2))
        if x or not nonzero:
            return x


def int_series(ctx, degree, field, system, rng, unit):
    terms = {}
    for _ in range(4):
        g = sample_monoid_element(ctx, rng, degree)
        terms[g] = int_value(field, rng)
    if unit:
        terms[ctx.identity()] = (rng.choice((1, -1, 2, -3)) if field == QQ
                                 else int_value(field, rng, nonzero=True))
    return GradedSeries(ctx, degree, terms, field, system)


def wrapped(f):
    return GradedSeries(f.context, f.degree, {g: as_fraction(c) for g, c in f.terms.items()},
                        f.field, f.system)


def assert_same(fast, slow):
    assert fast.terms == slow.terms
    assert to_text(fast) == to_text(slow)


@pytest.mark.parametrize("monoid_id,crossed_id", CONTEXTS,
                         ids=[f"{m}-{c}" for m, c in CONTEXTS])
def test_int_series_match_the_fraction_path(monoid_id, crossed_id):
    ctx = resolve_monoid(monoid_id)
    field = Q2 if crossed_id == "quadratic-conj-Z" else QQ
    system = resolve_crossed(crossed_id, field)
    rng = random.Random(f"ground-{monoid_id}-{crossed_id}")
    degree = 6 if isinstance(ctx, FreeMonoid) or monoid_id in ("z", "z2") else 5
    for _ in range(8):
        f = int_series(ctx, degree, field, system, rng, unit=True)
        g = int_series(ctx, degree, field, system, rng, unit=False)
        F, G = wrapped(f), wrapped(g)
        if field == QQ:
            # the wrapped inputs really are on the Fraction path
            assert all(type(c) is Fraction for c in F.terms.values())
            assert all(type(c) is int for c in (f * g).terms.values())
        assert_same(f * g, F * G)
        assert_same(g * f, G * F)
        assert_same(f + g, F + G)
        assert_same(f.invert(), F.invert())


def int_matrix(field, rng):
    m = rng.randint(1, 7)
    n = rng.randint(1, 7)
    matrix = [[int_value(field, rng) if rng.random() < 0.5 else field.zero for _ in range(n)]
              for _ in range(m)]
    if m >= 2 and rng.random() < 0.5:  # a repeated row, possibly scaled
        scale = int_value(field, rng, nonzero=True)
        matrix[rng.randrange(m)] = [scale * x for x in matrix[rng.randrange(m)]]
    return matrix


@pytest.mark.parametrize("field", (QQ, Q2), ids=lambda f: f.name)
def test_int_matrices_match_the_fraction_path(field):
    rng = random.Random(f"ground-linalg-{field.name}")
    deficient = 0
    for _ in range(300):
        matrix = int_matrix(field, rng)
        slow_matrix = [[as_fraction(x) for x in row] for row in matrix]
        rank, dependency = rank_and_left_nullspace(*sparse_rows(matrix), field)
        assert (rank, dependency) == rank_and_left_nullspace(*sparse_rows(slow_matrix), field)
        if dependency is not None:
            deficient += 1
            if field == QQ:
                assert all(type(c) is int for c in dependency)
    assert deficient > 30
