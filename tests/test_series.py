import random
from fractions import Fraction

import pytest

from helpers import assert_one, random_series, reference_invert, with_degree
from mnseries.crossed import flatten, quadratic_conj_z, regroup, trivial_system, z2_sign_twist
from mnseries.groups import (
    Heisenberg,
    HeisenbergElement,
    LatticeGroup,
    SemidirectGroup,
    quotient_descriptor,
)
from mnseries.magnus import FreeMonoid
from mnseries.registry import resolve_crossed, resolve_monoid
from mnseries.scalars import QQ, PrimeField, QuadraticField
from mnseries.series import (
    ContextMismatchError,
    GradedSeries,
    NoTruncatedInverseError,
    SubgroupRing,
    from_text,
    summable_sum,
    to_text,
)

HEIS = Heisenberg()
Z2 = LatticeGroup(2)
X = HeisenbergElement(1, 0, 0)
Y = HeisenbergElement(0, 1, 0)


def mono(ctx, deg, g, c=Fraction(1), field=QQ, system=None):
    return GradedSeries.monomial(ctx, deg, g, c, field, system)


def test_add_examples():
    one = GradedSeries.one(HEIS, 4, QQ)
    fx = mono(HEIS, 4, X)
    assert (one + fx) + (one - fx) == GradedSeries.from_scalar(HEIS, 4, Fraction(2), QQ)
    f = one + fx
    assert f + GradedSeries.zero(HEIS, 4, QQ) == f
    fy = mono(HEIS, 4, Y)
    assert (fx + fy) + fy == fx + fy.scale(Fraction(2))


def test_multiply_heisenberg_against_group_law():
    fx = mono(HEIS, 4, X)
    fy = mono(HEIS, 4, Y)
    assert (fx * fy).terms == {HeisenbergElement(1, 1, 1): Fraction(1)}
    assert (fy * fx).terms == {HeisenbergElement(1, 1, 0): Fraction(1)}
    f = GradedSeries.one(HEIS, 4, QQ) + fx + fy
    assert f * GradedSeries.one(HEIS, 4, QQ) == f


def test_multiply_sign_twist():
    system = z2_sign_twist(QQ)
    fx = mono(Z2, 4, Z2.element(1, 0), system=system)
    fy = mono(Z2, 4, Z2.element(0, 1), system=system)
    assert (fy * fx).terms == {Z2.element(1, 1): Fraction(-1)}
    assert (fx * fy).terms == {Z2.element(1, 1): Fraction(1)}


def test_trivial_twist_matches_untwisted():
    rng = random.Random(0)
    system = trivial_system(HEIS, QQ)
    for _ in range(100):
        f_plain = random_series(HEIS, 4, QQ, rng)
        g_plain = random_series(HEIS, 4, QQ, rng)
        f_sys = GradedSeries(HEIS, 4, dict(f_plain.terms), QQ, system)
        g_sys = GradedSeries(HEIS, 4, dict(g_plain.terms), QQ, system)
        assert (f_sys * g_sys).terms == (f_plain * g_plain).terms


def test_invert_geometric_free_monoid():
    m1 = FreeMonoid(1)
    one = GradedSeries.one(m1, 3, QQ)
    f = one - mono(m1, 3, "a")
    inv = f.invert()
    assert inv.terms == {"": Fraction(1), "a": Fraction(1), "aa": Fraction(1), "aaa": Fraction(1)}
    assert_one(f * inv)
    assert_one(inv * f)


def test_invert_one_and_alternating():
    one = GradedSeries.one(HEIS, 2, QQ)
    assert one.invert() == one
    f = one + mono(HEIS, 2, X)
    assert f.invert().terms == {
        HEIS.identity(): Fraction(1),
        X: Fraction(-1),
        HeisenbergElement(2, 0, 0): Fraction(1),
    }


def test_invert_multiplies_each_layer_once(monkeypatch):
    # each layer of the inverse of 2 + x + x^2 + x^3 is one term, times the
    # three positive terms: at most 3 group products per weight, where summing
    # the powers of the positive part took 133 at D = 12
    z = LatticeGroup(1)
    degree = 12
    f = GradedSeries(z, degree, {z.element(k): c for k, c in enumerate((2, 1, 1, 1))}, QQ)
    calls = []
    multiply = LatticeGroup.multiply

    def counted(self, g, h):
        calls.append((g, h))
        return multiply(self, g, h)

    monkeypatch.setattr(LatticeGroup, "multiply", counted)
    inv = f.invert()
    monkeypatch.undo()
    assert len(calls) <= 3 * degree
    assert inv.terms == reference_invert(f).terms


def test_invert_requires_unit_identity_coefficient():
    with pytest.raises(NoTruncatedInverseError):
        mono(HEIS, 3, X).invert()
    ring = SubgroupRing(HEIS, "G")
    f = GradedSeries(ring, 0, {HEIS.identity(): Fraction(1), X: Fraction(1)}, QQ)
    with pytest.raises(NoTruncatedInverseError):
        f.invert()


CONTEXTS = [
    ("heis-trivial", HEIS, QQ, None),
    ("z2-sign", Z2, QQ, z2_sign_twist(QQ)),
    ("quad-conj", LatticeGroup(1), QuadraticField(2), quadratic_conj_z(2)),
    ("f5", HEIS, PrimeField(5), None),
]


@pytest.mark.parametrize("name,ctx,field,system", CONTEXTS, ids=lambda v: v if isinstance(v, str) else "")
def test_ring_axioms(name, ctx, field, system):
    rng = random.Random(42)
    for _ in range(60):
        f = random_series(ctx, 4, field, rng, system=system)
        g = random_series(ctx, 4, field, rng, system=system)
        h = random_series(ctx, 4, field, rng, system=system)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


@pytest.mark.parametrize("name,ctx,field,system", CONTEXTS, ids=lambda v: v if isinstance(v, str) else "")
def test_truncated_inverse(name, ctx, field, system):
    rng = random.Random(7)
    one = GradedSeries.one(ctx, 5, field, system)
    for _ in range(40):
        f = random_series(ctx, 5, field, rng, system=system, unit=True)
        inv = f.invert()
        assert f * inv == one
        assert inv * f == one


def test_truncation_coherence():
    rng = random.Random(9)
    for _ in range(60):
        f = random_series(HEIS, 4, QQ, rng)
        g = random_series(HEIS, 4, QQ, rng)
        fd = with_degree(f, 6)
        gd = with_degree(g, 6)
        assert (fd * gd).truncated(4) == f * g


def test_degree_and_context_mixes_refused():
    f = GradedSeries.one(HEIS, 4, QQ)
    g = GradedSeries.one(HEIS, 5, QQ)
    with pytest.raises(ContextMismatchError):
        f + g
    with pytest.raises(ContextMismatchError):
        f * GradedSeries.one(Z2, 4, QQ)
    with pytest.raises(ContextMismatchError):
        f * GradedSeries.one(HEIS, 4, PrimeField(5))
    sys2 = z2_sign_twist(QQ)
    a = GradedSeries.one(Z2, 4, QQ, sys2)
    b = GradedSeries.one(Z2, 4, QQ)
    with pytest.raises(ContextMismatchError):
        a * b


def test_series_validation():
    with pytest.raises(ValueError):
        GradedSeries(HEIS, 2, {HeisenbergElement(2, 1, 0): Fraction(1)}, QQ)  # weight 3 > 2
    with pytest.raises(ValueError):
        GradedSeries(HEIS, 2, {HeisenbergElement(0, 0, 1): Fraction(1)}, QQ)  # not in monoid
    with pytest.raises(ContextMismatchError):
        GradedSeries(HEIS, 2, {X: PrimeField(5).one}, QQ)  # foreign coefficient
    # zero coefficients are dropped silently
    f = GradedSeries(HEIS, 2, {X: Fraction(0)}, QQ)
    assert not f


def test_summable_sum():
    m1 = FreeMonoid(1)
    parts = [
        GradedSeries.one(m1, 3, QQ),
        mono(m1, 3, "a"),
        mono(m1, 3, "aa"),
    ]
    total = summable_sum(parts)
    assert total.terms == {"": Fraction(1), "a": Fraction(1), "aa": Fraction(1)}
    f = random_series(m1, 3, QQ, random.Random(1))
    assert not summable_sum([f, -f])


def test_summable_family_properties():
    # scalar pull-out, additivity, and product distribution over 3x3 families
    rng = random.Random(2)
    for _ in range(30):
        fs = [random_series(HEIS, 4, QQ, rng) for _ in range(3)]
        gs = [random_series(HEIS, 4, QQ, rng) for _ in range(3)]
        a = QQ.sample_nonzero(rng)
        assert summable_sum([f.scale(a) for f in fs]) == summable_sum(fs).scale(a)
        assert summable_sum([f + g for f, g in zip(fs, gs)]) == summable_sum(fs) + summable_sum(gs)
        products = [f * g for f in fs for g in gs]
        assert summable_sum(products) == summable_sum(fs) * summable_sum(gs)


def test_regroup_mixed_coset_support():
    ring = SubgroupRing(HEIS, "G")
    z = HeisenbergElement(0, 0, 1)
    f = GradedSeries(ring, 0, {X: Fraction(1), z: Fraction(1)}, QQ)
    qd = quotient_descriptor(HEIS, "center")
    rf = regroup(f, qd)
    assert set(rf.terms) == {Z2.element(1, 0), Z2.element(0, 0)}
    assert rf.terms[Z2.element(1, 0)].terms == {HEIS.identity(): Fraction(1)}
    assert rf.terms[Z2.element(0, 0)].terms == {z: Fraction(1)}
    assert flatten(rf) == f


def test_regroup_subgroup_supported_series():
    qd = quotient_descriptor(HEIS, "center")
    ring = SubgroupRing(HEIS, "G")
    z = HeisenbergElement(0, 0, 1)
    f = GradedSeries(ring, 0, {z: Fraction(2), HEIS.identity(): Fraction(3)}, QQ)
    rf = regroup(f, qd)
    assert list(rf.terms) == [Z2.element(0, 0)]
    assert rf.terms[Z2.element(0, 0)].terms == f.terms


def test_regroup_refuses_contexts_flatten_cannot_return_to():
    qd = quotient_descriptor(HEIS, "center")
    z = HeisenbergElement(0, 0, 1)
    with pytest.raises(ContextMismatchError):
        regroup(GradedSeries(SubgroupRing(HEIS, "center"), 0, {z: Fraction(1)}, QQ), qd)
    with pytest.raises(ContextMismatchError):
        regroup(GradedSeries.one(Z2, 4, QQ), qd)
    with pytest.raises(ContextMismatchError):
        flatten(GradedSeries.one(HEIS, 4, QQ))


@pytest.mark.parametrize("group,tag", [(HEIS, "center"), (SemidirectGroup(), "base")],
                         ids=("heis", "bs12"))
def test_regroup_round_trip_random(group, tag):
    qd = quotient_descriptor(group, tag)
    rng = random.Random(3)
    for _ in range(100):
        f = random_series(group, 4, QQ, rng)
        assert flatten(regroup(f, qd)) == f


def test_regroup_of_graded_series_keeps_quotient_grading():
    qd = quotient_descriptor(HEIS, "center")
    f = random_series(HEIS, 4, QQ, random.Random(5))
    rf = regroup(f, qd)
    assert rf.context.graded
    for q in rf.terms:
        assert rf.context.weight(q) <= 4


def test_text_round_trip():
    rng = random.Random(6)
    for ctx in (HEIS, FreeMonoid(2), Z2):
        for _ in range(20):
            f = random_series(ctx, 4, QQ, rng)
            text = to_text(f)
            g = from_text(text, resolve_monoid, resolve_crossed)
            assert g == f
            assert to_text(g) == text


def test_text_round_trip_other_fields():
    rng = random.Random(7)
    f = random_series(HEIS, 3, PrimeField(5), rng)
    assert from_text(to_text(f), resolve_monoid, resolve_crossed) == f
    system = quadratic_conj_z(2)
    g = random_series(LatticeGroup(1), 3, QuadraticField(2), rng, system=system)
    parsed = from_text(to_text(g), resolve_monoid, resolve_crossed)
    assert parsed == g


def test_text_rejects_non_canonical_input():
    bad_order = "monoid=heis D=2 crossed=trivial\n1\tH(1,0,0)\t1\n0\tH(0,0,0)\t1\n"
    with pytest.raises(ValueError):
        from_text(bad_order, resolve_monoid, resolve_crossed)
    bad_weight = "monoid=heis D=2 crossed=trivial\n2\tH(1,0,0)\t1\n"
    with pytest.raises(ValueError):
        from_text(bad_weight, resolve_monoid, resolve_crossed)
    bad_header = "monoid heis D=2\n"
    with pytest.raises(ValueError):
        from_text(bad_header, resolve_monoid, resolve_crossed)
    zero_coeff = "monoid=heis D=2 crossed=trivial\n0\tH(0,0,0)\t0\n"
    with pytest.raises(ValueError):
        from_text(zero_coeff, resolve_monoid, resolve_crossed)
