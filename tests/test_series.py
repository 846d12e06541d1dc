import copy
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    assert_one,
    corrupt_twist,
    random_series,
    reference_format,
    reference_invert,
    reference_repr,
    reference_rows,
    reference_to_text,
    with_degree,
)
from mnseries import scalars, series
from mnseries.crossed import (
    SubgroupSeriesRing,
    flatten,
    quadratic_conj_z,
    regroup,
    trivial_system,
    z2_sign_twist,
)
from mnseries.groups import (
    Heisenberg,
    HeisenbergElement,
    LatticeGroup,
    SemidirectGroup,
    WreathGroup,
    sample_monoid_element,
)
from mnseries.magnus import FreeMonoid, free_monoid, magnus_images, parse_word, word_images
from mnseries.registry import group_ids, resolve_crossed, resolve_monoid
from mnseries.report import Rows
from mnseries.scalars import QQ, PrimeField, QuadraticField, TupleValue
from mnseries.series import (
    ContextMismatchError,
    GradedSeries,
    NoTruncatedInverseError,
    SubgroupRing,
    _first_difference,
    from_text,
    summable_sum,
    to_text,
    unit_generators,
)

HEIS = Heisenberg()
Z2 = LatticeGroup(2)
X = HeisenbergElement(1, 0, 0)
Y = HeisenbergElement(0, 1, 0)


def mono(ctx, deg, g, c=Fraction(1), field=QQ, system=None):
    return GradedSeries(ctx, deg, {g: c}, field, system)


def test_add_examples():
    one = GradedSeries.one(HEIS, 4, QQ)
    fx = mono(HEIS, 4, X)
    assert (one + fx) + (one - fx) == GradedSeries(HEIS, 4, {HEIS.identity(): Fraction(2)}, QQ)
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


def _pairwise_product(f, g):
    """f * g term pair by term pair, under f's system, with no seeding."""
    grade, system = f.context.grade, f.system
    out = {}
    for x, a in f.terms.items():
        for y, b in g.terms.items():
            if grade(x) + grade(y) <= f.degree:
                c = a * b if system is None else system.twist(x, y) * system.action(y, a) * b
                z = f.context.multiply(x, y)
                out[z] = out.get(z, f.field.zero) + c
    return {z: c for z, c in out.items() if c}


def _count_group_products(monkeypatch, context):
    made = []
    owner = type(getattr(context, "group", context))
    multiply = owner.multiply

    def counted(self, g, h):
        made.append((g, h))
        return multiply(self, g, h)

    monkeypatch.setattr(owner, "multiply", counted)
    return made


@pytest.mark.parametrize("monoid_id", ["heis", "bs12", "wreath", "z2", "free:2"])
@pytest.mark.parametrize("spec", ["Q", "Fp:5", "Qsqrt:2"])
def test_a_first_identity_term_of_the_right_factor_makes_no_group_products(
        monkeypatch, monoid_id, spec):
    # with the identity first on the right, its pairs are copied from the
    # left factor; last, every pair within the degree is multiplied
    ctx, field = resolve_monoid(monoid_id), scalars.field_from_spec(spec)
    rng = random.Random(f"seed-identity:{monoid_id}:{spec}")
    ident = ctx.identity()
    for _ in range(6):
        f = random_series(ctx, 5, field, rng, n_terms=6, unit=rng.random() < 0.5)
        g = random_series(ctx, 5, field, rng, n_terms=6, unit=True)
        rest = {h: c for h, c in g.terms.items() if h != ident}
        for terms, copied in (({ident: g.terms[ident], **rest}, True),
                              ({**rest, ident: g.terms[ident]}, False)):
            right = GradedSeries(ctx, 5, terms, field)
            made = _count_group_products(monkeypatch, ctx)
            product = f * right
            monkeypatch.undo()
            assert len(made) == sum(ctx.grade(x) + ctx.grade(y) <= 5 for x in f.terms
                                    for y in terms if not (copied and y == ident))
            assert product.terms == _pairwise_product(f, right)


def test_a_crossed_product_twists_the_right_identity_term_too():
    # under a crossed system every pair goes through the twist, the
    # identity's too, so a twist(x, 1) other than 1 shows in the product
    one, x = Z2.identity(), Z2.monoid_generators()[0]
    broken = corrupt_twist(z2_sign_twist(QQ), (x, one), -1)
    f, g = (GradedSeries(Z2, 3, {one: a, x: b}, QQ, broken) for a, b in ((1, 2), (3, 5)))
    product = f * g
    assert product.terms == _pairwise_product(f, g)
    assert product.terms[x] == 1 * 5 - 2 * 3


@pytest.mark.parametrize("spec", ["Q", "Fp:5"])
def test_subgroup_ring_products_multiply_every_pair(monkeypatch, spec):
    # every grade of a subgroup ring is 0, the identity's and all others',
    # so a first identity term on the right is multiplied like the rest
    field = scalars.field_from_spec(spec)
    ring = SubgroupRing(HEIS, "G")
    rng = random.Random(f"ring-identity:{spec}")
    for _ in range(6):
        f, g = ({HeisenbergElement(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-3, 3)):
                 field.sample_nonzero(rng) for _ in range(5)} for _ in range(2))
        g = {HEIS.identity(): field.sample_nonzero(rng), **g}
        f, g = (GradedSeries(ring, 0, terms, field) for terms in (f, g))
        made = _count_group_products(monkeypatch, ring)
        product = f * g
        monkeypatch.undo()
        assert len(made) == len(f.terms) * len(g.terms)
        assert product.terms == _pairwise_product(f, g)


def test_invert_requires_unit_identity_coefficient():
    with pytest.raises(NoTruncatedInverseError):
        mono(HEIS, 3, X).invert()
    ring = SubgroupRing(HEIS, "G")
    f = GradedSeries(ring, 0, {HEIS.identity(): Fraction(1), X: Fraction(1)}, QQ)
    with pytest.raises(NoTruncatedInverseError):
        f.invert()


@pytest.mark.parametrize("monoid_id", ["free:x", "free:", "free:-1", "free:2 ", "free", "heis:2"])
def test_unknown_monoid_ids_are_refused_as_group_ids(monoid_id):
    # "free:<digits>" is a free monoid; any other id is looked up, and
    # refused, as a group id, quoting it
    with pytest.raises(ValueError, match=re.escape(f"unknown group id {monoid_id!r}")):
        resolve_monoid(monoid_id)
    assert resolve_monoid("free:3") is free_monoid(3) and resolve_monoid("heis") == HEIS


def test_unit_generators_over_every_graded_context():
    # one unit 1 + s*g per monoid generator g, in order, over each group and
    # free monoid; each is 1 at degree 0, and the scalars match the generators
    # one to one and lie in the field, also at degree 0
    for ctx in (*map(resolve_monoid, group_ids()), *map(free_monoid, (1, 2, 3))):
        gens = ctx.monoid_generators()
        scalars = [QQ.from_int(k + 2) for k in range(len(gens))]
        units = unit_generators(ctx, scalars, 3, QQ)
        assert [u.terms for u in units] == [{ctx.identity(): 1, g: s} for g, s in zip(gens, scalars)]
        assert all(u.degree == 3 and u.field == QQ and u.system is None for u in units)
        for u in unit_generators(ctx, scalars, 0, QQ):
            assert u.terms == {ctx.identity(): 1}
        for wrong in (scalars[1:], scalars + [1]):
            with pytest.raises(ValueError):
                unit_generators(ctx, wrong, 3, QQ)
        for degree in (0, 3):
            with pytest.raises(ContextMismatchError, match="not in field Fp:5"):
                unit_generators(ctx, scalars, degree, PrimeField(5))


CONTEXTS = [
    ("heis-trivial", HEIS, QQ, None),
    ("z2-sign", Z2, QQ, z2_sign_twist(QQ)),
    ("quad-conj", LatticeGroup(1), QuadraticField(2), quadratic_conj_z(QuadraticField(2))),
    ("f5", HEIS, PrimeField(5), None),
    ("bs12", SemidirectGroup(), QQ, None),
    ("wreath", WreathGroup(), QQ, None),
    ("free2", FreeMonoid(2), QQ, None),
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


@pytest.mark.parametrize("name,ctx,field,system", CONTEXTS, ids=lambda v: v if isinstance(v, str) else "")
def test_rows_are_printed_in_the_reference_order(name, ctx, field, system):
    # rows() prints each term once, and to_text and repr read its strings
    # as they are: the bytes of the per-row formatting in the reference
    rng = random.Random(f"rows:{name}")
    for _ in range(30):
        f = random_series(ctx, 4, field, rng, n_terms=8, system=system, unit=True)
        assert f.rows() == reference_rows(f)
        assert to_text(f) == reference_to_text(f)
        assert repr(f) == reference_repr(f)


ROW_FIELDS = (QQ, PrimeField(5), QuadraticField(2))


@pytest.mark.parametrize("field", ROW_FIELDS, ids=lambda f: f.name)
def test_rows_are_the_sorted_tuples(field):
    # rows() sorts by element string and then, stably, by weight: the order
    # of the sorted (weight, element string, coefficient string) tuples,
    # since no two elements print alike, in every graded context, over a
    # subgroup ring and on Magnus images
    rng = random.Random(f"sorted-rows:{field.name}")
    series = []
    for monoid_id in ("bs12", "heis", "wreath", "free:2", "free:3", "z2", "z"):
        ctx = resolve_monoid(monoid_id)
        for _ in range(10):
            f = random_series(ctx, 6, field, rng, n_terms=12, unit=True)
            series += [f, f * f, f.invert()]
    ring = SubgroupRing(HEIS, "G")
    for _ in range(10):
        terms = {HeisenbergElement(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-12, 12)):
                 field.sample(rng) for _ in range(12)}
        series.append(GradedSeries(ring, 0, {g: c for g, c in terms.items() if c}, field))
    words = [parse_word(w, 3) for w in ("ab'c", "c'a", "bb'", "1", "a'c'b", "cab")]
    if field == QQ:
        images, rows, _ = magnus_images(words, 6)
        assert rows == [sorted(image.rows()) for image in images]
    else:
        images = word_images(words, unit_generators(free_monoid(3), (field.one,) * 3, 6, field))
    series += images
    for f in series:
        assert f.rows() == sorted(f.rows()), f


def assert_typed_rows(rows):
    # the report writer trusts these types: exactly int, str, str
    assert type(rows) is Rows
    assert all(type(row) is tuple and len(row) == 3 for row in rows), rows
    assert all(list(map(type, row)) == [int, str, str] for row in rows), rows


@pytest.mark.parametrize("name,ctx,field,system", CONTEXTS, ids=lambda v: v if isinstance(v, str) else "")
def test_rows_are_typed_rows(name, ctx, field, system):
    rng = random.Random(f"typed:{name}")
    assert_typed_rows(GradedSeries.zero(ctx, 4, field, system).rows())
    for _ in range(20):
        f = random_series(ctx, 4, field, rng, n_terms=8, system=system, unit=True)
        assert f.rows()
        assert_typed_rows(f.rows())
        assert_typed_rows((f * f).rows())


def test_regrouped_rows_are_typed_rows():
    # a regrouped series prints its N-series coefficients as str
    rng = random.Random("typed:regrouped")
    for _ in range(10):
        rf = regroup(random_series(HEIS, 4, QQ, rng, n_terms=8, unit=True), "center")
        assert rf.rows()
        assert_typed_rows(rf.rows())
        assert_typed_rows(rf.invert().rows())


def test_only_the_series_module_builds_rows():
    # every Rows the report writer takes unchecked comes from
    # GradedSeries.rows(), whose types the test above holds
    package = Path(series.__file__).parent
    builders = sorted(path.name for path in package.glob("*.py")
                      if re.search(r"(?<!class )\bRows\(", path.read_text()))
    assert builders == ["series.py"], builders


def test_regrouped_rows_print_their_coefficients_through_the_n_series_ring():
    # a regrouped series' coefficients are N-series, printed by
    # SubgroupSeriesRing.format from their own rows; the ring series put
    # several central terms in one coset
    ring = SubgroupRing(HEIS, "G")
    rng = random.Random("rows:regrouped")
    widest = 0
    for _ in range(30):
        graded = random_series(HEIS, 4, QQ, rng, n_terms=8, unit=True)
        spread = GradedSeries(ring, 0, {HeisenbergElement(rng.randint(0, 1), rng.randint(-1, 1),
                                                          rng.randint(-2, 2)): QQ.sample(rng)
                                        for _ in range(8)}, QQ)
        for rf in (regroup(graded, "center"), regroup(spread, "center")):
            assert isinstance(rf.field, SubgroupSeriesRing) and rf
            assert rf.rows() == reference_rows(rf)
            assert to_text(rf) == reference_to_text(rf)
            assert repr(rf) == reference_repr(rf)
            assert [rf.field.format(c) for c in rf.terms.values()] == [
                reference_format(rf.field, c) for c in rf.terms.values()]
            widest = max([widest, *(len(c.terms) for c in rf.terms.values())])
    assert widest > 2


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


# a float, a string and a bool read once as degrees 2, 3 and 1, and
# truncated(-1) built a series whose header from_text refuses
@pytest.mark.parametrize("degree", [-1, 2.5, 2.7, "3", True, False, None],
                         ids=("negative", "half", "float", "str", "true", "false", "none"))
def test_a_degree_that_is_not_a_nonnegative_int_is_refused(degree):
    message = re.escape(f"degree must be a nonnegative int, got {degree!r}")
    with pytest.raises(ValueError, match=message):
        GradedSeries(HEIS, degree, {X: Fraction(1, 2)}, QQ)
    f = GradedSeries(HEIS, 3, {HEIS.identity(): 1, X: Fraction(1, 2)}, QQ)
    with pytest.raises(ValueError, match=message):
        f.truncated(degree)
    assert f.truncated(0) == GradedSeries.one(HEIS, 0, QQ)


def _regrouped_heis_series():
    ident = HEIS.identity()
    return regroup(GradedSeries(HEIS, 3, {ident: 2, X: Fraction(1, 2),
                                          HeisenbergElement(1, 1, 1): -3}, QQ), "center")


@pytest.mark.parametrize("spec", ["Fp:5", "Qsqrt:2", "center"])
def test_cleared_is_the_series_itself_off_q(spec):
    if spec == "center":
        f = _regrouped_heis_series()
    else:
        f = random_series(HEIS, 3, scalars.field_from_spec(spec), random.Random(4), unit=True)
    assert len(f.terms) > 1 and f.field != QQ
    d, cleared = f.cleared()
    assert d == 1 and cleared is f


def test_cleared_over_q_takes_the_least_common_denominator():
    ident = HEIS.identity()
    xy = HeisenbergElement(1, 1, 0)
    f = GradedSeries(HEIS, 3, {ident: Fraction(2, 3), X: Fraction(-3, 4), Y: 5,
                               xy: Fraction(1, 6)}, QQ)
    d, cleared = f.cleared()
    assert d == 12
    assert list(cleared.terms.items()) == [(ident, 8), (X, -9), (Y, 60), (xy, 2)]
    assert all(type(c) is int for c in cleared.terms.values())
    assert cleared == f.scale(12)
    rng = random.Random(11)
    for _ in range(40):
        g = random_series(HEIS, 4, QQ, rng, unit=True)
        d, cleared = g.cleared()
        assert all(type(c) is int for c in cleared.terms.values())
        assert cleared == g.scale(d) and list(cleared.terms) == list(g.terms)
        # no proper divisor of d clears every coefficient
        assert all(any((c * (d // p)).denominator != 1 for c in g.terms.values())
                   for p in range(2, d + 1) if d % p == 0)


def test_cleared_over_q_keeps_an_integral_series():
    ident = HEIS.identity()
    f = GradedSeries(HEIS, 3, {ident: -2, X: Fraction(6, 3), Y: 7}, QQ)
    d, cleared = f.cleared()
    assert d == 1 and cleared.terms == f.terms == {ident: -2, X: 2, Y: 7}
    assert list(cleared.terms) == list(f.terms)


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
    rf = regroup(f, "center")
    assert set(rf.terms) == {Z2.element(1, 0), Z2.element(0, 0)}
    assert rf.terms[Z2.element(1, 0)].terms == {HEIS.identity(): Fraction(1)}
    assert rf.terms[Z2.element(0, 0)].terms == {z: Fraction(1)}
    assert flatten(rf) == f


def test_regroup_subgroup_supported_series():
    ring = SubgroupRing(HEIS, "G")
    z = HeisenbergElement(0, 0, 1)
    f = GradedSeries(ring, 0, {z: Fraction(2), HEIS.identity(): Fraction(3)}, QQ)
    rf = regroup(f, "center")
    assert list(rf.terms) == [Z2.element(0, 0)]
    assert rf.terms[Z2.element(0, 0)].terms == f.terms


def test_regroup_refuses_contexts_flatten_cannot_return_to():
    z = HeisenbergElement(0, 0, 1)
    with pytest.raises(ContextMismatchError):
        regroup(GradedSeries(SubgroupRing(HEIS, "center"), 0, {z: Fraction(1)}, QQ), "center")
    with pytest.raises(ValueError, match="unsupported quotient: z2 / center"):
        regroup(GradedSeries.one(Z2, 4, QQ), "center")
    with pytest.raises(ContextMismatchError):
        flatten(GradedSeries.one(HEIS, 4, QQ))


@pytest.mark.parametrize("group,tag", [(HEIS, "center"), (SemidirectGroup(), "base")],
                         ids=("heis", "bs12"))
def test_regroup_round_trip_random(group, tag):
    rng = random.Random(3)
    for _ in range(100):
        f = random_series(group, 4, QQ, rng)
        assert flatten(regroup(f, tag)) == f


def test_regroup_of_graded_series_keeps_quotient_grading():
    f = random_series(HEIS, 4, QQ, random.Random(5))
    rf = regroup(f, "center")
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
    # this seed draws the zero series over F_5: its text has no coefficient,
    # so its header names the field (test_zero_series_reads_back_over_its_field)
    zero = random_series(HEIS, 3, PrimeField(5), rng)
    assert not zero and to_text(zero) == "monoid=heis D=3 crossed=trivial field=Fp:5\n"
    assert from_text(to_text(zero), resolve_monoid, resolve_crossed) == zero
    f = random_series(HEIS, 3, PrimeField(5), rng, unit=True)
    assert f.coefficient(HEIS.identity())
    assert from_text(to_text(f), resolve_monoid, resolve_crossed) == f
    system = quadratic_conj_z(QuadraticField(2))
    g = random_series(LatticeGroup(1), 3, QuadraticField(2), rng, system=system, unit=True)
    assert g.coefficient(LatticeGroup(1).identity())
    parsed = from_text(to_text(g), resolve_monoid, resolve_crossed)
    assert parsed == g


@pytest.mark.parametrize("field", (PrimeField(5), QuadraticField(2)))
def test_zero_series_reads_back_over_its_field(field):
    # a series with no coefficient names its field in the header, and the
    # text reads back to the same series, byte for byte
    zero = GradedSeries(HEIS, 3, {}, field)
    text = to_text(zero)
    assert text == f"monoid=heis D=3 crossed=trivial field={field.name}\n"
    parsed = from_text(text, resolve_monoid, resolve_crossed)
    assert parsed == zero and parsed.field == field and not parsed
    assert to_text(parsed) == text


# (case, refused text, the canonical text it departs from or None when the
# text has no canonical neighbour); a file is accepted only as the exact bytes
# to_text writes, so every spelling other than the canonical one is refused
NON_CANONICAL_TEXTS = (
    ("order", "monoid=heis D=2 crossed=trivial\n1\tH(1,0,0)\t1\n0\tH(0,0,0)\t1\n",
     "monoid=heis D=2 crossed=trivial\n0\tH(0,0,0)\t1\n1\tH(1,0,0)\t1\n"),
    ("weight", "monoid=heis D=2 crossed=trivial\n2\tH(1,0,0)\t1\n",
     "monoid=heis D=2 crossed=trivial\n1\tH(1,0,0)\t1\n"),
    ("header", "monoid heis D=2\n", None),
    ("zero", "monoid=heis D=2 crossed=trivial\n0\tH(0,0,0)\t0\n",
     "monoid=heis D=2 crossed=trivial\n"),
    ("duplicate", "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n0\tZ(0)\t1\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n"),
    ("mixed-fields", "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n1\tZ(1)\t1+1*sqrt(2)\n", None),
    ("element-z", "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n1\tZ(01)\t2\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n1\tZ(1)\t2\n"),
    ("element-bs12", "monoid=bs12 D=4 crossed=trivial\n1\tB(0/2,1)@r=2/1\t1\n",
     "monoid=bs12 D=4 crossed=trivial\n1\tB(0/1,1)@r=2/1\t1\n"),
    ("element-bs12-no-ratio", "monoid=bs12 D=4 crossed=trivial\n1\tB(0/1,1)\t1\n",
     "monoid=bs12 D=4 crossed=trivial\n1\tB(0/1,1)@r=2/1\t1\n"),
    ("coefficient-Q", "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n1\tZ(1)\t2/4\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n1\tZ(1)\t1/2\n"),
    ("coefficient-Fp", "monoid=z D=4 crossed=trivial\n0\tZ(0)\t7 mod 5\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t2 mod 5\n"),
    ("coefficient-Qsqrt", "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1/1+2*sqrt(2)\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1+2*sqrt(2)\n"),
    ("header-degree", "monoid=z D=06 crossed=trivial\n0\tZ(0)\t1\n",
     "monoid=z D=6 crossed=trivial\n0\tZ(0)\t1\n"),
    ("header-monoid", "monoid=free:03 D=2 crossed=trivial\n0\t1\t1\n",
     "monoid=free:3 D=2 crossed=trivial\n0\t1\t1\n"),
    ("header-trailing-spaces", "monoid=z D=4 crossed=trivial  \n0\tZ(0)\t1\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n"),
    ("blank-line", "monoid=z D=4 crossed=trivial\n\n0\tZ(0)\t1\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n"),
    ("no-final-newline", "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n"),
    ("crlf", "monoid=z D=4 crossed=trivial\r\n0\tZ(0)\t1\r\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1\n"),
    ("field-Q", "monoid=z D=4 crossed=trivial field=Q\n", "monoid=z D=4 crossed=trivial\n"),
    ("field-nonzero", "monoid=z D=4 crossed=trivial field=Fp:5\n0\tZ(0)\t1 mod 5\n",
     "monoid=z D=4 crossed=trivial\n0\tZ(0)\t1 mod 5\n"),
    ("field-spelling", "monoid=z D=4 crossed=trivial field=Fp:05\n",
     "monoid=z D=4 crossed=trivial field=Fp:5\n"),
    ("field-unknown", "monoid=z D=4 crossed=trivial field=R\n", None),
)


@pytest.mark.parametrize("text,canonical", [case[1:] for case in NON_CANONICAL_TEXTS],
                         ids=[case[0] for case in NON_CANONICAL_TEXTS])
def test_text_rejects_non_canonical_input(text, canonical):
    with pytest.raises(ValueError):
        from_text(text, resolve_monoid, resolve_crossed)
    if canonical is not None:
        assert to_text(from_text(canonical, resolve_monoid, resolve_crossed)) == canonical


@pytest.mark.parametrize("spec,texts", [
    ("Q", ("1/2", "-1", "1/2", "2/3", "-1", "1/2", "7")),
    ("Fp:5", ("2 mod 5", "4 mod 5", "2 mod 5", "1 mod 5", "4 mod 5", "2 mod 5")),
    ("Qsqrt:2", ("1+1*sqrt(2)", "-1/2+0*sqrt(2)", "1+1*sqrt(2)", "0+3*sqrt(2)", "-1/2+0*sqrt(2)")),
], ids=("Q", "Fp5", "Qsqrt2"))
def test_text_with_repeated_coefficients_reads_term_by_term(spec, texts):
    # each distinct coefficient text is parsed once and its value shared:
    # the series read is the one built from field.parse on every line
    field = scalars.field_from_spec(spec)
    elements = [Z2.element(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    expected = GradedSeries(resolve_monoid("z2"), 4,
                            {g: field.parse(text) for g, text in zip(elements, texts)}, field)
    text = to_text(expected)
    assert sorted(line.split("\t")[2] for line in text.splitlines()[1:]) == sorted(texts)
    got = from_text(text, resolve_monoid, resolve_crossed)
    assert got == expected
    typed = lambda f: {g: (type(c), c) for g, c in f.terms.items()}
    assert typed(got) == typed(expected)


def test_text_refusal_names_the_first_differing_line():
    header = "monoid=z D=4 crossed=trivial\n"
    with pytest.raises(ValueError, match=r"line 3 reads '1\\tZ\(01\)\\t2/4\\n' where "
                                         r"the canonical line is '1\\tZ\(1\)\\t1/2\\n'$"):
        from_text(header + "0\tZ(0)\t1\n1\tZ(01)\t2/4\n", resolve_monoid, resolve_crossed)
    with pytest.raises(ValueError, match=r"line 3 is extra: '1\\tZ\(1\)\\t0\\n'$"):
        from_text(header + "0\tZ(0)\t1\n1\tZ(1)\t0\n", resolve_monoid, resolve_crossed)
    # parsing makes a line of every line it reads, so only the helper can
    # meet a text shorter than its canonical form
    assert _first_difference(header, header + "0\tZ(0)\t1\n") == (
        "line 2 is missing; the canonical line is '0\\tZ(0)\\t1\\n'")


GRADED_IDS = ["bs12", "heis", "wreath", "free:2", "free:3", "z2", "z"]


@pytest.mark.parametrize("ctx", [*map(resolve_monoid, GRADED_IDS), SubgroupRing(HEIS, "center")],
                         ids=[*GRADED_IDS, "ring:heis:center"])
def test_grade_is_the_weight_and_additive(ctx):
    # grade skips the membership check weight makes, and nothing else
    rng = random.Random(f"grade:{ctx.id}")
    for _ in range(40):
        if ctx.graded:
            g, h = (sample_monoid_element(ctx, rng, 6) for _ in range(2))
        else:
            g, h = (ctx.group.sample_subgroup(ctx.subgroup_tag, rng) for _ in range(2))
        assert ctx.grade(g) == ctx.weight(g)
        assert ctx.grade(ctx.multiply(g, h)) == ctx.grade(g) + ctx.grade(h)
    assert ctx.grade(ctx.identity()) == 0


def test_weights_are_private_to_the_series_module():
    # every series built outside series.py goes through validation
    with pytest.raises(TypeError):
        GradedSeries(HEIS, 2, {}, QQ, **{"weights": {}})
    with pytest.raises(TypeError):
        GradedSeries(HEIS, 2, {}, QQ, None, {})


def test_series_file_builds_its_field_once(monkeypatch):
    # the first coefficient's text names the field, which is built once and
    # parses every row, so the square-free test runs once per file
    field = QuadraticField(2)
    z = LatticeGroup(1)
    texts = [to_text(GradedSeries(z, 29, {z.element(j): field.from_parts(j + 1, 1)
                                          for j in range(rows)}, field))
             for rows in (3, 30)]
    calls = []
    is_square_free = scalars.is_square_free
    monkeypatch.setattr(scalars, "is_square_free", lambda m: calls.append(m) or is_square_free(m))
    counts = []
    for text in texts:
        calls.clear()
        assert to_text(from_text(text, resolve_monoid, resolve_crossed)) == text
        counts.append(len(calls))
    assert counts == [1, 1], counts


def _contract_series():
    """Pairs of equal series built two ways: over Q (ints against Fractions,
    terms in another order), over F_5, over Q(sqrt 2) and regrouped along the
    centre of heis, with N-series coefficients."""
    f5, q2 = PrimeField(5), QuadraticField(2)
    ident = HEIS.identity()
    rational = {ident: 1, X: Fraction(1, 2), Y: -3}
    fractions = {Y: Fraction(-3), X: Fraction(2, 4), ident: Fraction(1)}
    pairs = [(GradedSeries(HEIS, 3, rational, QQ), GradedSeries(HEIS, 3, fractions, QQ)),
             (GradedSeries(Z2, 4, {Z2.element(1, 0): f5.from_int(2), Z2.element(0, 2): f5.one},
                           f5, z2_sign_twist(f5)),
              mono(Z2, 4, Z2.element(0, 2), f5.from_int(6), f5, z2_sign_twist(f5))
              + mono(Z2, 4, Z2.element(1, 0), f5.from_int(-3), f5, z2_sign_twist(f5))),
             (GradedSeries(HEIS, 2, {X: q2.sqrt, ident: q2.one}, q2),
              mono(HEIS, 2, ident, q2.one, q2) + mono(HEIS, 2, X, q2.sqrt, q2))]
    pairs.append(tuple(regroup(f, "center") for f in pairs[0]))
    return pairs


def test_series_are_tuple_values_equal_and_hashed_by_their_terms():
    for first, second in _contract_series():
        assert isinstance(first, TupleValue) and first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second) and len({first, second}) == 1
        assert first != -first and first != first.truncated(first.degree - 1)
        # never equal to a plain tuple, in either order
        assert first != tuple(first) and tuple(first) != first
        assert not first == tuple(first) and not tuple(first) == first


def test_series_copies_and_pickles_rebuild_through_validation():
    for series in [first for first, _ in _contract_series()]:
        clones = [copy.copy(series), copy.deepcopy(series)]
        if series.system is None:
            # crossed systems hold functions, so only a series over the
            # trivial system pickles
            clones.append(pickle.loads(pickle.dumps(series)))
        for clone in clones:
            assert type(clone) is GradedSeries and clone == series
            assert tuple(clone) == tuple(series)
            assert hash(clone) == hash(series) and to_text(clone) == to_text(series)
        # copies call the constructor on the five fields, so they validate
        # every term again
        assert series.__getnewargs__() == (series.context, series.degree, series.terms,
                                           series.field, series.system)


def test_identity_compared_objects_copy_as_themselves():
    # a twisted series and a regrouped one: their systems and the regrouped
    # series' coefficient ring compare by identity, so a deep copy of the
    # series keeps them and stays equal
    twisted, regrouped = _contract_series()[1][0], _contract_series()[3][0]
    system = regrouped.system
    for thing in (twisted.system, system, system.base, system.field):
        assert copy.copy(thing) is thing and copy.deepcopy(thing) is thing
    for series in (twisted, regrouped):
        clone = copy.deepcopy(series)
        assert clone == series and clone.system is series.system
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(series)


def test_series_fields_are_read_only_and_true_when_it_has_a_term():
    series = _contract_series()[0][0]
    for name in [*GradedSeries._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(series, name, 0)
        with pytest.raises(AttributeError):
            delattr(series, name)
    assert series and GradedSeries.one(HEIS, 0, QQ)
    assert not GradedSeries.zero(HEIS, 3, QQ)
    assert not GradedSeries(HEIS, 3, {X: 0, Y: Fraction(0)}, QQ)
    assert not series - series
