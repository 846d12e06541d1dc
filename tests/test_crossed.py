import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import mnseries
from helpers import corrupt_twist, random_series, reference_check_crossed_system
from mnseries import crossed, registry
from mnseries.crossed import (
    CrossedSystem,
    augment_coefficients,
    change_basis,
    check_crossed_system,
    check_morphism_extension,
    diagonal_change,
    flatten,
    good_preimage,
    project_series,
    quadratic_conj_z,
    quotient_system,
    regroup,
    term_inverse,
    term_product,
    trivial_system,
    z2_sign_twist,
)
from mnseries.groups import (
    Heisenberg,
    HeisenbergElement,
    LatticeGroup,
    SemidirectGroup,
    WreathGroup,
)
from mnseries.report import InvariantError
from mnseries.scalars import QQ, QuadraticField, field_from_spec
from mnseries.series import (ContextMismatchError, GradedSeries, NoTruncatedInverseError, from_text,
                             to_text)

HEIS = Heisenberg()
Z2 = LatticeGroup(2)
Z1 = LatticeGroup(1)

BUILTIN_SYSTEMS = [
    trivial_system(HEIS, QQ),
    trivial_system(SemidirectGroup(), QQ),
    trivial_system(WreathGroup(), QQ),
    trivial_system(Z2, QQ),
    trivial_system(Z1, QQ),
    z2_sign_twist(QQ),
    quadratic_conj_z(QuadraticField(2)),
]


@pytest.mark.parametrize("system", BUILTIN_SYSTEMS, ids=lambda s: f"{s.id}@{s.group.id}")
def test_builtin_systems_valid(system):
    report = check_crossed_system(system, sample_count=150, seed=1)
    assert report.verified, report.witness


def test_corrupted_twist_caught():
    base = z2_sign_twist(QQ)
    bad = corrupt_twist(base, (Z2.element(1, 1), Z2.element(1, 0)), Fraction(2))
    report = check_crossed_system(bad, sample_count=300, seed=1)
    assert not report.verified
    assert report.witness["identity"] in ("cocycle", "action")


@pytest.mark.parametrize("field", (QQ, field_from_spec("Fp:5")), ids=lambda f: f.name)
def test_zero_twist_is_the_pairs_violation(field):
    # a twist is a unit: a zero twist at the first panel pair is that pair's
    # counterexample, found before the twist is inverted, with one case checked
    panel = Z1.panel_elements()
    bad = corrupt_twist(trivial_system(Z1, field), (panel[0], panel[0]), field.zero)
    report = check_crossed_system(bad)
    assert report.verdict == "counterexample" and report.exit_code == 2
    assert report.witness == {"identity": "nonzero-twist", "x": "Z(-2)", "y": "Z(-2)"}
    assert report.details == {"checked": 1}
    # at a sampled pair after the panel, with every panel case checked
    rng = random.Random(3)
    x, y = Z1.sample_element(rng), Z1.sample_element(rng)
    report = check_crossed_system(corrupt_twist(trivial_system(Z1, field), (x, y), field.zero), 1, 3)
    assert report.witness == {"identity": "nonzero-twist", "x": Z1.format_element(x),
                              "y": Z1.format_element(y)}
    assert report.details == {"checked": len(panel) ** 2 * (len(panel) + 1) + 1}


def test_nonunit_twist_is_the_pairs_violation():
    # over a quotient system the coefficients are N-series, whose units are
    # the single terms: a nonzero two-term twist at the first panel pair is
    # no unit, so it is that pair's counterexample, not an inversion error
    system = quotient_system(Heisenberg(), "center")
    p = system.group.panel_elements()[0]
    nonunit = system.field.panel()[-2]
    assert len(nonunit.terms) == 2
    with pytest.raises(NoTruncatedInverseError):
        system.field.inv(nonunit)
    bad = corrupt_twist(system, (p, p), nonunit)
    report = check_crossed_system(bad, 5)
    assert report.verdict == "counterexample" and report.exit_code == 2
    assert report.witness == {"identity": "nonzero-twist", "x": "Z2(-1,-1)", "y": "Z2(-1,-1)"}
    assert report.details == {"checked": 1}
    assert reference_check_crossed_system(bad, 5) == report


@pytest.mark.parametrize("zeroed,x,y,checked", [
    # the normalization twist(Z(0), Z(-2)) of the first case
    (-2, "Z(0)", "Z(-2)", 1),
    # the first case's own twist, before its pair is checked
    (-4, "Z(-2)", "Z(-2)", 0),
    # the twist(y, z) of the first case's second triple
    (-3, "Z(-2)", "Z(-1)", 2),
    # the twist(xy, z) of the first case's first triple
    (-6, "Z(-4)", "Z(-2)", 2),
])
def test_twist_that_raises_is_the_pairs_violation(zeroed, x, y, checked):
    # diagonal_change inverts d(xy) inside its twist, so with d zero at one
    # element the first twist asked for at a pair with product there raises:
    # that pair is the witness, whichever identity asked, not the error
    z = Z1.element(zeroed)
    d = lambda g: QQ.zero if g == z else QQ.one
    bad = diagonal_change(trivial_system(Z1, QQ), d)
    report = check_crossed_system(bad, 5)
    assert report.verdict == "counterexample" and report.exit_code == 2
    assert report.witness == {"identity": "nonzero-twist", "x": x, "y": y}
    assert report.details == {"checked": checked}
    assert reference_check_crossed_system(bad, 5) == report


def test_negative_sample_count_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        check_crossed_system(z2_sign_twist(QQ), sample_count=-3)


def test_crossed_report_fields():
    report = check_crossed_system(z2_sign_twist(QQ), sample_count=10, seed=1)
    assert (report.kind, report.bounds, report.witness) == ("crossed-validity", {"samples": 10}, None)
    assert report.exit_code == 0 and report.details["checked"] > 10


def test_diagonal_change_identity_map_is_noop():
    system = z2_sign_twist(QQ)
    changed = diagonal_change(system, lambda g: Fraction(1))
    rng = random.Random(0)
    for _ in range(100):
        g = Z2.sample_element(rng)
        h = Z2.sample_element(rng)
        assert changed.twist(g, h) == system.twist(g, h)


def test_diagonal_change_requires_unit_at_identity():
    with pytest.raises(ValueError):
        diagonal_change(z2_sign_twist(QQ), lambda g: Fraction(2))


DIAGONALS = [
    lambda g: Fraction(1),
    lambda g: Fraction(-1) if (g.coords[0] * g.coords[1]) % 2 else Fraction(1),
    lambda g: Fraction(-1) if g.coords[0] % 2 else Fraction(1),
    lambda g: Fraction(2) ** (g.coords[0] % 3),
    lambda g: Fraction(1, 3) if (g.coords[0] + g.coords[1]) % 2 else Fraction(1),
]


@pytest.mark.parametrize("idx", range(len(DIAGONALS)))
def test_diagonal_change_outputs_valid(idx):
    system = z2_sign_twist(QQ)
    changed = diagonal_change(system, DIAGONALS[idx])
    report = check_crossed_system(changed, sample_count=150, seed=2)
    assert report.verified, report.witness


def test_diagonal_change_changes_the_twist_but_stays_valid():
    system = z2_sign_twist(QQ)
    d = DIAGONALS[1]
    changed = diagonal_change(system, d)
    differs = any(
        changed.twist(g, h) != system.twist(g, h)
        for g in Z2.panel_elements()
        for h in Z2.panel_elements()
    )
    assert differs
    assert check_crossed_system(changed, 100, seed=3).verified


def test_diagonal_change_basis_substitution_agreement():
    # multiplying in the new basis then translating back agrees with the old product
    system = z2_sign_twist(QQ)
    rng = random.Random(4)
    for d in DIAGONALS:
        changed = diagonal_change(system, d)
        for _ in range(25):
            f = random_series(Z2, 4, QQ, rng, system=system)
            g = random_series(Z2, 4, QQ, rng, system=system)
            lhs = change_basis(f * g, changed, d)
            rhs = change_basis(f, changed, d) * change_basis(g, changed, d)
            assert lhs == rhs


def test_single_term_inverse():
    system = z2_sign_twist(QQ)
    rng = random.Random(5)
    for _ in range(100):
        g = Z2.sample_element(rng)
        c = QQ.sample_nonzero(rng)
        ginv, cinv = term_inverse(system, g, c)
        prod_elt, prod_coeff = term_product(system, g, c, ginv, cinv)
        assert prod_elt == Z2.identity() and prod_coeff == Fraction(1)
        prod_elt, prod_coeff = term_product(system, ginv, cinv, g, c)
        assert prod_elt == Z2.identity() and prod_coeff == Fraction(1)


def test_heisenberg_quotient_twist_exhaustive_panel():
    qs = quotient_system(HEIS, "center")
    for a1 in range(-3, 4):
        for b1 in range(-3, 4):
            for a2 in range(-3, 4):
                for b2 in range(-3, 4):
                    alpha = Z2.element(a1, b1)
                    beta = Z2.element(a2, b2)
                    tw = qs.twist(alpha, beta)
                    assert tw.terms == {HeisenbergElement(0, 0, a1 * b2): Fraction(1)}


def test_quotient_twist_normalized_at_identity_coset():
    qs = quotient_system(HEIS, "center")
    ident = Z2.identity()
    one = {HEIS.identity(): Fraction(1)}
    for coset in (Z2.element(2, -1), Z2.element(0, 3), ident):
        assert qs.twist(ident, coset).terms == one
        assert qs.twist(coset, ident).terms == one


def test_group_ring_quotient_twist_is_the_correction_element():
    qs = quotient_system(HEIS, "center")
    alpha = Z2.element(2, 1)
    beta = Z2.element(1, 3)
    n = qs.correction(alpha, beta)
    assert n == HeisenbergElement(0, 0, 2 * 3)
    assert qs.twist(alpha, beta).terms == {n: Fraction(1)}


def test_quotient_system_decomposition():
    qs = quotient_system(HEIS, "center")
    rng = random.Random(10)
    for _ in range(100):
        g = HEIS.sample_element(rng)
        rep, n = qs.subgroup_part(g)
        assert rep == qs.representative(qs.project(g))
        assert HEIS.multiply(rep, n) == g
    assert qs.representative(qs.group.identity()) == HEIS.identity()
    bs = quotient_system(SemidirectGroup(), "base")
    assert bs.representative(bs.group.identity()) == SemidirectGroup().identity()
    with pytest.raises(ValueError, match="unsupported quotient: heis / a=0"):
        quotient_system(HEIS, "a=0")
    with pytest.raises(ValueError, match="unsupported quotient: z2 / center"):
        regroup(GradedSeries.one(Z2, 2, QQ), "center")
    with pytest.raises(ContextMismatchError):
        quotient_system(HEIS, "center", base=trivial_system(Z2, QQ))


# A transversal fault, each coset's representative moved off its coset by y,
# as source text so that a subprocess can run it too.
SHIFTED_REPRESENTATIVE = """
from mnseries.groups import HeisenbergElement

def shifted_representative(q):
    return HeisenbergElement(q.coords[0], q.coords[1] + 1, 0)
"""


def test_a_transversal_off_its_coset_is_an_invariant_failure(monkeypatch):
    namespace = {}
    exec(SHIFTED_REPRESENTATIVE, namespace)
    # monkeypatch puts the cached system's own representative back afterwards
    monkeypatch.setattr(quotient_system(HEIS, "center"), "representative",
                        namespace["shifted_representative"])
    with pytest.raises(InvariantError, match="transversal decomposition left the subgroup"):
        regroup(GradedSeries.one(HEIS, 2, QQ), "center")


def test_transversal_recheck_runs_in_optimized_mode():
    script = SHIFTED_REPRESENTATIVE + (
        "from mnseries.crossed import quotient_system, regroup\n"
        "from mnseries.groups import Heisenberg\n"
        "from mnseries.report import InvariantError\n"
        "from mnseries.scalars import QQ\n"
        "from mnseries.series import GradedSeries\n"
        "quotient_system(Heisenberg(), 'center').representative = shifted_representative\n"
        "try:\n"
        "    regroup(GradedSeries.one(Heisenberg(), 2, QQ), 'center')\n"
        "except InvariantError as error:\n"
        "    print(error)\n"
        "    raise SystemExit(70)\n")
    src = os.path.dirname(os.path.dirname(mnseries.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=False)
    assert (proc.returncode, proc.stdout) == (70, "transversal decomposition left the subgroup\n"), \
        proc.stderr


def test_conjugated_support_off_the_subgroup_is_an_invariant_failure(monkeypatch):
    # a crossed-ring term product that moves each element by y takes the
    # conjugate of a central term out of the center
    product = crossed.term_product
    y = HEIS.monoid_generators()[1]

    def shifted(system, g, a, h, b):
        x, c = product(system, g, a, h, b)
        return x * y, c

    monkeypatch.setattr(crossed, "term_product", shifted)
    qs = quotient_system(HEIS, "center")
    f = GradedSeries(qs.subring, 0, {HeisenbergElement(0, 0, 1): Fraction(3)}, QQ, qs.base)
    with pytest.raises(InvariantError, match="conjugated support left the subgroup"):
        qs.action(Z2.element(1, 0), f)


def test_quotient_action_by_conjugation():
    qs = quotient_system(HEIS, "center")
    z = HeisenbergElement(0, 0, 1)
    f = GradedSeries(qs.subring, 0, {z: Fraction(3)}, QQ, qs.base)
    moved = qs.action(Z2.element(1, 0), f)
    assert moved.terms == {z: Fraction(3)}  # the center is fixed by conjugation


@pytest.mark.parametrize(
    "group,tag",
    [(HEIS, "center"), (SemidirectGroup(), "base")],
    ids=("heis-center", "bs12-base"),
)
def test_regroup_is_multiplicative_under_quotient_system(group, tag):
    qs = quotient_system(group, tag)
    rng = random.Random(6)
    for _ in range(100):
        f = random_series(group, 4, QQ, rng)
        g = random_series(group, 4, QQ, rng)
        lhs = regroup(f * g, tag)
        rhs = regroup(f, tag) * regroup(g, tag)
        assert rhs.system == qs
        assert lhs == rhs
        assert flatten(rhs) == f * g


@pytest.mark.parametrize(
    "group,tag",
    [(HEIS, "center"), (SemidirectGroup(), "base")],
    ids=("heis-center", "bs12-base"),
)
def test_regrouped_multiplication_is_associative(group, tag):
    # associativity of the induced product is the series-level statement of
    # the quotient system's validity identities
    qs = quotient_system(group, tag)
    rng = random.Random(13)
    for _ in range(40):
        a = regroup(random_series(group, 4, QQ, rng), tag)
        b = regroup(random_series(group, 4, QQ, rng), tag)
        c = regroup(random_series(group, 4, QQ, rng), tag)
        assert a.system == qs
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_regroup_is_additive(subtests=None):
    rng = random.Random(7)
    for _ in range(50):
        f = random_series(HEIS, 4, QQ, rng)
        g = random_series(HEIS, 4, QQ, rng)
        summed = regroup(f, "center").terms
        for q, s in regroup(g, "center").terms.items():
            summed[q] = summed.get(q, s - s) + s
        summed = {q: s for q, s in summed.items() if s}
        assert summed == regroup(f + g, "center").terms


def test_good_preimage_lift_and_projection():
    A = GradedSeries(Z2, 4, {Z2.identity(): Fraction(1), Z2.element(1, 0): Fraction(1)}, QQ)
    lifted = good_preimage(A, HEIS, "center")
    assert lifted.terms == {HEIS.identity(): Fraction(1), HeisenbergElement(1, 0, 0): Fraction(1)}
    assert project_series(lifted, "center") == A


def test_good_preimage_random_round_trip_and_invertibility():
    rng = random.Random(8)
    one = GradedSeries.one(HEIS, 4, QQ)
    for _ in range(100):
        A = random_series(Z2, 4, QQ, rng, unit=True)
        lifted = good_preimage(A, HEIS, "center")
        assert project_series(lifted, "center") == A
        inv = lifted.invert()
        assert lifted * inv == one


def test_good_preimage_multiplicativity_through_projection():
    rng = random.Random(9)
    for _ in range(100):
        A = random_series(Z2, 4, QQ, rng)
        B = random_series(Z2, 4, QQ, rng)
        lhs = project_series(good_preimage(A, HEIS, "center") * good_preimage(B, HEIS, "center"),
                             "center")
        assert lhs == A * B


def test_morphism_extension_augmentation_holds():
    source = quotient_system(HEIS, "center")
    target = trivial_system(Z2, QQ)

    def phi(coeff):
        total = QQ.zero
        for value in coeff.terms.values():
            total = total + value
        return total

    report = check_morphism_extension(
        phi, lambda q: q, source, target, samples=80, seed=1,
        series_map=augment_coefficients,
    )
    assert report.verified, report.witness
    assert report.details["multiplicative_pairs"] > 0


def test_morphism_extension_identity_holds():
    system = z2_sign_twist(QQ)
    report = check_morphism_extension(lambda r: r, lambda g: g, system, system, samples=60, seed=2)
    assert report.verified


def test_morphism_extension_rejects_negative_samples():
    system = z2_sign_twist(QQ)
    with pytest.raises(ValueError, match="must be nonnegative"):
        check_morphism_extension(lambda r: r, lambda g: g, system, system, samples=-4)


def test_morphism_extension_detects_action_violation():
    # conjugation does not intertwine the quadratic action with the trivial one
    source = quadratic_conj_z(QuadraticField(2))
    target = trivial_system(Z1, QuadraticField(2))
    phi = lambda r: r.conjugate()
    report = check_morphism_extension(phi, lambda g: g, source, target, samples=100, seed=3)
    assert not report.verified
    assert report.witness["condition"] == "action-compatibility"


# non-constant diagonal changes: twisted base systems whose twist moves the
# subgroup part, so regroup, flatten and the quotient twist all rescale
TWISTED_BASES = [
    (HEIS, "center", lambda g: Fraction(2) ** ((g.a * g.c) % 3) * Fraction(3) ** ((g.a * g.b) % 2)),
    (SemidirectGroup(), "base", lambda g: Fraction(3) ** (g.n % 2) * (-1) ** (g.h.numerator % 2)),
]


@pytest.mark.parametrize("group,tag,d", TWISTED_BASES, ids=("heis-center", "bs12-base"))
def test_regroup_under_a_twisted_base_system(group, tag, d):
    base = diagonal_change(trivial_system(group, QQ), d)
    qs = quotient_system(group, tag, base=base)
    panel = group.panel_elements()
    assert any(base.twist(*qs.subgroup_part(x)) != 1 for x in panel)
    assert any(qs.twist(qs.project(x), qs.project(y)).terms != {qs.correction(qs.project(x), qs.project(y)): 1}
               for x in panel for y in panel)
    rng = random.Random(14)
    for _ in range(60):
        f, g, h = (random_series(group, 4, QQ, rng, system=base) for _ in range(3))
        a, b, c = (regroup(s, tag) for s in (f, g, h))
        assert a.system == qs
        assert flatten(a) == f
        assert a * b == regroup(f * g, tag)
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("group,tag,d", TWISTED_BASES, ids=("heis-center", "bs12-base"))
@pytest.mark.parametrize("twisted", (False, True), ids=("trivial-base", "diagonal-base"))
def test_trusted_series_match_the_validating_constructor(group, tag, d, twisted):
    # series from the constructors, the crossed builders and the trusted
    # arithmetic, rebuilt from their terms by the validating constructor, are
    # the same series
    base = diagonal_change(trivial_system(group, QQ), d) if twisted else trivial_system(group, QQ)
    qs = quotient_system(group, tag, base=base)
    ring = qs.field
    quotient_panel = qs.group.panel_elements()
    built = [GradedSeries.zero(group, 4, QQ, base), GradedSeries.one(group, 4, QQ, base),
             GradedSeries(group, 4, {group.identity(): Fraction(-2, 3)}, QQ, base),
             GradedSeries(group, 4, {group.identity(): 0}, QQ, base), ring.zero, ring.one]
    built += [qs.twist(alpha, beta) for alpha in quotient_panel for beta in quotient_panel]
    for value in ring.panel():
        built += [qs.action(gamma, value) for gamma in quotient_panel]
        if len(value.terms) == 1:
            built.append(ring.inv(value))
    rng = random.Random(16)
    for _ in range(10):
        f = random_series(group, 4, QQ, rng, system=base, unit=True)
        r = regroup(f, tag)
        built += [change_basis(f, diagonal_change(base, d), d), r, *r.terms.values(),
                  augment_coefficients(r), f * f, f.invert(), f.truncated(2), r * r,
                  r.invert(), -r, r + r, f.scale(Fraction(1, 2))]
    for f in built:
        rebuilt = GradedSeries(f.context, f.degree, dict(f.terms), f.field, f.system)
        assert rebuilt == f, f


def _heis_unit():
    x, y = HEIS.monoid_generators()[:2]
    return GradedSeries(HEIS, 4, {HEIS.identity(): 1, x: 2, y: Fraction(-1, 3)}, QQ)


def test_regrouped_series_inverts_through_its_identity_term():
    f = _heis_unit()
    r = regroup(f, "center")
    one = regroup(GradedSeries.one(HEIS, 4, QQ), "center")
    assert one.invert() == one
    inverse = r.invert()
    assert r * inverse == one and inverse * r == one
    assert flatten(inverse) == f.invert()


@pytest.mark.parametrize("group,tag,d", TWISTED_BASES, ids=("heis-center", "bs12-base"))
def test_regrouped_series_inverts_under_a_twisted_base(group, tag, d):
    base = diagonal_change(trivial_system(group, QQ), d)
    rng = random.Random(15)
    for _ in range(10):
        f = random_series(group, 4, QQ, rng, system=base)
        f = f + GradedSeries(group, 4, {group.identity(): 1 - f.identity_coefficient()}, QQ, base)
        r = regroup(f, tag)
        inverse = r.invert()
        one = GradedSeries.one(r.context, 4, r.field, r.system)
        assert r * inverse == one and inverse * r == one
        assert flatten(inverse) == f.invert()


def test_only_single_term_n_series_invert():
    qs = quotient_system(HEIS, "center")
    ring = qs.field
    z = HeisenbergElement(0, 0, 1)
    single = GradedSeries(qs.subring, 0, {z: Fraction(-2, 3)}, QQ)
    assert ring.inv(single) * single == ring.one == single * ring.inv(single)
    two_terms = ring.one + GradedSeries(qs.subring, 0, {z: 1}, QQ)
    with pytest.raises(NoTruncatedInverseError):
        ring.inv(two_terms)
    with pytest.raises(NoTruncatedInverseError):
        ring.inv(ring.zero)
    # a quotient series whose identity coefficient is such a sum has no
    # truncated inverse: K[N] of an ordered group has only trivial units
    quotient = qs.group
    f = GradedSeries(quotient, 4, {quotient.identity(): two_terms}, ring, qs)
    with pytest.raises(NoTruncatedInverseError):
        f.invert()


@pytest.mark.parametrize("group,tag,d", TWISTED_BASES, ids=("heis-center", "bs12-base"))
@pytest.mark.parametrize("twisted", (False, True), ids=("trivial-base", "diagonal-base"))
def test_check_crossed_system_validates_quotient_systems(group, tag, d, twisted):
    base = diagonal_change(trivial_system(group, QQ), d) if twisted else None
    qs = quotient_system(group, tag, base=base)
    panel = qs.field.panel()
    assert panel[:2] == (qs.field.zero, qs.field.one)
    assert len(set(panel)) == len(panel) and all(qs.field.contains(x) for x in panel)
    report = check_crossed_system(qs, 10)
    assert report.verified, report.witness
    panel_size = len(qs.group.panel_elements())
    assert report.details["checked"] == panel_size ** 2 + panel_size ** 3 + 20


# ---------------------------------------------------------------------------
# systems compare by identity


def test_cached_constructors_give_one_object_per_arguments():
    assert trivial_system(HEIS, QQ) is trivial_system(Heisenberg(), QQ) is registry.trivial_on("heis")
    assert registry.trivial_on("z2") is trivial_system(Z2, field_from_spec("Q"))
    z2 = z2_sign_twist(QQ)
    assert z2 is registry.builtin_system("z2-sign-twist")
    assert z2 is registry.resolve_crossed("z2-sign-twist", QQ)
    conj = quadratic_conj_z(QuadraticField(2))
    assert conj is registry.builtin_system("quadratic-conj-Z")
    assert conj is registry.resolve_crossed("quadratic-conj-Z", field_from_spec("Qsqrt:2"))
    for group, tag in ((HEIS, "center"), (SemidirectGroup(), "base")):
        qs = quotient_system(group, tag)
        assert isinstance(qs, CrossedSystem) and qs is quotient_system(type(group)(), tag)
        assert qs is quotient_system(group, tag, trivial_system(group, QQ))
        assert regroup(GradedSeries.one(group, 2, QQ), tag).system is qs
    # keyword spellings would be separate cache entries, so the cached calls
    # refuse them; quotient_system makes its one cached call positionally
    with pytest.raises(TypeError):
        z2_sign_twist(field=QQ)
    assert quotient_system(HEIS, subgroup_tag="center") is quotient_system(HEIS, "center")


def test_two_parses_of_one_twisted_file_share_the_system():
    text = "monoid=z2 D=3 crossed=z2-sign-twist\n0\tZ2(0,0)\t1\n1\tZ2(0,1)\t2\n1\tZ2(1,0)\t-1/2\n"
    f = from_text(text, registry.resolve_monoid, registry.resolve_crossed)
    g = from_text(text, registry.resolve_monoid, registry.resolve_crossed)
    assert f.system is g.system is z2_sign_twist(QQ)
    assert f == g and to_text(f) == text
    h = GradedSeries(Z2, 3, dict(f.terms), QQ, z2_sign_twist(QQ))
    assert f * g == h * h and f + g == h + h


def _derived_systems():
    base = z2_sign_twist(QQ)
    return (diagonal_change(base, lambda g: Fraction(1)),
            corrupt_twist(base, (Z2.element(1, 1), Z2.element(1, 0)), Fraction(2)))


@pytest.mark.parametrize("which", (0, 1), ids=("diagonal-change", "corrupt-twist"))
def test_derived_systems_equal_only_themselves(which):
    base = z2_sign_twist(QQ)
    derived = _derived_systems()[which]
    assert derived == derived and derived != base and derived != _derived_systems()[which]
    x = Z2.element(1, 0)
    f = GradedSeries(Z2, 3, {x: Fraction(1)}, QQ, derived)
    g = GradedSeries(Z2, 3, {x: Fraction(1)}, QQ, base)
    with pytest.raises(ContextMismatchError):
        f * g
    with pytest.raises(ContextMismatchError):
        f + g
