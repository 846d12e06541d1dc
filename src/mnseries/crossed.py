"""Crossed-product systems: an action of the group on the coefficient field
(a function (g, x) -> x^g) and a twisting into its units.

Validity is defined by the two identities equivalent to associativity on
basis elements under the right-action convention (moving a scalar past a
basis element applies the action):

    twist(xy, z) * action(z)(twist(x, y)) == twist(x, yz) * twist(y, z)
    action(y)(action(x)(r)) == twist(x,y)^-1 * action(xy)(r) * twist(x,y)

together with the normalization twist(1, x) = twist(x, 1) = 1 and
action(1) = id. Quotient systems along a normal convex subgroup N are crossed
systems over G/N whose coefficients are finite N-series. Each holds its
quotient's canonical transversal: the projection to the lattice G/N and the
coset representatives (heis / center gives Z^2, bs / base gives Z). They
carry the induced action (conjugation by coset representatives) and the
induced twist, whose value at (alpha, beta) is the correction element of N
scaled by twist(rep_ab, n)^-1 * twist(rep_a, rep_b). regroup rewrites a
series over G as a plain series over G/N under its quotient system, so
regrouped series multiply with the one crossed-product rule of GradedSeries.
"""

from __future__ import annotations

import random
from functools import cache

from .groups import (Heisenberg, HeisenbergElement, LatticeElement, LatticeGroup, SemidirectGroup,
                     sample_monoid_element)
from .report import InvariantError, Report, outcome
from .scalars import QQ, QuadraticField, randint
from .series import (ContextMismatchError, GradedSeries, NoTruncatedInverseError, SubgroupRing,
                     group_of)


class IdentityCompared:
    """Base of the objects that compare by identity and hold functions: a
    copy or deep copy of one is the object itself."""

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class CrossedSystem(IdentityCompared):
    """Scalar-level system over one group and one field: action(g, x) is x^g,
    twist(g, h) a unit of the field. Systems compare by identity; the
    canonical constructors below are cached, so equal arguments give one
    object. A system holds functions, so only a series over the trivial
    system, which it stores as None, pickles."""

    def __init__(self, system_id, group, field, action_fn, twist_fn):
        self.id = system_id
        self.group = group
        self.field = field
        self._action = action_fn
        self._twist = twist_fn

    @property
    def is_trivial(self) -> bool:
        return self.id == "trivial"

    def action(self, g, value):
        return self._action(g, value)

    def twist(self, g, h):
        return self._twist(g, h)

    def __repr__(self):
        return f"<crossed system {self.id} on {self.group.id} over {self.field.name}>"


def _identity_action(g, x):
    return x


@cache
def trivial_system(group, field, /) -> CrossedSystem:
    one = field.one
    return CrossedSystem("trivial", group, field, _identity_action, lambda g, h: one)


@cache
def z2_sign_twist(field, /) -> CrossedSystem:
    """Over Z^2: twist((a,b),(c,d)) = (-1)^(b*c), trivial action."""
    one = field.one

    def twist(g, h):
        return one if (g.coords[1] * h.coords[0]) % 2 == 0 else -one

    return CrossedSystem("z2-sign-twist", LatticeGroup(2), field, _identity_action, twist)


@cache
def quadratic_conj_z(field, /) -> CrossedSystem:
    """Over Z: odd powers of the generator act by quadratic conjugation."""
    if not isinstance(field, QuadraticField):
        raise ValueError("quadratic-conj-Z needs quadratic coefficients")
    one = field.one
    return CrossedSystem(
        "quadratic-conj-Z",
        LatticeGroup(1),
        field,
        lambda g, x: x if g.coords[0] % 2 == 0 else x.conjugate(),
        lambda g, h: one,
    )


# ---------------------------------------------------------------------------
# validity checking


def check_crossed_system(system: CrossedSystem, sample_count: int = 200, seed: int = 0) -> Report:
    """Verify the two validity identities and the normalization case by case.
    A case is a pair (x, y), checked for the normalization at x, the twist
    and the action identity, followed by its triples (x, y, z), each checked
    for the cocycle identity. twist(x, y) must be a unit of the system's
    coefficient ring, that is a value the ring's inv accepts: a nonzero
    scalar of a field, a single term of an N-series ring (a nonzero
    non-unit is not enough); any other twist, and any twist whose
    computation raises ZeroDivisionError or NoTruncatedInverseError (as
    diagonal_change's does when it inverts a non-unit), is the pair's
    "nonzero-twist" witness, whichever identity asked for it. Every pair of
    the group's fixed panel is a case with the whole panel as its z, then
    each of sample_count random triples is one. The first violated identity
    is the witness, and details.checked counts the pairs and triples
    checked."""
    if sample_count < 0:
        raise ValueError("sample count must be nonnegative")
    field = system.field
    one = field.one
    action = system.action
    fmt = system.group.format_element
    ident = system.group.identity()
    scalars = field.panel()

    def twist(x, y):
        try:
            return system.twist(x, y)
        except _REFUSED:
            raise _NonUnitTwist(x, y) from None

    checked = 0
    violation = None
    if action(ident, scalars[-1]) != scalars[-1]:
        violation = {"identity": "normalization", "x": fmt(ident)}
    else:
        try:
            for x, y, (xy, tw), triples in _cases(system.group, twist, sample_count, seed):
                checked += 1
                if twist(ident, x) != one or twist(x, ident) != one:
                    violation = {"identity": "normalization", "x": fmt(ident), "y": fmt(x)}
                    break
                # a twist is a unit of its ring: one that the ring's inv
                # refuses, zero or a non-unit N-series, is this pair's
                # violation
                try:
                    tw_inv = field.inv(tw)
                except _REFUSED:
                    raise _NonUnitTwist(x, y) from None
                # acting by x then y is acting by xy up to conjugation by
                # the twist (trivial over a commutative field, but stated in
                # full); conjugation by one is the identity in any ring
                if tw == one:
                    bad = any(action(y, action(x, r)) != action(xy, r) for r in scalars)
                else:
                    bad = any(action(y, action(x, r)) != tw_inv * action(xy, r) * tw for r in scalars)
                if bad:
                    violation = {"identity": "action", "x": fmt(x), "y": fmt(y)}
                    break
                for z, (yz, tw_yz) in triples:
                    checked += 1
                    if twist(xy, z) * action(z, tw) != twist(x, yz) * tw_yz:
                        violation = {"identity": "cocycle", "x": fmt(x), "y": fmt(y), "z": fmt(z)}
                        break
                if violation:
                    break
        except _NonUnitTwist as refused:
            x, y = refused.args
            violation = {"identity": "nonzero-twist", "x": fmt(x), "y": fmt(y)}
    return outcome("crossed-validity", {"samples": sample_count}, violation, {"checked": checked})


# what a coefficient ring raises for a value it cannot invert: a field's
# zero, or an N-series that is not a single term
_REFUSED = (ZeroDivisionError, NoTruncatedInverseError)


class _NonUnitTwist(Exception):
    """check_crossed_system's twist at the pair (x, y), its args, is not a
    unit: the ring's inv refused it, or computing it raised."""


def _cases(group, twist, sample_count: int, seed: int):
    """check_crossed_system's cases in order, each (x, y, (xy, twist(x, y)),
    triples of (z, (yz, twist(y, z)))): the panel pairs, each multiplied and
    twisted once, then sample_count triples drawn x, y, z and not kept. A
    case's triples are made as they are read, after its pair is checked."""

    def pair(x, y):
        return group.multiply(x, y), twist(x, y)

    def triples(y, zs, product_and_twist):
        for z in zs:
            yield z, product_and_twist(y, z)

    panel = group.panel_elements()
    panel_pair = cache(pair)
    for x in panel:
        for y in panel:
            yield x, y, panel_pair(x, y), triples(y, panel, panel_pair)
    rng = random.Random(seed)
    for _ in range(sample_count):
        x = group.sample_element(rng)
        y = group.sample_element(rng)
        z = group.sample_element(rng)
        yield x, y, pair(x, y), triples(y, (z,), pair)


def diagonal_change(system: CrossedSystem, d) -> CrossedSystem:
    """Rescale each basis element by the unit d(x). The action conjugates by
    d(x) (a no-op over a commutative field) and the twist becomes
    d(xy)^-1 * twist(x,y) * action(y)(d(x)) * d(y)."""
    group = system.group
    field = system.field
    if d(group.identity()) != field.one:
        raise ValueError("diagonal change requires d(identity) = 1")

    def twist(g, h):
        gh = group.multiply(g, h)
        return field.inv(d(gh)) * system.twist(g, h) * system.action(h, d(g)) * d(h)

    return CrossedSystem(f"diag:{system.id}", group, field, system.action, twist)


def change_basis(f: GradedSeries, system_new, d) -> GradedSeries:
    """Coefficients of f, written on the basis rescaled by d: the term at x
    becomes x~ * (d(x)^-1 * a_x)."""
    field = f.field
    terms = {g: field.inv(d(g)) * c for g, c in f.terms.items()}
    return GradedSeries(f.context, f.degree, terms, field, system_new)


# ---------------------------------------------------------------------------
# single-term helpers in the full crossed ring


def term_product(system, g, a, h, b):
    """(g*a) * (h*b) as a single term of the crossed ring."""
    group = system.group
    x = group.multiply(g, h)
    return x, system.twist(g, h) * system.action(h, a) * b


def term_inverse(system, g, a):
    """Inverse of the single term g*a: (g^-1) * (twist(g, g^-1) * action(g^-1)(a))^-1."""
    group = system.group
    ginv = group.inverse(g)
    denom = system.twist(g, ginv) * system.action(ginv, a)
    return ginv, system.field.inv(denom)


# ---------------------------------------------------------------------------
# quotient systems


class SubgroupSeriesRing(IdentityCompared):
    """The coefficient ring of a quotient system: finite series over the
    subgroup N, with the base system's scalars and twist. Its system owns it,
    so it compares by identity."""

    def __init__(self, subring: SubgroupRing, field, base: CrossedSystem):
        self.subring = subring
        self.field = field
        self.base = base
        self.zero = GradedSeries.zero(subring, 0, field, base)
        self.one = GradedSeries.one(subring, 0, field, base)
        self.system = self.zero.system

    @property
    def name(self) -> str:
        return f"{self.field.name}[{self.subring.id}]"

    def contains(self, value) -> bool:
        return isinstance(value, GradedSeries) and (
            value.context, value.degree, value.field, value.system
        ) == (self.subring, 0, self.field, self.system)

    def format(self, value) -> str:
        return "(" + " + ".join(f"{c}*{elem_s}" for _, elem_s, c in value.rows()) + ")"

    def inv(self, value) -> GradedSeries:
        """Inverse of a unit N-series. The group ring of an ordered group has
        only the trivial units, so exactly the single terms n*c invert,
        through term_inverse under the base system."""
        if len(value.terms) != 1:
            raise NoTruncatedInverseError(
                f"no inverse: {self.format(value)} is not a single term of {self.name}"
            )
        ((n, c),) = value.terms.items()
        n_inv, c_inv = term_inverse(self.base, n, c)
        return GradedSeries(self.subring, 0, {n_inv: c_inv}, self.field, self.system)

    def panel(self) -> tuple:
        """Fixed N-series for check_crossed_system: zero, one, each
        nonidentity N-element of the group's panel alone, and two sums over
        the first of them, n, with coefficients from the field's panel."""
        group, tag = self.subring.group, self.subring.subgroup_tag
        ident = group.identity()
        ns = [g for g in group.panel_elements()
              if g != ident and group.subgroup_contains(tag, g)]
        scalars = [c for c in self.field.panel() if c]

        def series(terms):
            return GradedSeries(self.subring, 0, terms, self.field, self.system)

        singles = tuple(series({n: self.field.one}) for n in ns)
        n = ns[0]
        pair = series({ident: scalars[-1], n: scalars[len(scalars) // 2]})
        triple = series({ident: scalars[0], n: scalars[-1], group.inverse(n): scalars[len(scalars) // 2]})
        return (self.zero, self.one) + singles + (pair, triple)

    def sample(self, rng) -> GradedSeries:
        """One to three random terms over N."""
        group, tag = self.subring.group, self.subring.subgroup_tag
        terms = {}
        for _ in range(randint(rng, 1, 3)):
            n = group.sample_subgroup(tag, rng)
            terms[n] = terms.get(n, self.field.zero) + self.field.sample(rng)
        return GradedSeries(self.subring, 0, terms, self.field, self.system)


# the supported quotients G/N by (group class, tag of N): the rank of the
# lattice G/N, the coset of g as its coordinates, and the canonical
# representative in the group of the coset at coordinates q, the identity
# coset's being the identity
_QUOTIENTS = {
    (Heisenberg, "center"): (2, lambda g: (g.a, g.b), lambda group, q: HeisenbergElement(*q, 0)),
    (SemidirectGroup, "base"): (1, lambda g: (g.n,), lambda group, q: group.element(0, *q)),
}


class QuotientSystem(CrossedSystem):
    """The induced crossed system of G/N: its group is the quotient, its
    field the ring of finite N-series, its twist the correction elements and
    its action conjugation by coset representatives. Build it through
    quotient_system, which gives one object per base and subgroup."""

    def __init__(self, base: CrossedSystem, subgroup_tag: str):
        group = base.group
        try:
            rank, self._coset, self._representative = _QUOTIENTS[type(group), subgroup_tag]
        except KeyError:
            raise ValueError(f"unsupported quotient: {group.id} / {subgroup_tag}") from None
        self.base = base
        self.subring = SubgroupRing(group, subgroup_tag)
        super().__init__(f"quotient:{base.id}:{group.id}/{subgroup_tag}", LatticeGroup(rank),
                         SubgroupSeriesRing(self.subring, base.field, base),
                         self._induced_action, self._induced_twist)

    def project(self, g):
        """The coset of g in the quotient group."""
        return LatticeElement(self._coset(g))

    def representative(self, q):
        """The canonical representative of the coset q."""
        return self._representative(self.base.group, q.coords)

    def subgroup_part(self, g):
        """The representative rep of g's coset and the unique n in N with
        g = rep * n."""
        group = self.base.group
        rep = self.representative(self.project(g))
        n = group.multiply(group.inverse(rep), g)
        if not self.subring.in_monoid(n):
            raise InvariantError("transversal decomposition left the subgroup")
        return rep, n

    def correction(self, alpha, beta):
        """The unique n in N with rep(alpha*beta) * n = rep(alpha) * rep(beta)."""
        return self.subgroup_part(self.base.group.multiply(self.representative(alpha),
                                                           self.representative(beta)))[1]

    def _induced_twist(self, alpha, beta) -> GradedSeries:
        """Unit of the N-series ring: the correction element n with scalar
        twist(rep_ab, n)^-1 * twist(rep_a, rep_b)."""
        rep_a = self.representative(alpha)
        rep_b = self.representative(beta)
        rep_ab, n = self.subgroup_part(self.base.group.multiply(rep_a, rep_b))
        field = self.base.field
        scalar = field.inv(self.base.twist(rep_ab, n)) * self.base.twist(rep_a, rep_b)
        return GradedSeries(self.subring, 0, {n: scalar}, field, self.base)

    def _induced_action(self, gamma, f: GradedSeries) -> GradedSeries:
        """Conjugation of an N-series by the representative of gamma,
        computed termwise in the crossed ring."""
        field = self.base.field
        rep = self.representative(gamma)
        rep_inv, lead = term_inverse(self.base, rep, field.one)
        out = {}
        for n, zeta in f.terms.items():
            g1, c1 = term_product(self.base, rep_inv, lead, n, zeta)
            g2, c2 = term_product(self.base, g1, c1, rep, field.one)
            if not self.subring.in_monoid(g2):
                raise InvariantError("conjugated support left the subgroup")
            out[g2] = out.get(g2, field.zero) + c2
        return GradedSeries(self.subring, 0, out, field, self.base)


@cache
def _quotient_system(base: CrossedSystem, subgroup_tag: str, /) -> QuotientSystem:
    return QuotientSystem(base, subgroup_tag)


def quotient_system(group, subgroup_tag, base: CrossedSystem | None = None) -> QuotientSystem:
    """The one induced system of base (the trivial system over Q when None)
    along one of the supported normal subgroups of group."""
    base = base or trivial_system(group, QQ)
    if base.group != group:
        raise ContextMismatchError("base system and quotient disagree on the group")
    return _quotient_system(base, subgroup_tag)


# ---------------------------------------------------------------------------
# regroup / flatten along a normal convex subgroup


def _context_over(group, graded: bool):
    """The support context over group on the same side: its monoid when
    graded, else its whole-group ring."""
    return group if graded else SubgroupRing(group, "G")


def regroup(f: GradedSeries, subgroup_tag: str) -> GradedSeries:
    """f as a series over the quotient G/N under the quotient system of its
    own system: the coefficient of each coset is the N-series of the terms
    of f in that coset. flatten is the exact inverse.

    Each term x*a is rewritten through x = rep * n with rep the coset
    representative and n in the subgroup; the coefficient picks up the base
    system's twist(rep, n)^-1. A graded series regroups over the quotient's
    monoid, a whole-group ring series over the quotient's ring.
    """
    ctx = f.context
    if not (ctx.graded or ctx.subgroup_tag == "G"):
        raise ContextMismatchError(f"series over {ctx.id} cannot regroup along {subgroup_tag}")
    group = group_of(ctx)
    field = f.field
    base = trivial_system(group, field) if f.system is None else f.system
    qsys = quotient_system(group, subgroup_tag, base)
    buckets = {}
    for g, a in f.terms.items():
        rep, n = qsys.subgroup_part(g)
        bucket = buckets.setdefault(rep, {})
        bucket[n] = bucket.get(n, field.zero) + field.inv(base.twist(rep, n)) * a
    terms = {qsys.project(rep): GradedSeries(qsys.subring, 0, bucket, field, base)
             for rep, bucket in buckets.items()}
    return GradedSeries(_context_over(qsys.group, ctx.graded), f.degree, terms,
                        qsys.field, qsys)


def flatten(rf: GradedSeries) -> GradedSeries:
    """Exact inverse of regroup: expand every coset coefficient back."""
    qsys = rf.system
    if not isinstance(qsys, QuotientSystem):
        raise ContextMismatchError(f"series over {rf.context.id} is not a regrouped series")
    base = qsys.base
    group = base.group
    field = base.field
    terms = {}
    for q, coeff in rf.terms.items():
        rep = qsys.representative(q)
        for n, zeta in coeff.terms.items():
            g = group.multiply(rep, n)
            terms[g] = terms.get(g, field.zero) + base.twist(rep, n) * zeta
    return GradedSeries(_context_over(group, rf.context.graded), rf.degree, terms, field, base)


# ---------------------------------------------------------------------------
# the augmentation-induced map and good preimages


def augment_coefficients(rf: GradedSeries) -> GradedSeries:
    """Apply the augmentation (sum of scalar coefficients) to every coset
    coefficient of a regrouped series, yielding a plain series over the
    quotient group."""
    field = rf.system.base.field
    terms = {q: sum(coeff.terms.values(), field.zero) for q, coeff in rf.terms.items()}
    return GradedSeries(rf.context, rf.degree, terms, field, None)


def project_series(f: GradedSeries, subgroup_tag: str) -> GradedSeries:
    """The induced ring morphism into the plain quotient series ring: each
    term is sent to its coset, coefficients through the augmentation."""
    return augment_coefficients(regroup(f, subgroup_tag))


def good_preimage(a: GradedSeries, group, subgroup_tag: str) -> GradedSeries:
    """Lift a series over the quotient of group by the subgroup through the
    canonical transversal: each coset term alpha*c becomes rep(alpha)*c. The
    projection returns a exactly, and the lift is invertible whenever a has
    a nonzero identity coefficient."""
    qsys = quotient_system(group, subgroup_tag)
    if group_of(a.context) != qsys.group:
        raise ContextMismatchError(
            f"series over {a.context.id} is not over the quotient {group.id}/{subgroup_tag}"
        )
    terms = {qsys.representative(q): c for q, c in a.terms.items()}
    return GradedSeries(_context_over(group, a.context.graded), a.degree, terms, a.field, None)


# ---------------------------------------------------------------------------
# morphism extension checking


def _sample_series(system, rng, degree: int = 4) -> GradedSeries:
    """Four random terms over the monoid of the system's group."""
    terms = {}
    for _ in range(4):
        g = sample_monoid_element(system.group, rng, degree)
        terms[g] = system.field.sample(rng)
    return GradedSeries(system.group, degree, terms, system.field, system)


def check_morphism_extension(phi, eta, source, target, samples: int = 100, seed: int = 0,
                             series_map=None) -> Report:
    """Check the two extension conditions from the source system to the
    target system on sampled data:

      action-compatibility: phi(action1(x)(r)) == action2(eta(x))(phi(r))
      twist-compatibility:  phi(twist1(x, y)) == twist2(eta(x), eta(y))

    together with sampled ring-morphism checks for phi on the source field
    and group-morphism checks for eta on the source group. When everything
    holds and series_map is given, the induced map on series is verified to
    be multiplicative on sampled pairs of degree-4 series (product computed
    on each side independently). The first failed condition is the witness;
    details count the samples checked and the multiplicative pairs."""
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    rng = random.Random(seed)
    checked = 0
    pairs = 0

    def report(violation=None):
        return outcome("morphism-extension", {"samples": samples}, violation,
                       {"checked": checked, "multiplicative_pairs": pairs})

    def fail(condition, **data):
        return report({"condition": condition, **data})

    for _ in range(samples):
        checked += 1
        r = source.field.sample(rng)
        s = source.field.sample(rng)
        if phi(r + s) != phi(r) + phi(s):
            return fail("phi-additive")
        if phi(r * s) != phi(r) * phi(s):
            return fail("phi-multiplicative")
        x = source.group.sample_element(rng)
        y = source.group.sample_element(rng)
        if eta(source.group.multiply(x, y)) != target.group.multiply(eta(x), eta(y)):
            return fail("eta-morphism")
        if phi(source.action(x, r)) != target.action(eta(x), phi(r)):
            return fail("action-compatibility", x=str(x))
        if phi(source.twist(x, y)) != target.twist(eta(x), eta(y)):
            return fail("twist-compatibility", x=str(x), y=str(y))
    if phi(source.field.one) != target.field.one:
        return fail("phi-unital")

    if series_map is not None:
        for _ in range(max(1, samples // 10)):
            f = _sample_series(source, rng)
            g = _sample_series(source, rng)
            if series_map(f * g) != series_map(f) * series_map(g):
                return fail("induced-map-multiplicative")
            pairs += 1
    return report()
