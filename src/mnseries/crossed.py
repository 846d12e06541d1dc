"""Crossed-product systems: an action of the group on the coefficient field
(by named automorphisms) and a twisting into its nonzero scalars.

Validity is defined by the two identities equivalent to associativity on
basis elements under the right-action convention (moving a scalar past a
basis element applies the action):

    twist(xy, z) * action(z)(twist(x, y)) == twist(x, yz) * twist(y, z)
    action(y)(action(x)(r)) == twist(x,y)^-1 * action(xy)(r) * twist(x,y)

together with the normalization twist(1, x) = twist(x, 1) = 1 and
action(1) = id. Quotient systems along a normal convex subgroup N carry the
induced action (conjugation by coset representatives) and the induced twist,
whose value at (alpha, beta) is the correction element of N scaled by
twist(rep_ab, n)^-1 * twist(rep_a, rep_b).
"""

from __future__ import annotations

import random

from .groups import LatticeGroup, QuotientDescriptor
from .report import Report, outcome
from .scalars import QQ, QuadraticField
from .series import ContextMismatchError, GradedSeries, RegroupedSeries, SubgroupRing


class CrossedSystem:
    """Scalar-level system (action into the field's automorphism set, twist
    into its nonzero elements) over one group and one field."""

    def __init__(self, system_id, group, field, action_tag, twist_fn, derived=False):
        self.id = system_id
        self.group = group
        self.field = field
        self._action_tag = action_tag
        self._twist = twist_fn
        self.derived = derived

    @property
    def is_trivial(self) -> bool:
        return self.id == "trivial"

    def action(self, g, value):
        return self.field.apply(self._action_tag(g), value)

    def twist(self, g, h):
        return self._twist(g, h)

    def __eq__(self, other):
        if not isinstance(other, CrossedSystem):
            return NotImplemented
        if self.derived or other.derived:
            return self is other
        return (self.id, self.group, self.field) == (other.id, other.group, other.field)

    def __hash__(self):
        if self.derived:
            return object.__hash__(self)
        return hash((self.id, self.group, self.field))

    def __repr__(self):
        return f"<crossed system {self.id} on {self.group.id} over {self.field.name}>"


def trivial_system(group, field=QQ) -> CrossedSystem:
    one = field.one
    return CrossedSystem("trivial", group, field, lambda g: "id", lambda g, h: one)


def z2_sign_twist(field=QQ) -> CrossedSystem:
    """Over Z^2: twist((a,b),(c,d)) = (-1)^(b*c), trivial action."""
    group = LatticeGroup(2)
    one = field.one

    def twist(g, h):
        return one if (g.coords[1] * h.coords[0]) % 2 == 0 else -one

    return CrossedSystem("z2-sign-twist", group, field, lambda g: "id", twist)


def quadratic_conj_z(radicand: int = 2) -> CrossedSystem:
    """Over Z: odd powers of the generator act by quadratic conjugation."""
    group = LatticeGroup(1)
    field = QuadraticField(radicand)
    one = field.one
    return CrossedSystem(
        "quadratic-conj-Z",
        group,
        field,
        lambda g: "id" if g.coords[0] % 2 == 0 else "conj",
        lambda g, h: one,
    )


def corrupt_twist(system: CrossedSystem, at_pair, value) -> CrossedSystem:
    """Fuzz fixture: flip the twist at one ordered pair of group elements."""
    x0, y0 = at_pair

    def twist(g, h):
        if (g, h) == (x0, y0):
            return value
        return system.twist(g, h)

    return CrossedSystem(
        f"corrupted:{system.id}", system.group, system.field,
        system._action_tag, twist, derived=True,
    )


# ---------------------------------------------------------------------------
# validity checking


def check_crossed_system(system: CrossedSystem, sample_count: int = 200, seed: int = 0) -> Report:
    """Verify the two validity identities and the normalization on the
    group's small fixed panel (all triples) plus sampled random triples; the
    first violated identity is the witness and details.checked counts the
    pairs and triples checked."""
    if sample_count < 0:
        raise ValueError("sample count must be nonnegative")
    group = system.group
    field = system.field
    rng = random.Random(seed)
    ident = group.identity()
    scalars = field.panel()
    checked = 0

    def fmt(g):
        return group.format_element(g)

    def report(violation=None):
        return outcome("crossed-validity", {"samples": sample_count}, violation,
                       {"checked": checked})

    def violation_at(kind, x, y, z=None):
        payload = {"identity": kind, "x": fmt(x), "y": fmt(y)}
        if z is not None:
            payload["z"] = fmt(z)
        return report(payload)

    def check_pairs(x, y):
        nonlocal checked
        checked += 1
        if system.twist(ident, x) != field.one or system.twist(x, ident) != field.one:
            return violation_at("normalization", ident, x)
        # action consistency: acting by x then y equals acting by xy up to
        # conjugation by the twist (which is trivial in a commutative field,
        # but stated in full)
        tw = system.twist(x, y)
        tw_inv = field.one / tw
        xy = group.multiply(x, y)
        for r in scalars:
            lhs = system.action(y, system.action(x, r))
            rhs = tw_inv * system.action(xy, r) * tw
            if lhs != rhs:
                return violation_at("action", x, y)
        return None

    def check_triple(x, y, z):
        nonlocal checked
        checked += 1
        lhs = system.twist(group.multiply(x, y), z) * system.action(z, system.twist(x, y))
        rhs = system.twist(x, group.multiply(y, z)) * system.twist(y, z)
        if lhs != rhs:
            return violation_at("cocycle", x, y, z)
        return None

    if system.action(ident, scalars[-1]) != scalars[-1]:
        return report({"identity": "normalization", "x": fmt(ident)})

    panel = group.panel_elements()
    for x in panel:
        for y in panel:
            bad = check_pairs(x, y)
            if bad:
                return bad
            for z in panel:
                bad = check_triple(x, y, z)
                if bad:
                    return bad
    for _ in range(sample_count):
        x = group.sample_element(rng)
        y = group.sample_element(rng)
        z = group.sample_element(rng)
        bad = check_pairs(x, y) or check_triple(x, y, z)
        if bad:
            return bad
    return report()


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
        return (field.one / d(gh)) * system.twist(g, h) * system.action(h, d(g)) * d(h)

    return CrossedSystem(
        f"diag:{system.id}", group, field, system._action_tag, twist, derived=True
    )


def change_basis(f: GradedSeries, system_old, system_new, d) -> GradedSeries:
    """Coefficients of f, written on the basis rescaled by d: the term at x
    becomes x~ * (d(x)^-1 * a_x)."""
    field = f.field
    terms = {g: (field.one / d(g)) * c for g, c in f.terms.items()}
    return GradedSeries(f.context, f.degree, terms, field, system_new, validate=False)


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
    return ginv, system.field.one / denom


# ---------------------------------------------------------------------------
# quotient systems


class QuotientSystem:
    """The induced crossed structure of G/N over the subgroup-N series ring."""

    def __init__(self, base: CrossedSystem, descriptor: QuotientDescriptor):
        if base.group != descriptor.group:
            raise ContextMismatchError("base system and quotient descriptor disagree on the group")
        self.base = base
        self.descriptor = descriptor
        self.field = base.field
        self.subring = SubgroupRing(descriptor.group, descriptor.subgroup_tag)

    @property
    def id(self) -> str:
        return f"quotient:{self.base.id}:{self.descriptor.id}"

    def correction(self, alpha, beta):
        """The unique n in N with rep(alpha*beta) * n = rep(alpha) * rep(beta)."""
        group = self.descriptor.group
        rep_a = self.descriptor.representative(alpha)
        rep_b = self.descriptor.representative(beta)
        rep_ab = self.descriptor.representative(self.descriptor.quotient.multiply(alpha, beta))
        n = group.multiply(group.inverse(rep_ab), group.multiply(rep_a, rep_b))
        if not self.descriptor.in_subgroup(n):
            raise AssertionError("correction element left the subgroup")
        return n

    def twist(self, alpha, beta) -> GradedSeries:
        """Unit of the N-series ring: the correction element with scalar
        twist(rep_ab, n)^-1 * twist(rep_a, rep_b)."""
        group = self.descriptor.group
        rep_a = self.descriptor.representative(alpha)
        rep_b = self.descriptor.representative(beta)
        rep_ab = self.descriptor.representative(self.descriptor.quotient.multiply(alpha, beta))
        n = self.correction(alpha, beta)
        scalar = (self.field.one / self.base.twist(rep_ab, n)) * self.base.twist(rep_a, rep_b)
        return GradedSeries(self.subring, 0, {n: scalar}, self.field, self.base, validate=False)

    def action(self, gamma, f: GradedSeries) -> GradedSeries:
        """Conjugation of an N-series by the representative of gamma,
        computed termwise in the crossed ring."""
        group = self.descriptor.group
        rep = self.descriptor.representative(gamma)
        rep_inv, lead = term_inverse(self.base, rep, self.field.one)
        out = {}
        for n, zeta in f.terms.items():
            g1, c1 = term_product(self.base, rep_inv, lead, n, zeta)
            g2, c2 = term_product(self.base, g1, c1, rep, self.field.one)
            if not self.descriptor.in_subgroup(g2):
                raise AssertionError("conjugated support left the subgroup")
            s = out.get(g2, self.field.zero) + c2
            if s:
                out[g2] = s
            else:
                out.pop(g2, None)
        return GradedSeries(self.subring, 0, out, self.field, self.base, validate=False)


def quotient_system(group, subgroup, transversal=None, base: CrossedSystem | None = None,
                    field=QQ, seed: int = 0) -> QuotientSystem:
    """Build the induced system for one of the supported normal subgroups.

    subgroup may be a tag or a ready QuotientDescriptor; transversal, when
    given, overrides the canonical representative map and is validated on 50
    sampled cosets (identity coset must map to the identity; every
    representative must project back to its coset)."""
    from .groups import quotient_descriptor as make_descriptor

    descriptor = subgroup if isinstance(subgroup, QuotientDescriptor) else make_descriptor(group, subgroup)
    if transversal is not None:
        descriptor = QuotientDescriptor(
            descriptor.group,
            descriptor.subgroup_tag,
            descriptor.quotient,
            descriptor.project,
            transversal,
        )
    quotient = descriptor.quotient
    ident_q = quotient.identity()
    if descriptor.representative(ident_q) != group.identity():
        raise ValueError("transversal must send the identity coset to the identity")
    rng = random.Random(seed)
    seen = {}
    for _ in range(50):
        q = quotient.sample_element(rng)
        rep = descriptor.representative(q)
        if descriptor.project(rep) != q:
            raise ValueError("transversal is not a transversal: representative projects to a different coset")
        if rep in seen and seen[rep] != q:
            raise ValueError("transversal is not a transversal: duplicate cosets")
        seen[rep] = q
    if base is None:
        base = trivial_system(group, field)
    return QuotientSystem(base, descriptor)


def multiply_regrouped(a: RegroupedSeries, b: RegroupedSeries, qsys: QuotientSystem) -> RegroupedSeries:
    """Product of regrouped series with the induced action and twist:
    the coset-alpha coefficient is the sum over beta*gamma = alpha of
    twist(beta, gamma) * action(gamma)(f_beta) * g_gamma in the N-ring."""
    if a.descriptor != b.descriptor or a.descriptor != qsys.descriptor:
        raise ContextMismatchError("regrouped operands disagree on the quotient descriptor")
    if a.degree != b.degree or a.field != b.field:
        raise ContextMismatchError("regrouped operands disagree on degree or field")
    quotient = qsys.descriptor.quotient
    graded = a.quotient_context.graded
    out = {}
    for beta, f_beta in a.cosets.items():
        wb = a.quotient_context.weight(beta)
        for gamma, g_gamma in b.cosets.items():
            if graded and wb + b.quotient_context.weight(gamma) > a.degree:
                continue
            alpha = quotient.multiply(beta, gamma)
            contrib = qsys.twist(beta, gamma) * qsys.action(gamma, f_beta) * g_gamma
            if alpha in out:
                out[alpha] = out[alpha] + contrib
            else:
                out[alpha] = contrib
    return RegroupedSeries(
        a.descriptor, a.source_context, a.quotient_context, a.degree, a.field, a.system,
        {q: s for q, s in out.items() if s},
    )


# ---------------------------------------------------------------------------
# the augmentation-induced map and good preimages


def augment_coefficients(rf: RegroupedSeries) -> GradedSeries:
    """Apply the augmentation (sum of scalar coefficients) to every coset
    coefficient, yielding a plain series over the quotient group."""
    field = rf.field
    terms = {}
    for q, coeff_series in rf.cosets.items():
        total = field.zero
        for _, zeta in coeff_series.terms.items():
            total = total + zeta
        if total:
            terms[q] = total
    return GradedSeries(rf.quotient_context, rf.degree, terms, field, None, validate=False)


def project_series(f: GradedSeries, descriptor) -> GradedSeries:
    """The induced ring morphism into the plain quotient series ring: each
    term is sent to its coset, coefficients through the augmentation."""
    from .series import regroup

    return augment_coefficients(regroup(f, descriptor))


def good_preimage(a: GradedSeries, descriptor) -> GradedSeries:
    """Lift a quotient series through the canonical transversal: each coset
    term alpha*c becomes rep(alpha)*c. The projection returns a exactly, and
    the lift is invertible whenever a has a nonzero identity coefficient."""
    quotient = descriptor.quotient
    base_q = a.context.group if hasattr(a.context, "group") else a.context
    if base_q != quotient:
        raise ContextMismatchError(
            f"series over {a.context.id} is not over the quotient of {descriptor.id}"
        )
    target_context = descriptor.group if a.context.graded else SubgroupRing(descriptor.group, "G")
    terms = {}
    for q, c in a.terms.items():
        terms[descriptor.representative(q)] = c
    return GradedSeries(target_context, a.degree, terms, a.field, None)


# ---------------------------------------------------------------------------
# morphism extension checking


class ScalarSide:
    """One side of a morphism-extension check, over a scalar-level system."""

    def __init__(self, system: CrossedSystem, monoid_context=None, degree: int = 4):
        self.system = system
        self.context = monoid_context if monoid_context is not None else system.group
        self.degree = degree

    def sample_coeff(self, rng):
        return self.system.field.sample(rng)

    def coeff_eq(self, a, b):
        return a == b

    def coeff_add(self, a, b):
        return a + b

    def coeff_mul(self, a, b):
        return a * b

    def coeff_one(self):
        return self.system.field.one

    def sample_group(self, rng):
        return self.system.group.sample_element(rng)

    def group_mul(self, g, h):
        return self.system.group.multiply(g, h)

    def action(self, g, coeff):
        return self.system.action(g, coeff)

    def twist(self, g, h):
        return self.system.twist(g, h)

    def sample_series(self, rng, n_terms=4):
        field = self.system.field
        terms = {}
        for _ in range(n_terms):
            g = self.context.sample_monoid_element(rng, self.degree)
            c = field.sample(rng)
            if c:
                terms[g] = c
        return GradedSeries(self.context, self.degree, terms, field, self.system)

    def multiply_series(self, f, g):
        return f * g


class QuotientSide:
    """One side of a morphism-extension check over a quotient system, whose
    coefficients are finite subgroup-supported series."""

    def __init__(self, qsys: QuotientSystem, degree: int = 4):
        self.qsys = qsys
        self.degree = degree
        self.field = qsys.field

    def _subgroup_sample(self, rng):
        return self.qsys.descriptor.group.sample_subgroup(self.qsys.descriptor.subgroup_tag, rng)

    def sample_coeff(self, rng):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            n = self._subgroup_sample(rng)
            c = self.field.sample(rng)
            if c:
                terms[n] = terms.get(n, self.field.zero) + c
        terms = {n: c for n, c in terms.items() if c}
        return GradedSeries(self.qsys.subring, 0, terms, self.field, self.qsys.base, validate=False)

    def coeff_eq(self, a, b):
        return a == b

    def coeff_add(self, a, b):
        return a + b

    def coeff_mul(self, a, b):
        return a * b

    def coeff_one(self):
        return GradedSeries.one(self.qsys.subring, 0, self.field, self.qsys.base)

    def sample_group(self, rng):
        return self.qsys.descriptor.quotient.sample_element(rng)

    def group_mul(self, g, h):
        return self.qsys.descriptor.quotient.multiply(g, h)

    def action(self, g, coeff):
        return self.qsys.action(g, coeff)

    def twist(self, g, h):
        return self.qsys.twist(g, h)

    def sample_series(self, rng, n_terms=4):
        quotient = self.qsys.descriptor.quotient
        cosets = {}
        for _ in range(n_terms):
            q = quotient.sample_monoid_element(rng, self.degree)
            coeff = self.sample_coeff(rng)
            if coeff:
                cosets[q] = cosets.get(q, GradedSeries.zero(self.qsys.subring, 0, self.field, self.qsys.base)) + coeff
        return RegroupedSeries(
            self.qsys.descriptor, self.qsys.descriptor.group, quotient,
            self.degree, self.field, self.qsys.base,
            {q: s for q, s in cosets.items() if s},
        )

    def multiply_series(self, f, g):
        return multiply_regrouped(f, g, self.qsys)


def check_morphism_extension(phi, eta, source, target, samples: int = 100, seed: int = 0,
                             series_map=None) -> Report:
    """Check the two extension conditions on sampled data:

      action-compatibility: phi(action1(x)(r)) == action2(eta(x))(phi(r))
      twist-compatibility:  phi(twist1(x, y)) == twist2(eta(x), eta(y))

    together with sampled ring-morphism checks for phi and group-morphism
    checks for eta. When everything holds and series_map is given, the
    induced map on series is verified to be multiplicative on sampled pairs
    (product computed on each side independently). The first failed
    condition is the witness; details count the samples checked and the
    multiplicative pairs."""
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
        r = source.sample_coeff(rng)
        s = source.sample_coeff(rng)
        if not target.coeff_eq(phi(source.coeff_add(r, s)), target.coeff_add(phi(r), phi(s))):
            return fail("phi-additive")
        if not target.coeff_eq(phi(source.coeff_mul(r, s)), target.coeff_mul(phi(r), phi(s))):
            return fail("phi-multiplicative")
        x = source.sample_group(rng)
        y = source.sample_group(rng)
        if eta(source.group_mul(x, y)) != target.group_mul(eta(x), eta(y)):
            return fail("eta-morphism")
        if not target.coeff_eq(phi(source.action(x, r)), target.action(eta(x), phi(r))):
            return fail("action-compatibility", x=str(x))
        if not target.coeff_eq(phi(source.twist(x, y)), target.twist(eta(x), eta(y))):
            return fail("twist-compatibility", x=str(x), y=str(y))
    if not target.coeff_eq(phi(source.coeff_one()), target.coeff_one()):
        return fail("phi-unital")

    if series_map is not None:
        for _ in range(max(1, samples // 10)):
            f = source.sample_series(rng)
            g = source.sample_series(rng)
            lhs = series_map(source.multiply_series(f, g))
            rhs = target.multiply_series(series_map(f), series_map(g))
            if lhs != rhs:
                return fail("induced-map-multiplicative")
            pairs += 1
    return report()
