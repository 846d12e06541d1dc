"""Truncated series over graded monoids, with optional crossed-product twisting.

A series lives over a support context: either a graded positive monoid (one
of the built-in groups' designated monoids, or the free monoid on an
alphabet), or an ungraded "ring" context over a whole group or subgroup.
Graded contexts carry an additive weight that is zero only at the identity,
which is what makes truncation at a fixed degree exact: no product of terms
with weight-sum above the degree can contribute at or below it. Ungraded
contexts assign weight zero to everything and never truncate; their series
are finitely supported group-ring elements and all arithmetic is exact.

Multiplication follows the crossed-product rule: the coefficient of x in f*g
is the sum of twist(y,z) * action(z)(a_y) * b_z over factorizations yz = x.
A series with no attached system multiplies as a plain (monoid or group)
ring element.

A series is exactly its five constructor fields. The weight of a term is a
function of the element alone, so nothing stores it: each context has an
unchecked grade(g), the additive weight of an element already known to lie in
it, and a checked weight(g), membership first and then the grade. Validation
asks weight once per term; the arithmetic, whose terms come from validated
series, reads grade. The constructor always validates; only this module's
arithmetic builds its results as plain tuples of the five fields.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import attrgetter, itemgetter

from .groups import NotInMonoidError
from .report import Rows
from .scalars import (QQ, PrimeField, PrimeFieldElement, RationalField, TupleValue, field_from_spec,
                      field_of_text)


class ContextMismatchError(ValueError):
    """Operands disagree on monoid, degree, field or crossed system."""


class NoTruncatedInverseError(ValueError):
    """The identity coefficient is zero or not a unit (or the context is
    ungraded)."""


def _check_degree(degree):
    """Refuse a truncation degree that is not a nonnegative int (a bool is
    not one)."""
    if type(degree) is not int or degree < 0:
        raise ValueError(f"degree must be a nonnegative int, got {degree!r}")


class SubgroupRing(TupleValue):
    """Ungraded support context over a named subgroup: finite-support exact
    mode. The coefficients of regrouped series are series over it, and tag
    "G" gives the whole group's ring."""

    __slots__ = ()
    _fields = ("group", "subgroup_tag")

    graded = False

    def __new__(cls, group, subgroup_tag):
        return tuple.__new__(cls, (group, subgroup_tag))

    @property
    def id(self) -> str:
        return f"ring:{self.group.id}:{self.subgroup_tag}"

    def identity(self):
        return self.group.identity()

    def multiply(self, g, h):
        return self.group.multiply(g, h)

    def in_monoid(self, g) -> bool:
        return self.group.contains(g) and self.group.subgroup_contains(self.subgroup_tag, g)

    def weight(self, g) -> int:
        if not self.in_monoid(g):
            raise NotInMonoidError(f"{g} is outside {self.id}")
        return self.grade(g)

    def grade(self, g) -> int:
        return 0

    def format_element(self, g) -> str:
        return self.group.format_element(g)


def group_of(context):
    """The group under a support context: a subgroup ring's group, or the
    context itself."""
    return getattr(context, "group", context)


def _system_id(system) -> str:
    return "trivial" if system is None else system.id


_residue = attrgetter("residue")

_denominator = attrgetter("denominator")

_weight, _element_string = itemgetter(0), itemgetter(1)


def _ratio(n, d: int):
    """The exact ratio n / d of an int or Fraction n and a nonzero int d: an
    int when it is integral, else a Fraction in lowest terms."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _exact_ratios(out, terms, num: int, den: int):
    """out with each term g: a of terms written in as the exact ratio
    num * a / den, made once per distinct numerator a (an int, or a Fraction
    when a twist is not an integer) and shared by the terms that have it."""
    ratios = {}
    for g, a in terms.items():
        q = ratios.get(a)
        if q is None:
            q = ratios[a] = _ratio(num * a, den)
        out[g] = q
    return out


# the product table of the word-image evaluation under way, as (context,
# rows h -> {g: g*h}, intern x -> x), or None. It is module state, not a
# parameter, so that word_images multiplies with * and whatever wraps or
# patches __mul__ or a group's multiply still sees every product; the
# process runs one evaluation at a time.
_shared = None


class shared_products:
    """Context manager under which every product of two series over context
    takes each group product g*h from one table: made by context.multiply on
    its first use only, and kept as one object per distinct product, so the
    term maps' dict hits compare keys by identity. Products over any other
    context are made as outside it. On exit, also on an exception, the table
    is dropped and the one open before it, if any, is restored."""

    __slots__ = ("context", "previous")

    def __init__(self, context):
        self.context = context

    def __enter__(self):
        global _shared
        self.previous = _shared
        _shared = (self.context, {}, {})

    def __exit__(self, *exc_info):
        global _shared
        _shared = self.previous


class GradedSeries(TupleValue):
    """Finite term map from support elements to nonzero scalars, truncated at
    a fixed degree: a TupleValue of (context, degree, terms, field, system),
    so operations return new series. Any trivial system is stored as None,
    so systems compare with ==.

    Each term is checked in __new__: zero coefficients are dropped, and a
    term outside the context, off the field or above the degree is refused.
    Only this module's arithmetic, which vouches for its terms, builds a
    series around validation, in _with. Copies and pickles rebuild a series
    from its fields, through validation.

    A series hashes on its context, degree and terms: the term map is a
    dict, so the tuple's own hash would refuse it. It is true when it has a
    term, where a 5-tuple is always true."""

    __slots__ = ()
    _fields = ("context", "degree", "terms", "field", "system")

    def __new__(cls, context, degree, terms, field, system=None):
        _check_degree(degree)
        if system is not None and system.is_trivial:
            system = None
        if system is not None and system.group != group_of(context):
            raise ContextMismatchError(
                f"crossed system {system.id} does not act on context {context.id}"
            )
        clean = {}
        for g, coeff in terms.items():
            if not coeff:
                continue
            try:
                w = context.weight(g)
            except NotInMonoidError:
                raise ValueError(
                    f"support element {context.format_element(g)} outside context {context.id}"
                ) from None
            if not field.contains(coeff):
                raise ContextMismatchError(
                    f"coefficient {coeff!r} is not in field {field.name}"
                )
            if w > degree:
                raise ValueError(
                    f"term {context.format_element(g)} exceeds degree {degree}"
                )
            clean[g] = coeff
        return tuple.__new__(cls, (context, degree, clean, field, system))

    def __hash__(self):
        return hash((self.context, self.degree, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context, degree, field, system=None):
        return cls(context, degree, {}, field, system)

    @classmethod
    def one(cls, context, degree, field, system=None):
        return cls(context, degree, {context.identity(): field.one}, field, system)

    # -- basic protocol ----------------------------------------------------

    def _compatible(self, other):
        if not isinstance(other, GradedSeries):
            raise ContextMismatchError(f"not a series: {other!r}")
        if self.context is not other.context and self.context != other.context:
            raise ContextMismatchError(
                f"mixed support contexts {self.context.id} and {other.context.id}"
            )
        if self.degree != other.degree:
            raise ContextMismatchError(
                f"mixed truncation degrees {self.degree} and {other.degree}"
            )
        if self.field is not other.field and self.field != other.field:
            raise ContextMismatchError(
                f"mixed coefficient fields {self.field.name} and {other.field.name}"
            )
        if self.system != other.system:
            raise ContextMismatchError(
                f"mixed crossed systems {_system_id(self.system)} and {_system_id(other.system)}"
            )

    def coefficient(self, g):
        return self.terms.get(g, self.field.zero)

    def identity_coefficient(self):
        return self.coefficient(self.context.identity())

    def rows(self):
        """(weight, element string, coefficient string) triples in canonical
        (weight, element string) order, as report.Rows: every context's grade
        is an int and its element and coefficient strings are str, which the
        report writer trusts. The order comes from two stable sorts on plain
        keys, by element string and then by weight; no two elements print
        alike, so it is the order of the sorted triples."""
        ctx, terms = self.context, self.terms
        rows = Rows(zip(map(ctx.grade, terms), map(ctx.format_element, terms),
                        map(self.field.format, terms.values())))
        rows.sort(key=_element_string)
        rows.sort(key=_weight)
        return rows

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"{c}*{elem_s}" for _, elem_s, c in self.rows()[:6])
            if len(self.terms) > 6:
                body += " + ..."
        return f"<series deg {self.degree} over {self.context.id}: {body}>"

    # -- arithmetic --------------------------------------------------------

    def _with(self, terms, degree=None):
        """A series like self with the given terms, which the caller vouches
        for, at self's degree unless another (int) is given; built as the
        tuple of its fields, without validation."""
        return tuple.__new__(GradedSeries, (self.context, self.degree if degree is None else degree,
                                            terms, self.field, self.system))

    def __add__(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            s = terms.get(g)
            s = c if s is None else s + c
            if s:
                terms[g] = s
            else:
                terms.pop(g, None)
        return self._with(terms)

    def __neg__(self):
        return self._with({g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        """Right multiplication by a scalar (termwise, exact). Over Q each
        distinct coefficient's product is made once, as an exact ratio,
        which the terms with that coefficient share."""
        field = self.field
        if not field.contains(value):
            raise ContextMismatchError(f"scalar {value!r} is not in field {field.name}")
        if not value:
            return self._with({})
        if isinstance(field, RationalField):
            return self._with(_exact_ratios({}, self.terms, value.numerator, value.denominator))
        return self._with({g: c * value for g, c in self.terms.items()})

    def __mul__(self, other):
        self._compatible(other)
        ctx = self.context
        multiply = ctx.multiply
        system = self.system
        degree = self.degree
        grade = ctx.grade
        # while word_images evaluates over this context, g*h is row[g] of
        # the table's row for h, made once and interned; elsewhere row is None
        if _shared is not None and _shared[0] is ctx:
            _, rows, intern = _shared
        else:
            rows = None
        row = None
        # over F_p with no system the loop multiplies and sums the terms'
        # int residues, and each output sum is reduced mod p once at the end
        residues = system is None and isinstance(self.field, PrimeField)
        terms = self.terms
        values, right = terms.values(), iter(other.terms.items())
        if residues:
            values = map(_residue, values)
            right = zip(other.terms, map(_residue, other.terms.values()))
        # by ascending grade, so the scan over the left factor stops at the
        # first term whose product with h would exceed the degree
        left = sorted(zip(map(grade, terms), terms, values), key=itemgetter(0))
        # with no system, a right factor whose first term is the identity
        # (the one element of grade 0 in a graded context) adds g * 1 = g
        # with a * b for every left term: the output starts as that one pass
        if system is None and ctx.graded and other.terms and not grade(next(iter(other.terms))):
            _, b = next(right)
            out = {g: a * b for _, g, a in left}
        else:
            out = {}
        for h, b in right:
            top = degree - grade(h)
            if rows is not None:
                row = rows.setdefault(h, {})
            for wg, g, a in left:
                if wg > top:
                    break
                if row is None:
                    x = multiply(g, h)
                else:
                    x = row.get(g)
                    if x is None:
                        x = multiply(g, h)
                        x = row[g] = intern.setdefault(x, x)
                if system is None:
                    contrib = a * b
                else:
                    contrib = system.twist(g, h) * system.action(h, a) * b
                s = out.get(x)
                s = contrib if s is None else s + contrib
                if s:
                    out[x] = s
                else:
                    out.pop(x, None)
        if residues:
            p = self.field.p
            out = {x: PrimeFieldElement(r, p) for x, s in out.items() if (r := s % p)}
        return self._with(out)

    def truncated(self, new_degree: int):
        """Explicit copy at a lower degree; refuses to drop nothing silently."""
        _check_degree(new_degree)
        if new_degree > self.degree:
            raise ValueError(f"cannot truncate degree {self.degree} to the higher "
                             f"degree {new_degree}")
        grade = self.context.grade
        return self._with({g: c for g, c in self.terms.items() if grade(g) <= new_degree},
                          new_degree)

    def invert(self):
        """Truncated two-sided inverse, defined when the identity coefficient
        is a unit u of the coefficient field or ring (field.inv inverts it or
        raises). Solves g * f = 1 weight by weight. Write f = identity * u + n
        with n of strictly positive weight. Every system has twist(h, 1) = 1
        and action(1) = id, so g * (identity * u) scales each term of g on the
        right by u, and g = identity * u^-1 + g * m with m = -n * u^-1, scaled
        termwise on the right (quotient-system coefficients do not commute).
        The terms of g * m of weight w read only the layers of g below w, so
        each finished layer below the degree, times m, feeds the layers above
        it. The identity term comes first.

        Over Q the layers are kept on integers. With (d, F) = cleared(),
        F = d * f is integral, U = d * u, and layer w of g is d * A_w /
        U^(w+1) for the numerators A_0 = 1 and A_w = sum over j < w of
        (A_j * M)_w * U^(w-1-j), where M = U * 1 - F is the negated positive
        part of F. The identity is Q's only automorphism, so a system over Q
        acts trivially and the scalars commute with the product. Each A_j * M
        is one series product, and the coefficients of every layer, layer 0
        included, are made as one exact ratio d * a / U^(w+1) per distinct
        numerator a of A_w, an int when it is integral, which the terms with
        that numerator share. A_w holds Fractions only when a twist is not an
        integer."""
        ctx, field = self.context, self.field
        if not ctx.graded:
            raise NoTruncatedInverseError(
                "no truncated inverse: ungraded context has no positive-weight split"
            )
        ident = ctx.identity()
        u = self.identity_coefficient()
        if not u:
            raise NoTruncatedInverseError("no truncated inverse: identity coefficient is zero")
        # field.inv refuses a coefficient that is not a unit, on every field
        u_inv = field.inv(u)
        terms = {}
        if not isinstance(field, RationalField):
            m = self._with({g: -(c * u_inv) for g, c in self.terms.items() if g != ident})
            for layer in self._inverse_layers(u_inv, m, None):
                terms.update(layer)
            return self._with(terms)
        d, cleared = self.cleared()
        unit = cleared.terms[ident]
        powers = [1]
        for _ in range(self.degree + 1):
            powers.append(powers[-1] * unit)
        m = self._with({g: -c for g, c in cleared.terms.items() if g != ident})
        # each layer's numerators repeat heavily, so each distinct one's
        # ratio is made once
        for w, layer in enumerate(self._inverse_layers(1, m, powers)):
            _exact_ratios(terms, layer, d, powers[w + 1])
        return self._with(terms)

    def cleared(self):
        """(d, d * self) for the least common denominator d of the
        coefficients over Q, so the series has integer coefficients, in
        self's term order; (1, self) over every other field."""
        if not isinstance(self.field, RationalField):
            return 1, self
        d = lcm(*map(_denominator, self.terms.values()))
        return d, self._with({g: c.numerator * (d // c.denominator) for g, c in self.terms.items()})

    def _inverse_layers(self, seed, m, powers):
        """invert's solution as its list of layers, entry w the nonzero terms
        of weight w, from layer 0, the identity times seed: each layer j below
        the degree, times m, adds its terms of weight w to layer w, scaled by
        powers[w - 1 - j] unless powers is None."""
        grade = self.context.grade
        degree = self.degree
        layers = [{self.context.identity(): seed}] + [{} for _ in range(degree)]
        for j in range(degree):
            layer = layers[j] = {g: c for g, c in layers[j].items() if c}
            if not layer:
                continue
            product = self._with(layer) * m
            for g, c in product.terms.items():
                w = grade(g)
                if powers is not None:
                    c *= powers[w - 1 - j]
                above = layers[w]
                s = above.get(g)
                above[g] = c if s is None else s + c
        layers[degree] = {g: c for g, c in layers[degree].items() if c}
        return layers


# ---------------------------------------------------------------------------
# module-level operations


def summable_sum(family) -> GradedSeries:
    """Termwise sum of a finite family sharing one context."""
    items = list(family)
    if not items:
        raise ValueError("summable_sum needs a nonempty family")
    total = items[0]
    for f in items[1:]:
        total = total + f
    return total


def unit_generators(context, scalars, degree: int, field) -> tuple:
    """The units 1 + s*g over a graded context, one for each of its monoid
    generators g in order, with s the matching scalar: as many scalars as
    generators, each in the field the caller names, or ValueError, also at
    degree 0, where each unit is 1, as every monoid generator has weight 1.
    They invert at any degree."""
    one = {context.identity(): field.one}
    units = []
    for g, s in zip(context.monoid_generators(), scalars, strict=True):
        if not field.contains(s):
            raise ContextMismatchError(f"scalar {s!r} is not in field {field.name}")
        units.append(GradedSeries(context, degree, {**one, g: s} if degree else one, field))
    return tuple(units)


# ---------------------------------------------------------------------------
# text format

def to_text(f: GradedSeries) -> str:
    """One term per line "weight<TAB>element<TAB>coefficient", sorted by
    (weight, element string), under a header naming monoid, degree and
    crossed system. A series with no term has no coefficient to name its
    field, so its header ends in " field=<name>" unless the field is Q."""
    header = f"monoid={f.context.id} D={f.degree} crossed={_system_id(f.system)}"
    if not f.terms and f.field != QQ:
        header += f" field={f.field.name}"
    return "\n".join([header, *(f"{w}\t{elem_s}\t{c}" for w, elem_s, c in f.rows())]) + "\n"


def from_text(text: str, monoid_resolver, crossed_resolver):
    """Parse the text format and accept it only as the exact bytes to_text
    writes for the parsed series, so accepted files round-trip byte-exactly.
    The coefficient field is inferred from the first coefficient's syntax,
    and that field parses every coefficient, so a coefficient from another
    field is refused. A series with no term is over the field its header's
    optional " field=<spec>" names, and over Q without one; to_text writes
    field= nowhere else, so the round-trip check refuses it there.

    Each distinct coefficient text is parsed once, at its first line, and
    the terms that spell it alike share the value.

    Returns the parsed series; a crossed system other than "trivial" is
    attached through crossed_resolver(crossed_id, field), and validation
    refuses it when it does not act on the header's monoid."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty series text")
    m = re.match(r"^monoid=(\S+) D=(\d+) crossed=(\S+)(?: field=(\S+))?$", lines[0])
    if not m:
        raise ValueError(f"bad series header: {lines[0]!r}")
    context = monoid_resolver(m.group(1))
    crossed_id = m.group(3)
    field = QQ if m.group(4) is None else field_from_spec(m.group(4))
    terms = {}
    parsed = {}
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise ValueError(f"bad series line: {ln!r}")
        g = context.parse_element(parts[1])
        if not terms:
            # the first coefficient's syntax names the field, built once
            field = field_of_text(parts[2])
        c = parsed.get(parts[2])
        if c is None:
            c = parsed[parts[2]] = field.parse(parts[2])
        terms[g] = c
    system = None if crossed_id == "trivial" else crossed_resolver(crossed_id, field)
    # validation checks each term's membership, the one search per term
    series = GradedSeries(context, int(m.group(2)), terms, field, system)
    canonical = to_text(series)
    if canonical != text:
        raise ValueError(f"series text is not in canonical form: {_first_difference(text, canonical)}")
    return series


def _first_difference(text: str, canonical: str) -> str:
    """The first line (1-based, with its line end) where text departs from
    the canonical text."""
    read = text.splitlines(keepends=True)
    written = canonical.splitlines(keepends=True)
    for number, (got, want) in enumerate(zip(read, written), 1):
        if got != want:
            return f"line {number} reads {got!r} where the canonical line is {want!r}"
    number = min(len(read), len(written)) + 1
    if len(read) < len(written):
        return f"line {number} is missing; the canonical line is {written[number - 1]!r}"
    return f"line {number} is extra: {read[number - 1]!r}"
