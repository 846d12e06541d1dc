"""Shared independent oracles and random generators for the test suite.

The oracles deliberately avoid the library's own arithmetic: Heisenberg
products go through literal 3x3 matrix multiplication, semidirect products
through the affine 2x2 representation, and wreath products through a direct
dict-shift implementation, and the wreath order compares cell dicts at
their largest differing index. The value-class oracles work on plain fields:
the Heisenberg product formula on int triples, wreath products of cell
dicts, lattice sums of coordinate tuples, int residues mod p and Q(sqrt m)
as pairs of Fractions. The series oracle inverts by the plain geometric
expansion, built only from the public series operations. The word-image
oracles build every word from scratch, one product per letter, and the Magnus
oracle writes each inverse letter out as its truncated geometric series.
The word-parsing oracle reads a word's letters, checks their range, reduces
them and validates the word, each in its own pass.
The report oracles write rows, series files, reprs and the magnus report
the way the library did before rows() printed its own rows: each row's
coefficient formatted on its own after a sort keyed on (weight, element
string), every word spelled by str, and the digest and indented JSON taken
from json.dumps. The digit-sum oracle adds the powers of r in rational arithmetic, mask by
mask; the ping-pong oracle builds the whole orbit before testing it; the digit-membership oracle, reference_digit_sum_subset, searches the
subsets of powers top exponent first in rational arithmetic; and the
monoid-table oracle keys its entries by element strings, not by the
elements' own hashing. The crossed-validity oracle is the checker as it was
written with nested closures and a row table of panel products. The elimination oracles rewrite every entry of every
row they update, with no skipping of zero entries or zero heads, and
reference_rank_and_left_nullspace runs them on [M | I] in Fraction and field
arithmetic; sparse_rows gives the library the same matrix as sparse rows.
The test fixtures corrupt_twist and with_degree build objects the
library itself never needs. The dataclass twins are the value contract the
context, field and word classes and Report had as dataclasses: repr, ==,
hash and bool, to hold the tuple-backed classes to.
"""

import hashlib
import json
import random
from dataclasses import field, fields, make_dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter

from mnseries.crossed import CrossedSystem, SubgroupSeriesRing
from mnseries.report import COUNTEREXAMPLE, VERIFIED, Report, outcome
from mnseries.groups import HeisenbergElement, SemidirectElement, WreathElement, sample_monoid_element
from mnseries.magnus import LETTERS, FreeMonoid, FreeWord
from mnseries.scalars import QQ
from mnseries.series import GradedSeries, NoTruncatedInverseError


# --- Heisenberg oracle: upper unitriangular matrices ----------------------

def heis_to_matrix(g):
    return [[1, g.a, g.c], [0, 1, g.b], [0, 0, 1]]


def mat3_mul(m1, m2):
    return [
        [sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def heis_from_matrix(m):
    return HeisenbergElement(m[0][1], m[1][2], m[0][2])


def heis_product_oracle(g, h):
    return heis_from_matrix(mat3_mul(heis_to_matrix(g), heis_to_matrix(h)))


# --- semidirect oracle: affine maps z -> r^n z + h ------------------------

def semidirect_to_affine(g):
    return (g.ratio**g.n, g.h)


def semidirect_product_oracle(g, h):
    s1, t1 = semidirect_to_affine(g)
    s2, t2 = semidirect_to_affine(h)
    # composition of z -> s1 z + t1 after z -> s2 z + t2 applied second:
    # (g * h)(z) = g(h-part shifted): scale s1*s2, translation t1 + s1*t2
    return SemidirectElement(t1 + s1 * t2, g.n + h.n, g.ratio)


# --- wreath oracle: direct shift-merge on plain dicts ----------------------

def wreath_dict_product(f, n, g, m):
    """(f, n) * (g, m) on cell dicts: g's cells move up by n and add to f's,
    and a cell that reaches 0 goes."""
    out = dict(f)
    for i, v in g.items():
        out[i + n] = out.get(i + n, 0) + v
    return {i: v for i, v in out.items() if v}, n + m


def reference_wreath_mul(g, h):
    """g * h by wreath_dict_product and from_map's sort, independent of the
    bisect splice in WreathElement.__mul__."""
    return WreathElement.from_map(*wreath_dict_product(dict(g.cells), g.n, dict(h.cells), h.n))


def reference_wreath_compare(g, h):
    """The sign of g - h in the wreath order on cell dicts: n first, then the
    sign of the difference at the largest index where the maps differ."""
    if g.n != h.n:
        return 1 if g.n > h.n else -1
    mine, theirs = dict(g.cells), dict(h.cells)
    diff = [i for i in set(mine) | set(theirs) if mine.get(i, 0) != theirs.get(i, 0)]
    if not diff:
        return 0
    top = max(diff)
    return 1 if mine.get(top, 0) > theirs.get(top, 0) else -1


# --- value-class oracles: plain ints, dicts and Fractions --------------------
# Each takes and returns the fields of an element as plain values, so the
# element classes are checked against arithmetic that never builds one.

def heis_formula_product(g, h):
    """(a, b, c) * (x, y, z) = (a + x, b + y, c + z + a*y)."""
    (a, b, c), (x, y, z) = g, h
    return a + x, b + y, c + z + a * y


def heis_formula_inverse(g):
    a, b, c = g
    return -a, -b, a * b - c


def heis_formula_str(g):
    return "H(%d,%d,%d)" % tuple(g)


def wreath_dict_inverse(f, n):
    return {i - n: -v for i, v in f.items()}, -n


def wreath_dict_str(f, n):
    return "W({" + ",".join(f"{i}:{f[i]}" for i in sorted(f)) + f"}},{n})"


def lattice_sum(x, y):
    return tuple(a + b for a, b in zip(x, y))


def lattice_str(x):
    return ("Z(" if len(x) == 1 else f"Z{len(x)}(") + ",".join(map(str, x)) + ")"


def fp_ops(r, s, p):
    """Sum, difference, product, negation of r and r's inverse mod p (by
    Fermat, None at 0), all as residues in [0, p)."""
    return ((r + s) % p, (r - s) % p, r * s % p, -r % p,
            pow(r, p - 2, p) if r % p else None)


def quad_product(x, y, m):
    """(u + v sqrt m)(u' + v' sqrt m) on Fraction pairs."""
    (u, v), (s, t) = x, y
    return u * s + m * v * t, u * t + v * s


def quad_inverse(x, m):
    u, v = x
    norm = u * u - m * v * v
    return u / norm, -v / norm


def quad_str(x, m):
    u, v = x
    return f"{u}+{v}*sqrt({m})" if v >= 0 else f"{u}-{-v}*sqrt({m})"


# --- dataclass twins: the contract of the tuple-backed contexts --------------
# Each twin has the fields, defaults and class name of the class it stands
# for; all are frozen but Report's, which was a plain dataclass. FreeWord's
# length is its letter count, so the identity word is false.

def _frozen(name, *spec, **kwargs):
    return make_dataclass(name, spec, frozen=True, **kwargs)


DATACLASS_TWINS = {
    twin.__name__: twin
    for twin in (
        _frozen("Heisenberg"),
        _frozen("SemidirectGroup", ("ratio", Fraction, field(default=Fraction(2))),
                ("t_value", Fraction, field(default=Fraction(1)))),
        _frozen("WreathGroup"),
        _frozen("LatticeGroup", ("rank", int, field(default=1))),
        _frozen("RationalField"),
        _frozen("PrimeField", ("p", int)),
        _frozen("QuadraticField", ("radicand", int)),
        _frozen("SubgroupRing", ("group", object), ("subgroup_tag", str)),
        _frozen("FreeMonoid", ("size", int)),
        _frozen("FreeWord", ("size", int), ("letters", tuple),
                namespace={"__len__": lambda self: len(self.letters)}),
        make_dataclass("Report", (("kind", str), ("verdict", str), ("bounds", dict),
                                  ("witness", object, field(default=None)),
                                  ("details", dict, field(default_factory=dict)))),
    )
}


def dataclass_twin(value):
    """The dataclass twin of a context, field, word or report, built from its
    fields by name; a field holding such a value holds its twin."""
    twin = DATACLASS_TWINS[type(value).__name__]

    def convert(item):
        return dataclass_twin(item) if type(item).__name__ in DATACLASS_TWINS else item

    return twin(**{f.name: convert(getattr(value, f.name)) for f in fields(twin)})


# --- random series ----------------------------------------------------------

def random_series(context, degree, field, rng, n_terms=5, system=None, unit=False):
    terms = {}
    for _ in range(n_terms):
        g = sample_monoid_element(context, rng, degree)
        c = field.sample(rng)
        if c:
            terms[g] = terms.get(g, field.zero) + c
    terms = {g: c for g, c in terms.items() if c}
    if unit:
        terms[context.identity()] = field.sample_nonzero(rng)
    return GradedSeries(context, degree, terms, field, system)


def with_degree(f, new_degree):
    """f recontextualised at a degree at least its own, terms unchanged."""
    assert new_degree >= f.degree
    return GradedSeries(f.context, new_degree, dict(f.terms), f.field, f.system)


def corrupt_twist(system, at_pair, value):
    """Fuzz fixture: system with its twist set to value at one ordered pair
    of group elements."""
    x0, y0 = at_pair

    def twist(g, h):
        if (g, h) == (x0, y0):
            return value
        return system.twist(g, h)

    return CrossedSystem(f"corrupted:{system.id}", system.group, system.field,
                         system.action, twist)


def assert_one(series):
    ident = series.context.identity()
    assert list(series.terms) == [ident] and series.terms[ident] == series.field.one, (
        f"expected the unit series, got {series!r}"
    )


# --- series oracles ----------------------------------------------------------

def reference_invert(f):
    """Slow reference for GradedSeries.invert: write f = (1 + n) * (1 * u) and
    return (1 * u^-1) * (1 - n + n^2 - ...), every power a full series product
    and every partial sum a full series sum."""
    ctx, degree, field, system = f.context, f.degree, f.field, f.system
    ident = ctx.identity()
    u_inv = field.inv(f.coefficient(ident))
    n = GradedSeries(ctx, degree, {g: c * u_inv for g, c in f.terms.items() if g != ident},
                     field, system)
    geom = GradedSeries.one(ctx, degree, field, system)
    power = geom
    for _ in range(degree):
        power = (-n) * power
        if not power:
            break
        geom = geom + power
    return GradedSeries(ctx, degree, {ident: u_inv}, field, system) * geom


def assert_valid(series):
    """The validating constructor, given the terms of a series the trusted
    arithmetic built, rebuilds the same series: every term is nonzero, on
    the field, inside the context and within the degree."""
    rebuilt = GradedSeries(series.context, series.degree, dict(series.terms), series.field,
                           series.system)
    assert rebuilt == series, f"{series!r} does not survive validation"


# --- word-image oracles --------------------------------------------------------

def reference_magnus_image(word, degree, field=QQ):
    """Slow reference for the Magnus images: the product, left to right, of
    1 + letter for each letter and of the truncated geometric series
    1 - letter + letter^2 - ... for each inverse letter, word by word."""
    monoid = FreeMonoid(word.size)
    image = GradedSeries.one(monoid, degree, field)
    one = field.one
    for sym, sign in word.letters:
        letter = LETTERS[sym]
        # letter^j has weight j, so at degree 0 the letter factor is 1
        if sign == 1:
            terms = {"": one, letter: one} if degree else {"": one}
        else:
            terms = {}
            coeff = one
            for j in range(degree + 1):
                terms[letter * j] = coeff
                coeff = -coeff
        factor = GradedSeries(monoid, degree, terms, field)
        image = image * factor
    return image


def reference_word_image(word, units):
    """Slow reference for magnus.word_images on one word: the product, left
    to right, of units[i] for each letter i and of reference_invert(units[i])
    for each inverse letter, with no prefix shared between words."""
    first = units[0]
    image = GradedSeries.one(first.context, first.degree, first.field, first.system)
    for sym, sign in word.letters:
        image = image * (units[sym] if sign == 1 else reference_invert(units[sym]))
    return image


# --- word parsing oracle ----------------------------------------------------------

def _reference_free_word(size, letters):
    """FreeWord's validation as magnus.parse_word met it: the range and sign
    of each letter, then reducedness."""
    for sym, sign in letters:
        if not (0 <= sym < size) or sign not in (1, -1):
            raise ValueError(f"bad letter ({sym}, {sign}) for alphabet size {size}")
    for (s1, e1), (s2, e2) in zip(letters, letters[1:]):
        if s1 == s2 and e1 == -e2:
            raise ValueError("word is not reduced")
    return FreeWord(size, letters)


def _reference_word_reduce(raw, size: int):
    stack = []
    for sym, sign in raw:
        if stack and stack[-1][0] == sym and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((sym, sign))
    return _reference_free_word(size, tuple(stack))


def reference_parse_word(text: str, size: int | None = None):
    """magnus.parse_word as it was before it read a word in one walk: the
    letters first, then the size check, then word_reduce and FreeWord's
    validation, each its own pass."""
    text = text.strip()
    if not text:
        raise ValueError("empty word (the identity is written 1)")
    letters = []
    if text != "1":
        i, n = 0, len(text)
        while i < n:
            # a letter and its apostrophe are one key of the table
            end = i + 2 if text.startswith("'", i + 1) else i + 1
            letter = _REFERENCE_LETTER_SIGNS.get(text[i:end])
            if letter is None:
                raise ValueError(f"bad letter {text[i]!r} in word {text!r}")
            letters.append(letter)
            i = end
    if size is None:
        size = max((s for s, _ in letters), default=0) + 1
    for sym, _ in letters:
        if sym >= size:
            raise ValueError(f"letter {LETTERS[sym]!r} exceeds alphabet of size {size}")
    return _reference_word_reduce(letters, size)


_REFERENCE_LETTER_SIGNS = {**{ch: (sym, 1) for sym, ch in enumerate(LETTERS)},
                           **{ch + "'": (sym, -1) for sym, ch in enumerate(LETTERS)}}


# --- report oracles ------------------------------------------------------------

def reference_format(field, value):
    """A coefficient's text: str for the three fields, and for the N-series
    coefficient of a regrouped series "(c*n + ...)" over its reference rows."""
    if isinstance(field, SubgroupSeriesRing):
        return "(" + " + ".join(f"{c}*{elem_s}" for _, elem_s, c in reference_rows(value)) + ")"
    return str(value)


def reference_rows(f):
    """Slow reference for GradedSeries.rows: (checked weight, element string,
    coefficient) sorted by (weight, element string) alone, then each
    coefficient formatted on its own row."""
    ctx = f.context
    rows = sorted(((ctx.weight(g), ctx.format_element(g), c) for g, c in f.terms.items()),
                  key=itemgetter(0, 1))
    return [(w, elem_s, reference_format(f.field, c)) for w, elem_s, c in rows]


def reference_to_text(f):
    """The series file of a nonzero series: the header, then one line per
    reference row."""
    system = "trivial" if f.system is None else f.system.id
    lines = [f"monoid={f.context.id} D={f.degree} crossed={system}"]
    for w, elem_s, c in reference_rows(f):
        lines.append(f"{w}\t{elem_s}\t{c}")
    return "\n".join(lines) + "\n"


def reference_repr(f):
    """A series' repr: its first six reference rows as c*element."""
    if not f.terms:
        body = "0"
    else:
        body = " + ".join(f"{c}*{elem_s}" for _, elem_s, c in reference_rows(f)[:6])
        if len(f.terms) > 6:
            body += " + ..."
    return f"<series deg {f.degree} over {f.context.id}: {body}>"


def reference_magnus_report(words, degree, seed=0):
    """Slow reference for the JSON text of the magnus command on reduced
    words over one alphabet, with elapsed_ms 0: each image built by
    reference_magnus_image, each word spelled by str, the images' rows by
    reference_rows, the first pair (earlier word, later word) with equal
    images as the collision, and the digest and the text taken from
    json.dumps."""
    images = [reference_magnus_image(w, degree) for w in words]
    collision = None
    for j, later in enumerate(images):
        earlier = [i for i in range(j) if images[i].terms == later.terms]
        if earlier:
            collision = [str(words[earlier[0]]), str(words[j])]
            break
    payload = {
        "command": "magnus",
        "params": {"words": ",".join(str(w) for w in words), "D": degree, "seed": seed},
        "kind": "magnus",
        "bounds": {"L": max(len(w) for w in words), "D": degree, "N": None},
        "distinct": collision is None,
        "collision": collision,
        "images": [{"word": str(w), "terms": [list(row) for row in reference_rows(image)]}
                   for w, image in zip(words, images)],
        "schema": "mnseries-report/1",
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["digest"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    payload["elapsed_ms"] = 0
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- verifier oracles ----------------------------------------------------------

def reference_check_crossed_system(system, sample_count=200, seed=0):
    """crossed.check_crossed_system as it was written before it became one
    case loop: nested closures, a row table of panel products and twists,
    and separate panel and sample call sequences. Kept as the oracle its
    whole reports are compared against, with only the rule that a twist is
    a unit of its ring added since: one its ring's inv refuses, or one whose
    computation raises, is the nonzero-twist witness at its own pair, so a
    row of twists is made one entry at a time, as its triples need them."""
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

    class Refused(Exception):
        pass

    def twist(x, y):
        # a twist that cannot be computed is refused at its pair (x, y)
        try:
            return system.twist(x, y)
        except (ZeroDivisionError, NoTruncatedInverseError):
            raise Refused(x, y)

    def check_pairs(x, y, xy, tw):
        # xy and tw are multiply(x, y) and twist(x, y)
        nonlocal checked
        checked += 1
        if twist(ident, x) != field.one or twist(x, ident) != field.one:
            return violation_at("normalization", ident, x)
        # a twist is a unit of its ring, so a twist the ring's inv refuses
        # (zero, or a nonzero non-unit N-series) is this pair's violation
        try:
            tw_inv = field.inv(tw)
        except (ZeroDivisionError, NoTruncatedInverseError):
            return violation_at("nonzero-twist", x, y)
        # action consistency: acting by x then y equals acting by xy up to
        # conjugation by the twist (which is trivial in a commutative field,
        # but stated in full)
        for r in scalars:
            lhs = system.action(y, system.action(x, r))
            rhs = tw_inv * system.action(xy, r) * tw
            if lhs != rhs:
                return violation_at("action", x, y)
        return None

    def check_triple(x, y, z, xy, tw, yz, tw_yz):
        # yz and tw_yz are multiply(y, z) and twist(y, z)
        nonlocal checked
        checked += 1
        lhs = twist(xy, z) * system.action(z, tw)
        rhs = twist(x, yz) * tw_yz
        if lhs != rhs:
            return violation_at("cocycle", x, y, z)
        return None

    def product_and_twist(x, y):
        return group.multiply(x, y), twist(x, y)

    def check_all():
        panel = group.panel_elements()
        # (multiply(y, z), twist(y, z)) for every z in the panel, one row per
        # y, each entry made when first needed
        rows = [[None] * len(panel) for _ in panel]
        for x in panel:
            for j, y in enumerate(panel):
                xy, tw = product_and_twist(x, y)
                bad = check_pairs(x, y, xy, tw)
                if bad:
                    return bad
                row = rows[j]
                for k, z in enumerate(panel):
                    if row[k] is None:
                        row[k] = product_and_twist(y, z)
                    bad = check_triple(x, y, z, xy, tw, *row[k])
                    if bad:
                        return bad
        for _ in range(sample_count):
            x = group.sample_element(rng)
            y = group.sample_element(rng)
            z = group.sample_element(rng)
            xy, tw = product_and_twist(x, y)
            bad = (check_pairs(x, y, xy, tw)
                   or check_triple(x, y, z, xy, tw, *product_and_twist(y, z)))
            if bad:
                return bad
        return report()

    if system.action(ident, scalars[-1]) != scalars[-1]:
        return report({"identity": "normalization", "x": fmt(ident)})
    try:
        return check_all()
    except Refused as refused:
        return violation_at("nonzero-twist", *refused.args)


def reference_digit_sum_check(r, max_exponent):
    """Slow reference for freeness.digit_sum_check (valid inputs only): every
    mask's sum of r**i recomputed from scratch in Fraction arithmetic, masks in
    increasing order, the first repeated sum giving the witness."""
    r = Fraction(r)
    powers = [r**i for i in range(max_exponent + 1)]
    bounds = {"L": None, "D": None, "N": max_exponent}
    seen = {}
    collision = None
    for mask in range(1, 1 << (max_exponent + 1)):
        total = Fraction(0)
        for i in range(max_exponent + 1):
            if mask >> i & 1:
                total += powers[i]
        if total in seen:
            collision = (seen[total], mask, total)
            break
        seen[total] = mask
    details = {"r": str(r), "sums": len(seen)}
    if collision is None:
        return Report("digit-sum", VERIFIED, bounds, None, details)
    m1, m2, total = collision
    subsets = [[i for i in range(max_exponent + 1) if m >> i & 1] for m in (m1, m2)]
    witness = {"subsets": subsets, "sum": str(total)}
    return Report("digit-sum", COUNTEREXAMPLE, bounds, witness, details)


def reference_digit_sum_subset(q: Fraction, ratio: Fraction, max_exponent: int):
    """Exponents 0 <= e <= max_exponent with sum of distinct ratio**e equal to q.

    Returns the ascending exponent tuple or None. Searches top exponent first
    with interval pruning, in Fraction arithmetic; exponential in
    max_exponent. The reference for groups.digit_expansion at every ratio.
    """
    if q < 0:
        return None
    if q == 0:
        return ()
    powers = [ratio**e for e in range(max_exponent + 1)]
    # prefix[e] is the sum of powers[0..e], the most that exponents <= e can add
    prefix = [Fraction(0)] * (max_exponent + 1)
    running = Fraction(0)
    for e in range(max_exponent + 1):
        running += powers[e]
        prefix[e] = running

    def search(e, remaining, taken):
        if remaining == 0:
            return taken
        if e < 0 or remaining < 0 or remaining > prefix[e]:
            return None
        with_e = search(e - 1, remaining - powers[e], taken + (e,))
        if with_e is not None:
            return with_e
        return search(e - 1, remaining, taken)

    result = search(max_exponent, q, ())
    if result is None:
        return None
    return tuple(sorted(result))


def reference_pingpong_check(group, t_value, max_length, digits, product=semidirect_product_oracle):
    """Slow reference for freeness.pingpong_check (valid inputs only), with
    membership in A answered by digits(x, ratio): the whole orbit built first
    through product (the affine product oracle unless a test hands in a
    faulty one), then every orbit element, its tx-image and its x-image
    asked about in orbit order, the first failure giving the witness. The
    translate sets cannot meet once every tx-image carries the exponent-0
    digit and no x-image does, so that test is left out."""
    r = group.ratio
    t_value = Fraction(t_value)
    tx = group.element(t_value, 1)
    x = group.element(0, 1)
    orbit = [group.element(t_value, 0)]
    level = orbit
    for _ in range(max_length):
        level = [product(a, e) for e in level for a in (tx, x)]
        orbit = orbit + level

    def in_A(g):
        return None if g.n < 0 else digits(g.h / t_value, r)

    witness = None
    checked = 0
    for e in orbit:
        te, xe = product(tx, e), product(x, e)
        td, xd = in_A(te), in_A(xe)
        if in_A(e) is None:
            witness = {"reason": "orbit element left A", "element": str(e)}
        elif td is None or 0 not in td:
            witness = {"reason": "tx-image missing the exponent-0 digit", "element": str(te)}
        elif xd is None or 0 in xd:
            witness = {"reason": "x-image carries the exponent-0 digit", "element": str(xe)}
        if witness is not None:
            break
        checked += 1
    details = {"r": str(r), "t": str(t_value), "orbit": len(orbit), "checked": checked}
    return Report("ping-pong", VERIFIED if witness is None else COUNTEREXAMPLE,
                  {"L": max_length, "D": None, "N": None}, witness, details)


def reference_enumerate_monoid(group, generators, max_length):
    """Slow reference for groups.enumerate_monoid: every word, not only those
    of distinct elements, multiplied out in (length, lex) order, with the
    table keyed by canonical element strings. Returns (element string, word
    list) pairs in discovery order; its length is the element count, and its
    first entry with two words is the collision."""
    identity = group.identity()
    table = {group.format_element(identity): [()]}
    level = [(identity, ())]
    for _ in range(max_length):
        next_level = []
        for elt, word in level:
            for i, gen in enumerate(generators):
                product = group.multiply(elt, gen)
                key = group.format_element(product)
                if key not in table:
                    table[key] = []
                table[key].append(word + (i,))
                next_level.append((product, word + (i,)))
        level = next_level
    return list(table.items())


# --- elimination oracles ---------------------------------------------------------

def reference_eliminate_int(rows, pivot_cols):
    """Dense fraction-free (Bareiss) elimination on integer rows, pivoting on
    the given columns: every entry of every row below the pivot rewritten,
    zero-head rows included. In place; returns the rank."""
    if not rows:
        return 0
    pr = 0
    prev = 1
    for pc in pivot_cols:
        pivot_row = None
        for i in range(pr, len(rows)):
            if rows[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        row_p = rows[pr]
        width = len(row_p)
        for i in range(pr + 1, len(rows)):
            row_i = rows[i]
            head = row_i[pc]
            for j in range(width):
                row_i[j] = (row_i[j] * piv - head * row_p[j]) // prev
        prev = piv
        pr += 1
        if pr == len(rows):
            break
    return pr


def reference_eliminate_field(rows, pivot_cols, field):
    """Dense Gaussian elimination over a field, pivoting on the given
    columns: every column of every row with a nonzero head rewritten,
    including those where the pivot row is zero. In place; returns the
    rank."""
    if not rows:
        return 0
    zero = field.zero
    pr = 0
    for pc in pivot_cols:
        pivot_row = None
        for i in range(pr, len(rows)):
            if rows[i][pc] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        row_p = rows[pr]
        width = len(row_p)
        for i in range(pr + 1, len(rows)):
            row_i = rows[i]
            head = row_i[pc]
            if head != zero:
                factor = head / piv
                for j in range(width):
                    row_i[j] = row_i[j] - factor * row_p[j]
        pr += 1
        if pr == len(rows):
            break
    return pr


def sparse_rows(matrix):
    """A dense matrix as linalg.rank_and_left_nullspace takes it: each row
    as a dict of its nonzero entries by column index ({} for an all-zero
    row), and the column count."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    return rows, len(matrix[0]) if matrix else 0


def reference_rank_and_left_nullspace(matrix, field):
    """Slow reference for linalg.rank_and_left_nullspace: the dense kernels
    above on [M | I]. Over Q each row is cleared of denominators as a whole
    and eliminated fraction-free, so the dependency is the Bareiss row's
    identity part; over the other fields it is the identity part left by
    Gaussian elimination, with entry 1 at its own row."""
    if not matrix:
        return 0, None
    n_rows, n_cols = len(matrix), len(matrix[0])
    rows = [list(row) + [field.one if j == i else field.zero for j in range(n_rows)]
            for i, row in enumerate(matrix)]
    if field == QQ:
        rows = [[Fraction(x) for x in row] for row in rows]
        cleared = []
        for row in rows:
            denom = 1
            for x in row:
                denom = denom * x.denominator // gcd(denom, x.denominator)
            cleared.append([int(x * denom) for x in row])
        rows = cleared
        rank = reference_eliminate_int(rows, range(n_cols))
    else:
        rank = reference_eliminate_field(rows, range(n_cols), field)
    if rank == n_rows:
        return rank, None
    return rank, rows[rank][n_cols:]
