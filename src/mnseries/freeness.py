"""The verification suite: free-submonoid collision checks, digit-sum
uniqueness, ping-pong certificates, the explicit generator constructions for
the three order types, and exact linear-independence certification of unit
groups inside truncated series rings.

Every verdict is scoped by explicit bounds (word length L, truncation degree
D, exponent range N) recorded in the report. "verified-up-to-bound" means an
exhaustive check below those bounds passed; "counterexample" carries a
witness that re-verifies independently; "inconclusive-at-D" (group-algebra
checks only) means the truncations became dependent. That is not a
counterexample, and no larger degree is promised to separate the words: a
dependency can be an exact relation of the monoid algebra, as xyyx = yxxy in
heis makes the words of length at most 4 dependent at every D >= 4.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .groups import enumerate_monoid, monoid_word_count
from .linalg import rank_and_left_nullspace
from .magnus import enumerate_reduced_words, word_images
from .report import INCONCLUSIVE, VERIFIED, InvariantError, Report, outcome
from .scalars import rational_power
from .series import GradedSeries, unit_generators


class GuardLimitError(ValueError):
    """A bound exceeds the exponential-blowup guard."""


def _word_name(word, names) -> str:
    return "".join(names[i] for i in word) if word else "1"


def _default_names(count: int):
    if count <= 6:
        return "xyzuvw"[:count]
    return [f"g{i}" for i in range(count)]


# ---------------------------------------------------------------------------
# free monoids inside groups


def free_monoid_check(group, generators, max_length: int) -> Report:
    """Check every generator word of length at most max_length; verified
    when the word-to-element map is injective, otherwise the first collision
    (in discovery order) is the witness."""
    if len(generators) < 2:
        raise ValueError("free monoid check needs at least two generators")
    if max_length < 0:
        raise ValueError("max length must be nonnegative")
    names = _default_names(len(generators))
    elements, collision = enumerate_monoid(group, generators, max_length)
    bounds = {"L": max_length, "D": None, "N": None}
    witness = None
    if collision is not None:
        elt, w1, w2 = collision
        # the witness re-verifies: both words multiply back to the same element
        product = _evaluate_word(group, generators, w1)
        if not product == _evaluate_word(group, generators, w2) == elt:
            raise InvariantError("monoid collision witness failed re-verification")
        witness = {
            "words": [_word_name(w1, names), _word_name(w2, names)],
            "element": group.format_element(elt),
        }
    return outcome("monoid", bounds, witness,
                   {"generators": [group.format_element(g) for g in generators],
                    "group": group.id, "elements": elements,
                    "words": monoid_word_count(len(generators), max_length)})


def _evaluate_word(group, generators, word):
    out = group.identity()
    for i in word:
        out = group.multiply(out, generators[i])
    return out


# ---------------------------------------------------------------------------
# digit sums


def digit_sum_check(r: Fraction, max_exponent: int) -> Report:
    """Exact subset-sum distinctness: every nonempty S in {0..N} gives the
    sum of r**i over S; verified when all 2^(N+1)-1 sums are pairwise
    distinct, otherwise the first repeated sum in increasing mask order is
    the witness. The sums are exact integers over the common denominator
    q**N of r = p/q; the witness re-verifies in rational arithmetic, and the
    verdict is checked against the rational root theorem. N above 20 is
    rejected (exponential blowup guard)."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("digit-sum ratio must be positive")
    if max_exponent > 20:
        raise GuardLimitError(f"N={max_exponent} exceeds the guard limit 20")
    if max_exponent < 0:
        raise ValueError("max exponent must be nonnegative")
    bounds = {"L": None, "D": None, "N": max_exponent}
    # r**i = p**i * q**(N-i) / q**N: the subset sums are integer sums of
    # these weights over the common denominator q**N
    p, q = r.numerator, r.denominator
    weights = [p**i * q ** (max_exponent - i) for i in range(max_exponent + 1)]
    collision, distinct = _first_repeated_sum(weights)
    # the second route: by the rational root theorem, two subset sums of
    # powers of a positive rational r are equal exactly when r = 1 and N >= 1
    if (collision is not None) != (r == 1 and max_exponent >= 1):
        raise InvariantError(f"digit-sum scan at r={r}, N={max_exponent} disagrees with "
                             "the rational root theorem")
    witness = None
    if collision is not None:
        m1, m2, total = collision
        total = Fraction(total, q**max_exponent)
        s1 = [i for i in range(max_exponent + 1) if m1 >> i & 1]
        s2 = [i for i in range(max_exponent + 1) if m2 >> i & 1]
        # the witness re-verifies in rational arithmetic
        powers = [rational_power(r, i) for i in range(max_exponent + 1)]
        if not sum(powers[i] for i in s1) == sum(powers[i] for i in s2) == total:
            raise InvariantError("digit-sum witness failed re-verification")
        witness = {"subsets": [s1, s2], "sum": str(total)}
    return outcome("digit-sum", bounds, witness, {"r": str(r), "sums": distinct})


def _first_repeated_sum(weights):
    """Scan the subset sums of the weights in increasing mask order: the
    first repeated sum as (earlier mask, later mask, sum), or None, and the
    number of distinct nonempty sums scanned."""
    # sums[mask] is the sum over mask; the masks with highest bit i are those
    # below 2**i plus weights[i]
    sums = [0]
    seen = set()
    for w in weights:
        block = [s + w for s in sums]
        seen.update(block)
        if len(seen) < len(sums) - 1 + len(block):
            # a sum in this block repeats: rescan the block for the first
            seen = set(sums[1:])
            for i, total in enumerate(block):
                if total in seen:
                    return ((sums + block).index(total), len(sums) + i, total), len(seen)
                seen.add(total)
        sums += block
    return None, len(seen)


# ---------------------------------------------------------------------------
# ping-pong on the semidirect product


def pingpong_check(group, max_length: int) -> Report:
    """Certify the two-generator ping-pong on the semidirect product: orbit
    elements of the seed t*x^0 under words in {tx, x} must stay inside the
    digit-sum set A, the tx-image always carries the exponent-0 digit and the
    x-image never does, so the two translates of A are disjoint. A holds the
    elements with n >= 0 and h/t a sum of distinct powers of r, so h/t is an
    integer there; group.digits answers it. The ratio r, the
    translation t and the pair (tx, x) are the group's.

    The orbit is checked by induction. If e = (h, n) is in A with h/t = N,
    then tx*e = (t*(r*N + 1), n + 1) and x*e = (t*r*N, n + 1) are in A, with
    e's digits shifted up one and the exponent-0 digit added to the tx-image
    alone. So an image the group's product gives is accepted when it meets
    its relation, cross-multiplied on ints, and the walk carries each
    element's integer h/t along. The digit routine is asked about the seed
    and about an image that breaks its relation only, and the walk goes on
    from that image's own h/t: the verdict, witness and checked count are
    those of asking it about every image."""
    if max_length < 0:
        raise ValueError("max length must be nonnegative")
    r, t = group.ratio, group.t_value
    if r.denominator != 1:
        raise ValueError("ping-pong certificate requires an integer ratio")
    if r < 2:
        raise ValueError("ping-pong certificate needs ratio at least 2")
    bounds = {"L": max_length, "D": None, "N": None}
    orbit = 2 ** (max_length + 1) - 1
    details = {"r": str(r), "t": str(t), "orbit": orbit, "checked": 0}
    tx, x = group.monoid_generators()
    seed = group.element(t, 0)
    digits = group.digits
    # every orbit element past the seed is a tx- or x-image checked to lie in
    # A one level up, so only the seed needs its own test (its n is 0, its
    # h/t is 1). The two image sets cannot meet: an element's digits are a
    # function of the element, and every tx-image carries the exponent-0
    # digit while no x-image does
    if digits(seed) is None:
        return outcome("ping-pong", bounds,
                       {"reason": "orbit element left A", "element": group.format_element(seed)},
                       details)
    # the walk runs on field tuples (num, den, n, p, q) through the element
    # class's own product, as groups.enumerate_monoid does; an image off its
    # relation is built as the element group.multiply would return
    cls = type(seed)
    product = cls._product
    r, tn, td = r.numerator, t.numerator, t.denominator

    def own_value(image, zero):
        # the h/t of an image off its relation when the digit routine puts it
        # in A with the exponent-0 digit exactly when zero, else None
        element = tuple.__new__(cls, image)
        if element.n < 0 or (found := digits(element)) is None or (0 in found) != zero:
            return None
        return element.num * td // (element.den * tn)

    witness = None
    # plain tuples unpack faster than elements in the product
    tx, x = tuple(tx), tuple(x)
    # the orbit in level order from the next element to check, as flat
    # (fields, h/t) pairs
    queue = deque((tuple(seed), 1))
    pop = queue.popleft
    for checked in range(orbit):
        e, value = pop(), pop()
        n = e[2] + 1
        te, tv = product(tx, e), r * value + 1
        if (te[2] != n or te[0] * td != tn * tv * te[1]) and (tv := own_value(te, True)) is None:
            witness = {"reason": "tx-image missing the exponent-0 digit",
                       "element": group.format_element(tuple.__new__(cls, te))}
            break
        xe, xv = product(x, e), r * value
        if (xe[2] != n or xe[0] * td != tn * xv * xe[1]) and (xv := own_value(xe, False)) is None:
            witness = {"reason": "x-image carries the exponent-0 digit",
                       "element": group.format_element(tuple.__new__(cls, xe))}
            break
        queue += (te, tv, xe, xv)
    details["checked"] = orbit if witness is None else checked
    return outcome("ping-pong", bounds, witness, details)


# ---------------------------------------------------------------------------
# generator constructions for the three order types


def type2_generators(group):
    """The pair {t*x^n, x^n} generating a free submonoid of the semidirect
    product: n = 1 when the ratio is already >= 2 or <= 1/2, otherwise the
    smallest acting power pushing the ratio out of (1/2, 2)."""
    r = group.ratio
    if r == 1:
        raise ValueError("ratio 1 gives an abelian group: no free pair exists")
    n = 1
    rn = r
    while Fraction(1, 2) < rn < 2:
        n += 1
        rn *= r
    return (group.element(group.t_value, n), group.element(0, n))


def type3_generators(group):
    """The positive free pair {delta_0, t} on the wreath product, obtained by
    instantiating the convex-not-normal construction: b = t^-1 shrinks the
    convex subgroup B_0, a = -delta_0 lies in B_0 but not in b B_0 b^-1 and
    matches b's sign, and inverting the negative pair gives the positive one."""
    t = group.element({}, 1)
    b = group.inverse(t)  # b < 1 and b B_0 b^-1 = B_-1, strictly below B_0
    a = group.element({0: -1}, 0)  # a < 1, in B_0, not in B_-1
    if not group.subgroup_contains("B0", a) or group.subgroup_contains("B-1", a):
        raise InvariantError("separating element must lie in B0 and outside B-1")
    conj = group.multiply(group.multiply(b, group.element({0: 1}, 0)), group.inverse(b))
    if not group.subgroup_contains("B-1", conj):
        raise InvariantError("conjugation by b must shift B0 into B-1")
    return (group.inverse(a), group.inverse(b))


def type1_unit_generators(group, c, d, degree: int, field):
    """The unit pair (1 + c*x, 1 + d*y) over the group's positive monoid,
    built by series.unit_generators: nonzero c and d in field, and the group
    has exactly the two monoid generators x and y."""
    if not c or not d:
        raise ValueError("unit generators need nonzero scalars")
    return unit_generators(group, (c, d), degree, field)


# ---------------------------------------------------------------------------
# exact linear independence of unit-group words


def group_algebra_independence(units, max_length: int) -> Report:
    """Evaluate every reduced word of length at most max_length in the given
    units (inverses through truncated series inversion) at the units' common
    degree D, write each image's terms as one sparse row over the
    (weight, element) columns of their joint support, and certify full rank
    by exact elimination. Rank deficiency yields "inconclusive-at-D" with a
    dependency vector that re-verifies by direct evaluation; truncation can
    destroy independence but never fabricates it, so this is not a
    counterexample verdict. Nor does a larger degree always separate the
    words: the dependency may hold exactly in the monoid algebra, as for heis
    at L >= 4 (xyyx = yxxy in its monoid)."""
    if not units:
        raise ValueError("need at least one unit")
    first = units[0]
    for u in units[1:]:
        first._compatible(u)
    degree = first.degree
    for u in units:
        if not u.identity_coefficient():
            raise ValueError("every unit needs a nonzero identity coefficient")

    ctx = first.context
    fld = first.field
    words = enumerate_reduced_words(len(units), max_length)
    ordered_images = word_images(words, units)

    grade, fmt = ctx.grade, ctx.format_element
    support = set().union(*(img.terms for img in ordered_images))
    columns = sorted(support, key=lambda g: (grade(g), fmt(g)))
    col_index = {g: j for j, g in enumerate(columns)}
    rows = [{col_index[g]: coeff for g, coeff in img.terms.items()} for img in ordered_images]
    rank, dependency = rank_and_left_nullspace(rows, len(columns), fld)
    bounds = {"L": max_length, "D": degree, "N": None}
    details = {
        "units": len(units),
        "words": len(words),
        "rank": rank,
        "columns": len(columns),
        "field": fld.name,
    }
    if rank == len(words):
        return Report("group-algebra", VERIFIED, bounds, None, details)

    # re-verify the dependency by direct evaluation: the combination of the
    # word images must vanish identically at this degree
    combo = GradedSeries.zero(ctx, degree, fld, first.system)
    nonzero_entries = {}
    for coeff, w, img in zip(dependency, words, ordered_images):
        if coeff:
            nonzero_entries[str(w)] = fld.format(coeff)
            combo = combo + img.scale(coeff)
    if combo:
        raise InvariantError("dependency vector failed re-verification")
    return Report("group-algebra", INCONCLUSIVE, bounds, {"dependency": nonzero_entries}, details)
