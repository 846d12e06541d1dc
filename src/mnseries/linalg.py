"""Exact rank and left-nullspace computation.

Elimination runs on [M | I]; the identity block records the row operations,
so the row whose M-part vanishes first carries a dependency among the
original rows in its augmented part. Pivot columns are taken in the caller's
column order and the pivot row is always the first row with a nonzero entry,
so results are deterministic. A row below the pivot with a zero head is left
as it is, and the others are updated only on the pivot row's support (its
nonzero columns), since subtracting a multiple of zero changes nothing;
word-image matrices are sparse, and the identity block mostly zero.

The input is sparse too: row i of M is a dict from a column index in
range(n_cols) to a field element, and it holds the nonzero entries only,
since the integer kernel would take a stored zero for a pivot. The caller
names the field; an all-zero row is {}.

There are two kernels, both on plain Python ints:

- The integer kernel, over Q and Q(sqrt m). Each row of [M | I] is cleared
  of denominators, so row i becomes d_i * [M_i | e_i] with entries in Z, or
  in Z[sqrt m] as int pairs (u, v) for u + v*sqrt(m). For pivot p and head
  h, row i becomes N(p)/g * row_i - h*conj(p)/g * row_p, where
  N(p) = p*conj(p) (over Z, conj(p) = 1 and N(p) = p) and g is the gcd of
  the multipliers' parts, signed so that N(p)/g > 0. A row is divided by its
  content, the gcd of all its parts, when it becomes the pivot row, before
  its support is read. That keeps the entries it spreads into the rows
  below small without any division in Z[sqrt m], at one gcd per pivot
  where a gcd after every update cost about as much as the updates. A row
  that never becomes a pivot row, such as each dependent row, is updated by
  every pivot and would grow without bound, so a row whose head has more
  than twice the pivot's bits plus 128 is divided by its content before its
  update (the largest part's bits, over Z[sqrt m]). Each row stays a
  positive multiple of the row Gaussian elimination over the field gives,
  so every zero test, and with it every pivot row and the row k left at
  position `rank`, is the same. The dependency's scale below reads only
  ratios within one row, a pivot over its row's own identity entry and z
  over z_k, so no row's content changes it. A row is a dict of its nonzero
  entries: the rows of a word-image matrix keep about a seventh of [M | I]
  nonzero, and the content gcd then reads only those.
- The mod-p kernel, over F_p: the entries become residues in dense lists
  (there dicts measured slower), and the steps are Gaussian elimination
  mod p.

The dependency's scale. Over F_p and Q(sqrt m) it is the dependency with
entry 1 at k, as Gaussian elimination over the field gives it: the mod-p
kernel never scales a row, so that is row k's identity part; over Q(sqrt m)
it is z * z_k^-1, with z the identity part of row k. Over Q it is the vector
fraction-free (Bareiss) elimination of the cleared [M | I] leaves, whose
entry at k is d_k * Delta, Delta the r x r pivot minor of the cleared M:
y = z * d_k * Delta / z_k. Delta is the product of the pivots over the
product of the pivot rows' own scales, s_i being row i's identity entry at
column i over d_i (how many times the cleared row i the row holds). That
division must come out exact; InvariantError when it does not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .report import InvariantError
from .scalars import PrimeField, PrimeFieldElement, QuadraticField


def _primitive(row, radicand):
    """The row divided by its content, the gcd of all its parts: a new dict,
    or the row itself when the content is 1. Over Z[sqrt radicand] (radicand
    not None) the parts are both ints of each pair."""
    if radicand is None:
        c = gcd(*row.values())
        return row if c == 1 else {j: x // c for j, x in row.items()}
    c = gcd(*(x for pair in row.values() for x in pair))
    return row if c == 1 else {j: (u // c, v // c) for j, (u, v) in row.items()}


def _eliminate_integral(rows, n_cols, radicand):
    """Fraction-free elimination, in place, pivoting on columns
    0 .. n_cols - 1; each pivot row, and each row below that has outgrown
    its pivot, is divided by its content. Each row is a dict from
    column to its nonzero entry: an int over Z (radicand None), or an int
    pair (u, v) for u + v*sqrt(radicand) over Z[sqrt radicand]. Returns the
    rank and, position by position, the original index of the row there."""
    n = len(rows)
    order = list(range(n))
    m = radicand
    pr = 0
    for pc in range(n_cols):
        for i in range(pr, n):
            if pc in rows[i]:
                break
        else:
            continue
        if i != pr:
            rows[pr], rows[i] = rows[i], rows[pr]
            order[pr], order[i] = order[i], order[pr]
        row_p = rows[pr] = _primitive(rows[pr], m)
        support = list(row_p.items())
        # a row below whose head has more bits than limit is made primitive
        # before its update (module docstring)
        if m is None:
            p = row_p[pc]
            limit = 2 * p.bit_length() + 128
            for i in range(pr + 1, n):
                row = rows[i]
                h = row.get(pc)
                if h is None:
                    continue
                if h.bit_length() > limit:
                    row = rows[i] = _primitive(row, m)
                    h = row[pc]
                g = gcd(p, h)
                a, b = (p // g, h // g) if p > 0 else (-p // g, -h // g)
                if a != 1:
                    row = rows[i] = {j: a * x for j, x in row.items()}
                get = row.get
                for j, x in support:
                    x = get(j, 0) - b * x
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        else:
            p_u, p_v = row_p[pc]
            norm = p_u * p_u - m * p_v * p_v
            limit = 2 * max(p_u.bit_length(), p_v.bit_length()) + 128
            for i in range(pr + 1, n):
                row = rows[i]
                head = row.get(pc)
                if head is None:
                    continue
                h_u, h_v = head
                if max(h_u.bit_length(), h_v.bit_length()) > limit:
                    row = rows[i] = _primitive(row, m)
                    h_u, h_v = row[pc]
                # f = h * conj(p), so that N(p) * h - f * p = 0
                f_u = h_u * p_u - m * h_v * p_v
                f_v = h_v * p_u - h_u * p_v
                g = gcd(norm, f_u, f_v)
                if norm < 0:
                    g = -g
                a, f_u, f_v = norm // g, f_u // g, f_v // g
                if a != 1:
                    row = rows[i] = {j: (a * u, a * v) for j, (u, v) in row.items()}
                mf_v = m * f_v
                get = row.get
                for j, (x_u, x_v) in support:
                    u, v = get(j, (0, 0))
                    u -= f_u * x_u + mf_v * x_v
                    v -= f_u * x_v + f_v * x_u
                    if u or v:
                        row[j] = (u, v)
                    else:
                        del row[j]
        pr += 1
        if pr == n:
            break
    return pr, order


def _eliminate_mod_p(rows, n_cols, p):
    """Gaussian elimination mod p, in place, on rows of residues (lists),
    pivoting on columns 0 .. n_cols - 1; rows are never scaled. Returns the
    rank."""
    n = len(rows)
    pr = 0
    for pc in range(n_cols):
        for i in range(pr, n):
            if rows[i][pc]:
                break
        else:
            continue
        if i != pr:
            rows[pr], rows[i] = rows[i], rows[pr]
        row_p = rows[pr]
        piv_inv = pow(row_p[pc], -1, p)
        support = [(j, x) for j, x in enumerate(row_p) if x]
        for i in range(pr + 1, n):
            row = rows[i]
            h = row[pc]
            if h:
                f = h * piv_inv % p
                for j, x in support:
                    row[j] = (row[j] - f * x) % p
        pr += 1
        if pr == n:
            break
    return pr


def _rank_mod_p(matrix, n_cols, field):
    p = field.p
    rows = []
    for i, row in enumerate(matrix):
        residues = [0] * (n_cols + len(matrix))
        residues[n_cols + i] = 1
        for j, x in row.items():
            residues[j] = x.residue
        rows.append(residues)
    rank = _eliminate_mod_p(rows, n_cols, p)
    if rank == len(matrix):
        return rank, None
    return rank, [PrimeFieldElement(x, p) for x in rows[rank][n_cols:]]


def _rank_integral(matrix, n_cols, field):
    """Over Q or Q(sqrt m): each row of [M | I] cleared of denominators, the
    integer kernel, and the dependency at its scale (module docstring)."""
    n_rows = len(matrix)
    quadratic = isinstance(field, QuadraticField)
    denoms = []
    rows = []
    for i, row in enumerate(matrix):
        if quadratic:
            denom = lcm(*{part.denominator for x in row.values() for part in (x.u, x.v)})
            cleared = {j: (x.u.numerator * (denom // x.u.denominator),
                           x.v.numerator * (denom // x.v.denominator))
                       for j, x in row.items()}
            cleared[n_cols + i] = (denom, 0)
        else:
            denom = lcm(*{x.denominator for x in row.values()})
            cleared = {j: x.numerator * (denom // x.denominator) for j, x in row.items()}
            cleared[n_cols + i] = denom
        rows.append(cleared)
        denoms.append(denom)
    rank, order = _eliminate_integral(rows, n_cols, field.radicand if quadratic else None)
    if rank == n_rows:
        return rank, None
    k = order[rank]
    last = rows[rank]
    if quadratic:
        z = [field.from_parts(*last.get(n_cols + j, (0, 0))) for j in range(n_rows)]
        scale = field.inv(z[k])
        return rank, [x * scale for x in z]
    # rescale to the fraction-free elimination's dependency: y = z*d_k*Delta/z_k
    z = [last.get(n_cols + j, 0) for j in range(n_rows)]
    num, den = denoms[k], z[k]
    for row, o in zip(rows[:rank], order):
        num *= row[min(row)] * denoms[o]
        den *= row[n_cols + o]
    scale = Fraction(num, den)
    if any(x % scale.denominator for x in z):
        raise InvariantError("dependency does not rescale to an integer vector")
    return rank, [x // scale.denominator * scale.numerator for x in z]


def rank_and_left_nullspace(rows, n_cols, field):
    """Rank, together with one nonzero vector y (if any) with y * M = 0, for
    M given as its sparse rows and n_cols (module docstring).

    Over Q the dependency is an int vector, the one fraction-free
    elimination of the cleared [M | I] gives; over F_p and Q(sqrt m) it is
    the dependency with entry 1 at the first row found dependent on the
    pivot rows (see the module docstring)."""
    if not rows:
        return 0, None
    if isinstance(field, PrimeField):
        rank, dependency = _rank_mod_p(rows, n_cols, field)
    else:
        rank, dependency = _rank_integral(rows, n_cols, field)
    if dependency is not None and not any(dependency):
        raise InvariantError("dependency vector is zero")
    return rank, dependency
