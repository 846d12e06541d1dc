"""Exact rank and left-nullspace computation.

Over the rationals, rows are cleared to integers and eliminated with the
fraction-free (Bareiss) single-step rule, so every intermediate value stays
an integer and every division is exact. Over prime fields and quadratic
fields, plain Gaussian elimination is already exact. Pivot columns are taken
in the caller's column order and the pivot row is always the first row with a
nonzero entry, so results are deterministic.

Both kernels skip only work that cannot change a value, so every rank and
dependency vector is the one dense elimination gives. The field kernel
collects the pivot row's nonzero columns once per pivot and updates only
those in the rows below it, since subtracting a multiple of zero leaves an
entry as it is; word-image matrices are sparse, and the identity block of
[M | I] mostly zero. The integer kernel rebuilds each row below the pivot in
one pass, and leaves a zero-head row alone when the Bareiss step would only
multiply and divide it by the same pivot.
"""

from __future__ import annotations

from math import gcd

from .scalars import QQ, field_of


class InvariantError(RuntimeError):
    """An independent re-verification of a computed result failed."""


def _clear_denominators(row):
    """The row of ints and Fractions times the least common denominator of
    its entries, as ints."""
    denom = 1
    for x in row:
        d = x.denominator
        if d != 1:
            denom = denom * d // gcd(denom, d)
    if denom == 1:
        return [x.numerator for x in row]
    return [x.numerator * (denom // x.denominator) for x in row]


def _eliminate_int(rows, pivot_cols):
    """Fraction-free elimination on integer rows (in place), pivoting on the
    given columns only; every row below the pivot is updated (also those with
    a zero head, which rescale by piv/prev unless the two are equal) so the
    Bareiss divisions stay exact. Returns the rank."""
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
        for i in range(pr + 1, len(rows)):
            row_i = rows[i]
            head = row_i[pc]
            if head:
                rows[i] = [(a * piv - head * b) // prev for a, b in zip(row_i, row_p)]
            elif piv != prev:
                rows[i] = [a * piv // prev for a in row_i]
        prev = piv
        pr += 1
        if pr == len(rows):
            break
    return pr


def _eliminate_field(rows, pivot_cols, field):
    """Plain exact Gaussian elimination over a field (in place), updating only
    the pivot row's nonzero columns; each pivot is inverted once, through
    field.inv, and the rows below take head * piv^-1 times the pivot row.
    Returns the rank."""
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
        row_p = rows[pr]
        piv_inv = field.inv(row_p[pc])
        support = [j for j, x in enumerate(row_p) if x != zero]
        for i in range(pr + 1, len(rows)):
            row_i = rows[i]
            head = row_i[pc]
            if head != zero:
                factor = head * piv_inv
                for j in support:
                    row_i[j] = row_i[j] - factor * row_p[j]
        pr += 1
        if pr == len(rows):
            break
    return pr


def rank_and_left_nullspace(matrix, field=None):
    """Rank, together with one nonzero vector y (if any) with y * M = 0.

    Elimination runs on [M | I]; the identity block records the row
    operations, so any row whose M-part vanished carries an exact dependency
    among the original rows in its augmented part. Over Q each row of
    [M | I] is cleared of denominators as a whole, so row i's identity entry
    becomes its denominator d_i and the augmented part is already the
    dependency on the original rows."""
    n_rows = len(matrix)
    if n_rows == 0:
        return 0, None
    n_cols = len(matrix[0])
    if field is None:
        field = field_of(matrix[0][0])
    rows = []
    for i, row in enumerate(matrix):
        aug = [field.zero] * n_rows
        aug[i] = field.one
        rows.append(list(row) + aug)
    if field == QQ:
        rows = [_clear_denominators(row) for row in rows]
        rank = _eliminate_int(rows, range(n_cols))
    else:
        rank = _eliminate_field(rows, range(n_cols), field)
    if rank == n_rows:
        return rank, None
    dependency = rows[rank][n_cols:]
    if not any(dependency):
        raise InvariantError("dependency vector is zero")
    return rank, dependency
