"""Differential tests: rank_and_left_nullspace, whose integer and mod-p
kernels update only the pivot row's support and divide each pivot row, and
each row below that outgrows its pivot, by its content, against the dense
Bareiss and Gaussian elimination on [M | I] it replaced
(reference_rank_and_left_nullspace in tests/helpers.py). Ranks, dependency
values and the dependency's part types (int or Fraction) must agree, not
merely re-verify."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_rank_and_left_nullspace, sparse_rows
from mnseries import freeness, linalg, registry
from mnseries.scalars import (QQ, PrimeField, QuadraticField, QuadraticFieldElement,
                              field_from_spec, normal_rational)

FIELDS = (QQ, PrimeField(5), PrimeField(7), QuadraticField(2), QuadraticField(-1),
          QuadraticField(-3))


def part_types(dependency):
    if dependency is None:
        return None
    return [(type(x),) + ((type(x.u), type(x.v)) if isinstance(x, QuadraticFieldElement) else ())
            for x in dependency]


def assert_matches_reference(matrix, field):
    """Same rank, same dependency vector and the same part types from the
    library, on the matrix's sparse rows, and from the dense reference
    elimination."""
    fast = linalg.rank_and_left_nullspace(*sparse_rows(matrix), field)
    slow = reference_rank_and_left_nullspace(matrix, field)
    assert fast == slow
    assert part_types(fast[1]) == part_types(slow[1])
    return fast


def random_sparse_matrix(field, rng):
    m = rng.randint(1, 8)
    n = rng.randint(1, 8)
    density = rng.uniform(0.1, 0.5)
    matrix = [[field.sample_nonzero(rng) if rng.random() < density else field.zero
               for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.4:  # a repeated row, possibly scaled
        scale = field.sample_nonzero(rng) if rng.random() < 0.5 else field.one
        matrix[rng.randrange(m)] = [scale * x for x in matrix[rng.randrange(m)]]
    if rng.random() < 0.3:
        matrix[rng.randrange(m)] = [field.zero] * n
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in matrix:
            row[j] = field.zero
    return matrix


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_kernels_match_dense_reference_on_sparse_matrices(field):
    rng = random.Random(f"sparse-{field.name}")
    deficient = 0
    for _ in range(150):
        rank, dependency = assert_matches_reference(random_sparse_matrix(field, rng), field)
        deficient += dependency is not None
    assert deficient > 30


@pytest.mark.parametrize("field", (QQ, QuadraticField(2), QuadraticField(-1)),
                         ids=lambda f: f.name)
def test_kernels_match_dense_reference_on_rows_with_large_content(field):
    # each row times its own integer of up to about 400 bits, so that many
    # a head outgrows its pivot by more than the kernel's limit (a cleared
    # row itself keeps content 1 through its identity entry)
    rng = random.Random(f"content-{field.name}")
    deficient = 0
    for _ in range(100):
        matrix = random_sparse_matrix(field, rng)
        factors = [field.from_int(rng.choice((1, -1)) * rng.randrange(2, 10**12) ** rng.randint(1, 10))
                   for _ in matrix]
        matrix = [[k * x for x in row] for k, row in zip(factors, matrix)]
        rank, dependency = assert_matches_reference(matrix, field)
        deficient += dependency is not None
    assert deficient > 20
    # a dependent row whose M part carries a factor of 476 bits, which every
    # pivot updates and none takes as its pivot row
    rows = [[field.from_int(x) for x in row] for row in ((3, 1, 4, 1), (5, 9, 2, 6), (5, 3, 5, 8))]
    big = field.from_int(3 ** 300)
    matrix = rows + [[big * (2 * x - y + 3 * z) for x, y, z in zip(*rows)]]
    assert assert_matches_reference(matrix, field)[0] == 3


# Integer rows where a row below the pivot has a zero head: Bareiss rescales
# it by piv/prev, the library leaves it alone, and the dependency must still
# come out at the Bareiss scale. The last row of each depends on the others.
ZERO_HEAD_ROWS = (
    [[2, 1, 0], [0, 3, 1], [0, 0, 4], [2, 4, 5]],
    [[1, 1, 0], [0, 1, 1], [0, 0, 1], [1, 2, 2]],
    [[3, 0, 1], [0, 0, 2], [6, 1, 0], [0, 5, 5], [9, 1, 3]],
)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_kernels_match_dense_reference_on_edge_cases(field):
    zero, one = field.zero, field.one
    two = one + one
    cases = [
        [[zero]],
        [[one]],
        [[two]],
        [[zero, zero, zero], [zero, zero, zero]],
        [[one, two], [one, two], [one, two]],
        [[zero, one], [zero, two], [zero, zero]],
        [[one, zero, zero], [zero, zero, zero], [zero, zero, two]],
    ]
    cases += [[[field.from_int(x) for x in row] for row in rows] for rows in ZERO_HEAD_ROWS]
    for matrix in cases:
        assert_matches_reference(matrix, field)
    assert linalg.rank_and_left_nullspace([{}], 2, field) == (0, [one])
    assert linalg.rank_and_left_nullspace([{}], 0, field) == (0, [one])


# (field, c, d, L, D): word-image matrices of the units 1 + c*x, 1 + d*y over
# the Heisenberg monoid, full-rank and rank-deficient ones
HEIS_CELLS = (
    ("Q", "1", "2", 4, 6),
    ("Q", "1", "1", 3, 4),
    # entries of hundreds of digits, whose rows carry large contents
    ("Q", "7/3", "-5/2", 4, 8),
    ("Fp:5", "1 mod 5", "2 mod 5", 4, 5),
    ("Fp:7", "3 mod 7", "5 mod 7", 3, 8),
    ("Qsqrt:2", "1+1*sqrt(2)", "1-1*sqrt(2)", 3, 5),
    ("Qsqrt:-1", "1+1*sqrt(-1)", "2+0*sqrt(-1)", 2, 4),
)


@pytest.mark.parametrize("spec,c,d,L,D", HEIS_CELLS)
def test_kernels_match_dense_reference_on_group_algebra_matrices(spec, c, d, L, D,
                                                                  monkeypatch):
    field = field_from_spec(spec)
    calls = []

    def capture(rows, n_cols, fld):
        calls.append((rows, n_cols))
        return linalg.rank_and_left_nullspace(rows, n_cols, fld)

    with monkeypatch.context() as patch:
        patch.setattr(freeness, "rank_and_left_nullspace", capture)
        heis = registry.resolve_group("heis")
        units = freeness.type1_unit_generators(heis, field.parse(c), field.parse(d), D, field)
        report = freeness.group_algebra_independence(list(units), L)
    ((rows, n_cols),) = calls
    # the row contract the kernels rely on: a stored zero would be taken for
    # a pivot
    for row in rows:
        assert all(type(j) is int and 0 <= j < n_cols for j in row)
        assert all(row.values())
    matrix = [[row.get(j, field.zero) for j in range(n_cols)] for row in rows]
    rank, dependency = assert_matches_reference(matrix, field)
    assert report.details["rank"] == rank
    assert (dependency is None) == report.verified


# Large denominators, and over Q(sqrt 2) pivots of negative norm: a unit such
# as 1 + sqrt(2) (norm -1) or 1 + 2*sqrt(2) (norm -7) times a rational.
LARGE = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**12)
SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=9)
UNITS_OF_NEGATIVE_NORM = ((1, 1), (1, 2), (-3, 5))


@st.composite
def scalars(draw, field):
    if draw(st.integers(0, 3)) == 0:
        return field.zero
    if field == QQ:
        return normal_rational(draw(st.one_of(LARGE, SMALL)))
    if field.radicand > 0 and draw(st.booleans()):
        u, v = draw(st.sampled_from(UNITS_OF_NEGATIVE_NORM))
        return field.from_parts(u, v) * field.from_parts(draw(LARGE), 0)
    return field.from_parts(draw(st.one_of(LARGE, SMALL)), draw(st.one_of(LARGE, SMALL)))


@st.composite
def matrices(draw, field):
    """A small matrix over field, sometimes with one row a combination of two
    others, so that about half are rank deficient."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    matrix = [[draw(scalars(field)) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        a, b = draw(scalars(field)), draw(scalars(field))
        matrix[k] = [a * x + b * y for x, y in zip(matrix[i], matrix[j])]
    return matrix


PROPERTY_FIELDS = (QQ, QuadraticField(2), QuadraticField(-3))


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=lambda f: f.name)
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_kernels_match_dense_reference_on_large_denominators(field, data):
    assert_matches_reference(data.draw(matrices(field)), field)
