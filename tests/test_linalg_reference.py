"""Differential tests: the elimination kernels, which update only the pivot
row's support and leave zero-head rows alone where the Bareiss step would
not change them, against the dense kernels they replaced (tests/helpers.py).
Ranks, eliminated rows and dependency vectors must agree value for value,
not merely re-verify."""

import random

import pytest

from helpers import reference_eliminate_field, reference_eliminate_int
from mnseries import freeness, linalg, registry
from mnseries.scalars import QQ, PrimeField, QuadraticField, field_from_spec

FIELDS = (QQ, PrimeField(5), PrimeField(7), QuadraticField(2), QuadraticField(-1))


def _eliminate(matrix, field, int_kernel, field_kernel, monkeypatch):
    """rank_and_left_nullspace run on the given kernels, with the [M | I]
    rows as elimination left them."""
    eliminated = []

    def keep(kernel):
        def run(rows, *args):
            eliminated.append(rows)
            return kernel(rows, *args)
        return run

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_eliminate_int", keep(int_kernel))
        patch.setattr(linalg, "_eliminate_field", keep(field_kernel))
        result = linalg.rank_and_left_nullspace(matrix, field)
    return result, eliminated


def assert_kernels_agree(matrix, field, monkeypatch):
    """Same rank, same dependency vector and the same eliminated rows, entry
    for entry, from the library kernels and the dense reference kernels."""
    fast, fast_rows = _eliminate(matrix, field, linalg._eliminate_int,
                                 linalg._eliminate_field, monkeypatch)
    slow, slow_rows = _eliminate(matrix, field, reference_eliminate_int,
                                 reference_eliminate_field, monkeypatch)
    assert fast == slow
    assert fast_rows == slow_rows
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
def test_kernels_match_dense_reference_on_sparse_matrices(field, monkeypatch):
    rng = random.Random(f"sparse-{field.name}")
    deficient = 0
    for _ in range(150):
        rank, dependency = assert_kernels_agree(random_sparse_matrix(field, rng), field,
                                                monkeypatch)
        deficient += dependency is not None
    assert deficient > 30


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_kernels_match_dense_reference_on_edge_cases(field, monkeypatch):
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
    for matrix in cases:
        assert_kernels_agree(matrix, field, monkeypatch)
    assert linalg.rank_and_left_nullspace([[zero, zero]], field) == (0, [one])


@pytest.mark.parametrize("rows", [
    [[2, 1, 0], [0, 3, 1], [0, 0, 4]],  # each pivot differs from the last: rescale
    [[1, 1, 0], [0, 1, 1], [0, 0, 1]],  # every pivot equals the last: rows kept
    [[3, 0, 1], [0, 0, 2], [6, 1, 0], [0, 5, 5]],
])
def test_integer_kernel_zero_head_rows(rows):
    # a zero-head row below a pivot is rescaled by piv/prev, which must stay
    # exact, and is left as it is when the pivot equals the previous one
    expected = [list(row) for row in rows]
    assert linalg._eliminate_int(rows, range(3)) == reference_eliminate_int(expected, range(3))
    assert rows == expected


# (field, c, d, L, D): word-image matrices of the units 1 + c*x, 1 + d*y over
# the Heisenberg monoid, full-rank and rank-deficient ones
HEIS_CELLS = (
    ("Q", "1", "2", 4, 6),
    ("Q", "1", "1", 3, 4),
    ("Fp:5", "1 mod 5", "2 mod 5", 4, 5),
    ("Fp:7", "3 mod 7", "5 mod 7", 3, 8),
    ("Qsqrt:2", "1+1*sqrt(2)", "1-1*sqrt(2)", 3, 5),
    ("Qsqrt:-1", "1+1*sqrt(-1)", "2+0*sqrt(-1)", 2, 4),
)


@pytest.mark.parametrize("spec,c,d,L,D", HEIS_CELLS)
def test_kernels_match_dense_reference_on_group_algebra_matrices(spec, c, d, L, D,
                                                                  monkeypatch):
    field = field_from_spec(spec)
    matrices = []

    def capture(matrix, fld):
        matrices.append(matrix)
        return linalg.rank_and_left_nullspace(matrix, fld)

    with monkeypatch.context() as patch:
        patch.setattr(freeness, "rank_and_left_nullspace", capture)
        heis = registry.resolve_group("heis")
        units = freeness.type1_unit_generators(heis, field.parse(c), field.parse(d), D)
        report = freeness.group_algebra_independence(list(units), L)
    (matrix,) = matrices
    rank, dependency = assert_kernels_agree(matrix, field, monkeypatch)
    assert report.details["rank"] == rank
    assert (dependency is None) == report.verified
