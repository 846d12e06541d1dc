import random
from fractions import Fraction

import pytest

from helpers import sparse_rows
from mnseries.linalg import rank_and_left_nullspace
from mnseries.scalars import QQ, PrimeField, QuadraticField


def eliminate(matrix, field=QQ):
    """rank_and_left_nullspace on a dense matrix, over Q unless told."""
    return rank_and_left_nullspace(*sparse_rows(matrix), field)


def gauss_rank_oracle(matrix):
    """Naive exact Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for pc in range(n_cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][pc]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][pc] / rows[rank][pc]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_matches_oracle_on_random_rational_matrices():
    rng = random.Random(0)
    for _ in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        matrix = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5 and m >= 2:
            c = Fraction(rng.randint(-3, 3))
            matrix[-1] = [c * x for x in matrix[0]]
        assert eliminate(matrix)[0] == gauss_rank_oracle(matrix)


def test_left_nullspace_vectors_re_verify():
    rng = random.Random(1)
    found = 0
    for _ in range(300):
        m = rng.randint(2, 6)
        n = rng.randint(1, 6)
        matrix = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        rank, dep = eliminate(matrix)
        assert rank == gauss_rank_oracle(matrix)
        if dep is not None:
            found += 1
            assert any(dep)
            combo = [sum(dep[i] * matrix[i][j] for i in range(m)) for j in range(n)]
            assert all(v == 0 for v in combo)
        else:
            assert rank == m
    assert found > 30


def test_prime_field_rank_and_nullspace():
    F5 = PrimeField(5)
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        matrix = [[F5.from_int(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
        rank, dep = eliminate(matrix, F5)
        # rank mod 5 can differ from the rank of integer lifts, so re-verify
        # the dependency directly instead of comparing against an oracle
        if dep is not None:
            for j in range(n):
                total = F5.zero
                for i in range(m):
                    total = total + dep[i] * matrix[i][j]
                assert total == F5.zero
        else:
            assert rank == m


def test_quadratic_field_rank():
    Q2 = QuadraticField(2)
    a = Q2.from_parts(1, 1)
    matrix = [[Q2.one, a], [a, a * a]]  # second row is a * first row
    rank, dep = eliminate(matrix, Q2)
    assert rank == 1 and dep is not None
    for j in range(2):
        total = Q2.zero
        for i in range(2):
            total = total + dep[i] * matrix[i][j]
        assert total == Q2.zero


def test_rank_five_in_characteristic_five():
    # 5 * identity has rank 0 mod 5 but rank 1 over Q: exercise the F_p path
    F5 = PrimeField(5)
    matrix = [[F5.from_int(5)]]
    assert eliminate(matrix, F5)[0] == 0
    assert eliminate([[Fraction(5)]])[0] == 1


def test_empty_and_degenerate():
    assert eliminate([])[0] == 0
    assert eliminate([[Fraction(0), Fraction(0)]])[0] == 0
    rank, dep = eliminate([[Fraction(0)]])
    assert rank == 0 and dep == [Fraction(1)]
    # rows are sparse: an all-zero row is {}, and a matrix may have no columns
    assert rank_and_left_nullspace([{}], 2, QQ) == (0, [QQ.one])
    assert rank_and_left_nullspace([{}, {}], 0, QQ) == (0, [QQ.one, QQ.zero])
    assert rank_and_left_nullspace([{}], 0, PrimeField(5)) == (0, [PrimeField(5).one])


def test_field_is_required():
    # the field is named by the caller, never guessed from an entry
    with pytest.raises(TypeError):
        rank_and_left_nullspace([{0: Fraction(1)}], 1)
