import random
from fractions import Fraction

import pytest

from qclifford import ComputationError, linalg
from qclifford.scalars import gaussian

from conftest import rand_fraction


def oracle_rref(matrix):
    """Column-by-column Gauss–Jordan elimination: (nonzero rows, pivots)."""
    m = [list(row) for row in matrix]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        k = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rand_low_rank(rng, rows, cols, rank, gaussian_entries=False):
    """rows × cols with the given rank: random combinations of `rank`
    random rows, with some zero rows and repeats mixed in."""
    def entry():
        if gaussian_entries:
            return gaussian(rand_fraction(rng), rand_fraction(rng))
        return rand_fraction(rng)
    base = [[entry() for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        coeffs = [rand_fraction(rng) if rng.random() < 0.6 else Fraction(0)
                  for _ in range(rank)]
        out.append([sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0))
                    for j in range(cols)])
    return out


@pytest.mark.parametrize("gaussian_entries", [False, True])
def test_rref_matches_gauss_jordan(gaussian_entries):
    rng = random.Random(80)
    for _ in range(20):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        matrix = rand_low_rank(rng, rows, cols, rng.randint(0, min(rows, cols)),
                               gaussian_entries)
        red, pivots = linalg.rref(matrix)
        basis, expected_pivots = oracle_rref(matrix)
        assert pivots == expected_pivots
        assert red[:len(pivots)] == basis
        assert len(red) == rows and all(x == 0 for row in red[len(pivots):] for x in row)


def test_row_space_basis_stops_at_the_known_rank():
    rng = random.Random(81)
    for _ in range(20):
        matrix = rand_low_rank(rng, 12, 6, rng.randint(1, 5))
        full = linalg.rref(matrix)
        r = len(full[1])
        # the index of the r-th row that is independent of the rows before it
        last = next(k for k in range(len(matrix)) if linalg.rank(matrix[:k + 1]) == r)
        read = []

        def rows():
            for row in matrix:
                read.append(row)
                yield row

        assert linalg.row_space_basis(rows(), rank=r) == full[0][:r]
        assert len(read) == last + 1
        assert linalg.row_space_basis(iter(matrix)) == full[0][:r]


def test_row_space_basis_refuses_a_rank_it_cannot_reach():
    matrix = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.row_space_basis(matrix, rank=1) == [[Fraction(1), Fraction(2)]]
    assert linalg.row_space_basis(matrix, rank=0) == []
    with pytest.raises(ComputationError, match="internal"):
        linalg.row_space_basis(matrix, rank=2)
