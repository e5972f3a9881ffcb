"""Exact Gaussian elimination over the rational and Gaussian-rational rings.

Matrices are plain lists of row lists; every routine works field-exactly and
never mutates its input. One incremental reducer, ``row_space_basis``, does
all the elimination; ``rref`` and everything built on it go through it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .errors import ComputationError


def row_space_basis(rows, rank=None):
    """Canonical basis of the row space: the nonzero rows of its reduced
    row-echelon form, in pivot order.

    ``rows`` may be any iterable of equal-length rows; it is read one row at
    a time and never mutated. Each row is reduced against the rows kept so
    far and, when independent, joins them, so the kept rows are always in
    RREF. Reading stops once ``rank`` rows are kept, or once every column
    holds a pivot. ``rank`` is the rank of the whole span when known: the
    rows read are then exactly those up to the rank-th independent one, and
    running out before it raises ComputationError.
    """
    basis, pivots = [], []
    if rank == 0:
        return basis
    for row in rows:
        for r, c in zip(basis, pivots):
            f = row[c]
            if f:
                row = [a - f * b if b else a for a, b in zip(row, r)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        pv = row[c]
        row = [x / pv if x else x for x in row]
        for i, r in enumerate(basis):
            f = r[c]
            if f:
                basis[i] = [a - f * b if b else a for a, b in zip(r, row)]
        k = bisect_left(pivots, c)
        basis.insert(k, row)
        pivots.insert(k, c)
        if len(basis) == rank or len(basis) == len(row):
            break
    if rank is not None and len(basis) < rank:
        raise ComputationError(f"internal: the rows span {len(basis)} dimensions, "
                               f"not the expected {rank}")
    return basis


def rref(matrix):
    """Reduced row-echelon form of a list of rows. Returns (rows,
    pivot_columns): the rows of row_space_basis, then zero rows."""
    if not matrix:
        return [], []
    basis = row_space_basis(matrix)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in basis]
    zeros = [[Fraction(0)] * len(matrix[0]) for _ in range(len(matrix) - len(basis))]
    return basis + zeros, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def solve(matrix, rhs):
    """One exact solution of matrix @ x = rhs (free variables set to 0),
    or None when the system is inconsistent."""
    if not matrix:
        return [] if all(b == 0 for b in rhs) else None
    n_cols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    red, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


def nullspace(matrix):
    """Basis of the kernel of matrix (list of column vectors)."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    red, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(v)
    return basis


def is_invertible(matrix) -> bool:
    return bool(matrix) and len(matrix) == len(matrix[0]) == rank(matrix)


def coordinates_in(basis_rows, vector):
    """Coordinates of vector in the span of basis_rows, or None if outside.

    basis_rows must be linearly independent.
    """
    if not basis_rows:
        return [] if all(x == 0 for x in vector) else None
    cols = [[row[j] for row in basis_rows] for j in range(len(basis_rows[0]))]
    return solve(cols, list(vector))
