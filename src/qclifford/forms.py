"""Bilinear forms B = g + A: exact decomposition, quadratic values,
signatures, and the bivector generating A by contraction against g."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import (ComputationError, ContextMismatch, DegenerateFormError,
                     DimensionLimitError, ShapeError)
from .exterior import Multivector, contract_left
from .scalars import (RING_GAUSSIAN, RING_RATIONAL, GaussianRational, Scalar,
                      as_scalar, imag_part, real_part)

MAX_DIM = 12


def check_dim(n: int):
    """Refuse an algebra on more than MAX_DIM generators. Constructors call
    it before they build a matrix of that size."""
    if n > MAX_DIM:
        raise DimensionLimitError(f"dimension {n} exceeds the limit {MAX_DIM}")


@dataclass(frozen=True)
class Signature:
    """Counts of positive, negative and null directions of the symmetric part."""
    p: int
    q: int
    r: int

    @property
    def dim(self) -> int:
        return self.p + self.q + self.r


class FormContext:
    """An algebra context: dimension n, the bilinear form B, and its exact
    symmetric/antisymmetric split g, A.

    The context also owns the per-algebra caches (the integer form d²·B,
    blade-pair products, monomial and dotted-basis tables, the symmetric
    context), all behind ``cached``. They fill lazily and are never evicted;
    the pair products grow with every new blade pair. The pair cache holds
    integer terms, scaled by powers of d as the ``clifford`` module states.
    Contexts may be shared between threads: concurrent fills may compute an
    entry twice, but store equal values.
    """

    def __init__(self, B, ring: str = RING_RATIONAL):
        rows = [list(row) for row in B]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ShapeError("bilinear form must be a non-empty square matrix")
        check_dim(n)
        if ring not in (RING_RATIONAL, RING_GAUSSIAN):
            raise ShapeError(f"unknown ring {ring!r}")
        entries = [[as_scalar(x) for x in row] for row in rows]
        if ring == RING_RATIONAL and any(
            isinstance(x, GaussianRational) for row in entries for x in row
        ):
            raise ShapeError("complex entries require ring Q(i)")
        self.dim = n
        self.ring = ring
        self.B = tuple(tuple(row) for row in entries)
        half = Fraction(1, 2)
        self.g = tuple(
            tuple((entries[i][j] + entries[j][i]) * half for j in range(n))
            for i in range(n)
        )
        self.A = tuple(
            tuple((entries[i][j] - entries[j][i]) * half for j in range(n))
            for i in range(n)
        )
        self._cache = {}

    def cached(self, key: str, build):
        """The cached value under key, made by build() on first use."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache.setdefault(key, build())
        return value

    # -- construction helpers -------------------------------------------

    def scalar(self, value):
        return Multivector.from_terms(self, {0: as_scalar(value)})

    def zero(self):
        return Multivector.from_terms(self, {})

    def one(self):
        return self.scalar(1)

    def e(self, i: int):
        """Generator e_i, 1-based."""
        if not 1 <= i <= self.dim:
            raise ShapeError(f"generator index {i} out of range 1..{self.dim}")
        return Multivector.from_terms(self, {1 << (i - 1): Fraction(1)})

    def blade(self, indices):
        """Wedge blade from an iterable of 1-based indices (or a bitmask)."""
        if isinstance(indices, int):
            bits = indices
            if bits < 0 or bits >= 1 << self.dim:
                raise ShapeError(f"blade bitmask {bits} out of range")
        else:
            idx = list(indices)
            if len(set(idx)) != len(idx):
                return self.zero()
            bits = 0
            for i in idx:
                if not 1 <= i <= self.dim:
                    raise ShapeError(f"index {i} out of range 1..{self.dim}")
                bits |= 1 << (i - 1)
        return Multivector.from_terms(self, {bits: Fraction(1)})

    def vector(self, coords):
        coords = list(coords)
        if len(coords) != self.dim:
            raise ShapeError(f"expected {self.dim} coordinates, got {len(coords)}")
        return Multivector.from_terms(
            self, {1 << i: as_scalar(c) for i, c in enumerate(coords)}
        )

    def parse(self, text: str):
        from .textio import parse_multivector
        return parse_multivector(self, text)

    def basis_blades(self):
        return range(1 << self.dim)

    # -- relations between contexts --------------------------------------

    def compatible(self, other: "FormContext") -> bool:
        return self is other or (
            self.dim == other.dim and self.ring == other.ring and self.B == other.B
        )

    def require_compatible(self, other: "FormContext"):
        if not self.compatible(other):
            raise ContextMismatch("operands belong to different algebra contexts")

    def symmetric_context(self) -> "FormContext":
        """The context of Cl(g,V): same symmetric part, A = 0."""
        def build():
            if all(x == 0 for row in self.A for x in row):
                return self
            return FormContext(self.g, self.ring)
        return self.cached("symmetric", build)

    # -- form evaluation --------------------------------------------------

    @cached_property
    def is_degenerate(self) -> bool:
        return linalg.rank([list(r) for r in self.g]) < self.dim

    def __repr__(self):
        return f"FormContext(dim={self.dim}, ring={self.ring!r})"


def split_form(B, ring: str = RING_RATIONAL) -> FormContext:
    """Split a square matrix into its exact symmetric/antisymmetric parts and
    wrap the result as an algebra context."""
    return FormContext(B, ring=ring)


def quadratic(ctx: FormContext, coords) -> Scalar:
    """Q(x) = g(x,x); the antisymmetric part never contributes."""
    coords = [as_scalar(c) for c in coords]
    if len(coords) != ctx.dim:
        raise ShapeError(f"expected {ctx.dim} coordinates, got {len(coords)}")
    total = Fraction(0)
    for i, xi in enumerate(coords):
        if xi == 0:
            continue
        for j, xj in enumerate(coords):
            if xj != 0:
                total = total + xi * ctx.g[i][j] * xj
    return total


def signature(ctx: FormContext) -> Signature:
    """Exact signature of g by symmetric congruence reduction.

    Pivots on nonzero diagonal entries; when every remaining diagonal entry
    vanishes but an off-diagonal survives, a row/column addition turns the
    hyperbolic 2x2 block into a usable pivot (valid away from characteristic 2).
    """
    if any(imag_part(x) != 0 for row in ctx.g for x in row):
        raise ComputationError("signature requires a real symmetric part")
    m = [[real_part(x) for x in row] for row in ctx.g]
    n = ctx.dim

    def swap(k, l):
        m[k], m[l] = m[l], m[k]
        for row in m:
            row[k], row[l] = row[l], row[k]

    def add_into(k, l):
        # basis change e_k -> e_k + e_l, applied symmetrically
        for j in range(n):
            m[k][j] = m[k][j] + m[l][j]
        for i in range(n):
            m[i][k] = m[i][k] + m[i][l]

    p = q = 0
    for k in range(n):
        if m[k][k] == 0:
            cand = next((l for l in range(k + 1, n) if m[l][l] != 0), None)
            if cand is not None:
                swap(k, cand)
            else:
                off = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j] != 0),
                    None,
                )
                if off is None:
                    break  # remaining block is zero: all null directions
                i, j = off
                if i != k:
                    swap(k, i)
                    if j == k:
                        j = i
                add_into(k, j)
        pivot = m[k][k]
        if pivot > 0:
            p += 1
        else:
            q += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / pivot
                for j in range(n):
                    m[i][j] = m[i][j] - f * m[k][j]
                for j in range(n):
                    m[j][i] = m[j][i] - f * m[j][k]
    return Signature(p, q, n - p - q)


def bivector_from_antisym(ctx: FormContext):
    """The grade-2 element F with F⌋g(e_i∧e_j) = A(e_i,e_j) for all i<j.

    Unique for nondegenerate g; solved exactly and re-verified against A.
    """
    if ctx.is_degenerate:
        raise DegenerateFormError(
            "degenerate symmetric part: no Wick bivector exists"
        )
    n = ctx.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # (e_k∧e_l)⌋g(e_i∧e_j) = g_li·g_kj − g_lj·g_ki
    g = ctx.g
    rows = []
    rhs = []
    for (i, j) in pairs:
        rows.append([g[l][i] * g[k][j] - g[l][j] * g[k][i] for (k, l) in pairs])
        rhs.append(ctx.A[i][j])
    coeffs = linalg.solve(rows, rhs)
    if coeffs is None:
        raise DegenerateFormError("bivector system is inconsistent")
    terms = {}
    for (k, l), c in zip(pairs, coeffs):
        if c != 0:
            terms[(1 << k) | (1 << l)] = c
    F = Multivector.from_terms(ctx, terms)
    for (i, j) in pairs:
        check = contract_left(F, ctx.blade([i + 1, j + 1]), form="g")
        if check != ctx.scalar(ctx.A[i][j]):
            raise ComputationError(
                f"internal: F round-trip failed at pair ({i + 1},{j + 1})"
            )
    return F
