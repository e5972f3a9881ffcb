"""Grassmann layer: blades as bit sets, wedge product, graded involutions,
the left contractions driven by B, g or A, and unitriangular basis changes.

A blade is an int whose set bits are the (0-based) generator indices of the
wedge monomial; bit i stands for e_{i+1}. The empty set is the unit.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ComputationError, ShapeError
from .scalars import GaussianRational, Scalar, as_scalar


def blade_grade(bits: int) -> int:
    return bits.bit_count()


def blade_indices(bits: int):
    """Ascending 1-based indices of a blade."""
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def wedge_sign(left: int, right: int) -> int:
    """Parity sign for merging two disjoint ascending index sets; 0 on overlap."""
    if left & right:
        return 0
    inversions = 0
    r = right
    while r:
        low = r & -r
        # bits of `left` strictly above this index must jump over it
        inversions += (left >> low.bit_length()).bit_count()
        r ^= low
    return -1 if inversions & 1 else 1


def add_scaled(acc: dict, terms: dict, factor=1) -> dict:
    """acc += factor·terms on term dicts, in place; cancelled blades are
    dropped. Returns acc."""
    scaled = factor != 1
    for bits, coeff in terms.items():
        old = acc.get(bits)
        new = coeff * factor if scaled else coeff
        if old is not None:
            new = old + new
        if new:
            acc[bits] = new
        elif old is not None:
            del acc[bits]
    return acc


def grade_involution_sign(k: int) -> int:
    return -1 if k & 1 else 1


def reversion_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) & 1 else 1


class Multivector:
    """A finite Blade -> Scalar mapping over a fixed algebra context.

    Instances are immutable by convention: every operation returns a fresh
    value and zero coefficients are never stored, so equality is plain
    term-by-term comparison.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    @classmethod
    def from_terms(cls, ctx, terms) -> "Multivector":
        clean = {}
        limit = 1 << ctx.dim
        for bits, coeff in terms.items():
            if bits < 0 or bits >= limit:
                raise ShapeError(f"blade {bits:#x} outside dimension {ctx.dim}")
            coeff = as_scalar(coeff)
            if coeff != 0:
                clean[bits] = coeff
        return cls(ctx, clean)

    # -- bookkeeping ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def grades(self):
        return sorted({blade_grade(b) for b in self.terms})

    def is_homogeneous(self, k: int) -> bool:
        return all(blade_grade(b) == k for b in self.terms)

    def grade_project(self, k: int) -> "Multivector":
        return Multivector(
            self.ctx, {b: c for b, c in self.terms.items() if blade_grade(b) == k}
        )

    def even_part(self) -> "Multivector":
        return Multivector(
            self.ctx, {b: c for b, c in self.terms.items() if not blade_grade(b) & 1}
        )

    def odd_part(self) -> "Multivector":
        return Multivector(
            self.ctx, {b: c for b, c in self.terms.items() if blade_grade(b) & 1}
        )

    def scalar_part(self) -> Scalar:
        return self.terms.get(0, Fraction(0))

    def coefficient(self, bits: int) -> Scalar:
        return self.terms.get(bits, Fraction(0))

    def coordinates(self):
        """Dense coefficient list over all 2^n blades, ascending bit patterns."""
        terms, zero = self.terms, Fraction(0)
        return [terms.get(b, zero) for b in range(1 << self.ctx.dim)]

    # -- ring structure ----------------------------------------------------

    def _binary(self, other, factor):
        self.ctx.require_compatible(other.ctx)
        return Multivector(self.ctx, add_scaled(dict(self.terms), other.terms, factor))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.ctx.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._binary(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.ctx.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._binary(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Multivector(self.ctx, {b: -c for b, c in self.terms.items()})

    def scale(self, factor) -> "Multivector":
        factor = as_scalar(factor)
        if factor == 0:
            return Multivector(self.ctx, {})
        return Multivector(self.ctx, {b: c * factor for b, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if isinstance(other, Multivector):
            from .clifford import clifford_product
            return clifford_product(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(Fraction(1) / as_scalar(other))
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if isinstance(other, Multivector):
            return wedge(self, other)
        return NotImplemented

    def __or__(self, other):
        """Left contraction with respect to the full form B."""
        if isinstance(other, Multivector):
            return contract_left(self, other, form="B")
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.ctx.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.ctx.compatible(other.ctx) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        from .textio import format_multivector
        return format_multivector(self)


def wedge(u: Multivector, v: Multivector) -> Multivector:
    """Exterior product; alternating, associative, graded-commutative."""
    u.ctx.require_compatible(v.ctx)
    terms = {}
    for bu, cu in u.terms.items():
        for bv, cv in v.terms.items():
            sign = wedge_sign(bu, bv)
            if sign == 0:
                continue
            bits = bu | bv
            coeff = cu * cv if sign > 0 else -(cu * cv)
            old = terms.get(bits)
            if old is not None:
                coeff = old + coeff
            if coeff:
                terms[bits] = coeff
            elif old is not None:
                del terms[bits]
    return Multivector(u.ctx, terms)


def grade_involution(u: Multivector) -> Multivector:
    """Sign flip on odd grades; the hat involution."""
    return Multivector(
        u.ctx,
        {b: (c if grade_involution_sign(blade_grade(b)) > 0 else -c)
         for b, c in u.terms.items()},
    )


def reversion(u: Multivector) -> Multivector:
    """Order reversal of wedge factors: sign (-1)^{k(k-1)/2} on grade k."""
    return Multivector(
        u.ctx,
        {b: (c if reversion_sign(blade_grade(b)) > 0 else -c)
         for b, c in u.terms.items()},
    )


def _form_matrix(ctx, form: str):
    try:
        return {"B": ctx.B, "g": ctx.g, "A": ctx.A}[form]
    except KeyError:
        raise ShapeError(f"unknown form selector {form!r} (expected B, g or A)")


def _vector_contract(i: int, u_terms: dict, matrix) -> dict:
    """One Leibniz pass of e_i⌋ over a term dict; signs from grade involution."""
    row = matrix[i - 1]
    out = {}
    for bits, coeff in u_terms.items():
        position_sign = 1
        rest = bits
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            base = row[j]
            if base != 0:
                contrib = coeff * base if position_sign > 0 else -(coeff * base)
                target = bits ^ low
                old = out.get(target)
                if old is not None:
                    contrib = old + contrib
                if contrib:
                    out[target] = contrib
                elif old is not None:
                    del out[target]
            position_sign = -position_sign
            rest ^= low
    return out


def contract_left(x: Multivector, u: Multivector, form: str = "B") -> Multivector:
    """Left contraction x⌋u for arbitrary x, extended by the nesting rule
    (u∧v)⌋w = u⌋(v⌋w); a scalar on the left acts by multiplication."""
    x.ctx.require_compatible(u.ctx)
    matrix = _form_matrix(x.ctx, form)
    acc = {}
    for bits, coeff in x.terms.items():
        work = u.terms
        for i in reversed(blade_indices(bits)):
            work = _vector_contract(i, work, matrix)
            if not work:
                break
        add_scaled(acc, work, coeff)
    return Multivector(x.ctx, acc)


class UnitriangularBasis:
    """A basis b_I of ∧V built by b_∅ = 1 and b_I = step(i, b_{I∖i}), i the
    lowest index of I, together with its inverse.

    Each b_I must be the blade e_I plus strictly lower grades, so both
    directions of the basis change are unitriangular in the grade filtration.
    ``to_wedge`` maps I to b_I; ``from_wedge`` maps I to the coordinates of
    e_I over the b-basis.
    """

    def __init__(self, ctx, step):
        self.ctx = ctx
        self.to_wedge = {}
        self.from_wedge = {}
        for bits in sorted(ctx.basis_blades(), key=lambda b: (blade_grade(b), b)):
            if bits == 0:
                image = ctx.one()
            else:
                low = bits & -bits
                image = step(low.bit_length(), self.to_wedge[bits ^ low])
            grade = blade_grade(bits)
            if image.coefficient(bits) != 1 or any(
                    b != bits and blade_grade(b) >= grade for b in image.terms):
                raise ComputationError("internal: basis is not unitriangular")
            expansion = {bits: Fraction(1)}
            for b, c in image.terms.items():
                if b != bits:
                    add_scaled(expansion, self.from_wedge[b], -c)
            self.to_wedge[bits] = image
            self.from_wedge[bits] = expansion

    def to_coords(self, u: Multivector) -> dict:
        """Coordinates of u over the b-basis."""
        coords = {}
        for bits, coeff in u.terms.items():
            add_scaled(coords, self.from_wedge[bits], coeff)
        return coords

    def from_coords(self, coords: dict) -> Multivector:
        """The element with the given b-basis coordinates."""
        acc = {}
        for bits, coeff in coords.items():
            add_scaled(acc, self.to_wedge[bits].terms, coeff)
        return Multivector(self.ctx, acc)
