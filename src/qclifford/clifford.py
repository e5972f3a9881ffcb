"""The Clifford product of Cl(B,V) on the wedge-basis carrier space.

Products are computed Chevalley-style, from the generator operators
L_i = e_i⌋B + e_i∧ acting on ∧V, one blade pair at a time. With i the
lowest index of I and I' = I∖{i}, e_i∧e_I' = e_i·e_I' − e_i⌋B e_I' gives

    e_I·e_J = L_i(e_I'·e_J) − Σ_{j∈I'} (−1)^{pos(j)} B_ij · e_{I'∖j}·e_J,

where pos(j) counts the indices of I' below j. Every pair, and every
smaller pair the recursion reaches, is kept in the context's pair cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import linalg
from .errors import ComputationError, ShapeError
from .exterior import Multivector, UnitriangularBasis, _vector_contract, add_scaled


def _apply_generator(i: int, terms: dict, B) -> dict:
    """L_i on a term dict, as a fresh dict."""
    low = 1 << (i - 1)
    below = low - 1
    wedged = {bits | low: -c if (bits & below).bit_count() & 1 else c
              for bits, c in terms.items() if not bits & low}
    return add_scaled(_vector_contract(i, terms, B), wedged)


def clifford_apply_generator(i: int, u: Multivector) -> Multivector:
    """L_i(u) = e_i⌋B u + e_i∧u; applying it twice scales by Q(e_i)."""
    ctx = u.ctx
    if not 1 <= i <= ctx.dim:
        raise ShapeError(f"generator index {i} out of range 1..{ctx.dim}")
    return Multivector(ctx, _apply_generator(i, u.terms, ctx.B))


class MonomialTable(UnitriangularBasis):
    """Per-context conversion between the wedge basis and the basis of
    Clifford monomials e_{i1}·…·e_{ik} with ascending index sets.

    Both directions are unitriangular in the grade filtration: the grade-k
    monomial equals the grade-k blade plus strictly lower-grade terms.
    """

    def __init__(self, ctx):
        super().__init__(ctx, clifford_apply_generator)

    to_monomial_coords = UnitriangularBasis.to_coords
    from_monomial_coords = UnitriangularBasis.from_coords


def monomial_table(ctx) -> MonomialTable:
    return ctx.cached("monomial_table", lambda: MonomialTable(ctx))


def _pair_product(pairs: dict, B, left: int, right: int) -> dict:
    """Terms of e_left·e_right by the recursion above; read-only once cached."""
    key = (left, right)
    terms = pairs.get(key)
    if terms is None:
        if left == 0:
            terms = {right: Fraction(1)}
        else:
            low = left & -left
            rest = left ^ low
            i = low.bit_length()
            terms = _apply_generator(i, _pair_product(pairs, B, rest, right), B)
            for bits, c in _vector_contract(i, {rest: Fraction(1)}, B).items():
                add_scaled(terms, _pair_product(pairs, B, bits, right), -c)
        pairs[key] = terms
    return terms


def clifford_product(u: Multivector, v: Multivector) -> Multivector:
    """Associative unital product with x·x = Q(x)·1 for every vector x."""
    u.ctx.require_compatible(v.ctx)
    ctx = u.ctx
    pairs = ctx.cached("pairs", dict)
    acc = {}
    for bu, cu in u.terms.items():
        for bv, cv in v.terms.items():
            add_scaled(acc, _pair_product(pairs, ctx.B, bu, bv), cu * cv)
    return Multivector(ctx, acc)


@dataclass
class RelationReport:
    """Outcome of checking x_i·x_j + x_j·x_i = 2·target_ij·1 for all pairs."""
    passed: bool
    first_violation: Optional[tuple] = None
    violations: list = field(default_factory=list)
    pairs_checked: int = 0


def verify_generator_relations(gens, target_g) -> RelationReport:
    """Check the anticommutation table of a generator family against a
    symmetric matrix; failures are reported, not raised."""
    gens = list(gens)
    m = len(gens)
    if len(target_g) != m or any(len(row) != m for row in target_g):
        raise ShapeError("target matrix must be square of the generator count")
    report = RelationReport(passed=True)
    for i in range(m):
        gens[0].ctx.require_compatible(gens[i].ctx)
        for j in range(i, m):
            lhs = gens[i] * gens[j] + gens[j] * gens[i]
            residual = lhs - gens[i].ctx.scalar(2 * target_g[i][j])
            report.pairs_checked += 1
            if not residual.is_zero():
                report.passed = False
                if report.first_violation is None:
                    report.first_violation = (i + 1, j + 1)
                report.violations.append((i + 1, j + 1, residual))
    return report


def regular_representation(u: Multivector):
    """Matrix of left multiplication by u in the wedge-blade basis
    (rows and columns ordered by ascending bit pattern)."""
    ctx = u.ctx
    size = 1 << ctx.dim
    cols = []
    for bv in range(size):
        cols.append((u * ctx.blade(bv)).coordinates())
    return [[cols[j][i] for j in range(size)] for i in range(size)]


def inverse(u: Multivector) -> Multivector:
    """Two-sided inverse via the regular representation; raises when u is
    singular (zero divisors are common in these algebras)."""
    ctx = u.ctx
    rhs = [Fraction(0)] * (1 << ctx.dim)
    rhs[0] = Fraction(1)
    solution = linalg.solve(regular_representation(u), rhs)
    if solution is None:
        raise ComputationError("element is not invertible")
    x = Multivector.from_terms(
        ctx, {bits: c for bits, c in enumerate(solution) if c != 0}
    )
    if (u * x != ctx.one()) or (x * u != ctx.one()):
        raise ComputationError("element is not invertible")
    return x
