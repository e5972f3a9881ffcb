"""The Clifford product of Cl(B,V) on the wedge-basis carrier space.

Products are computed Chevalley-style, from the generator operators
L_i = e_i⌋B + e_i∧ acting on ∧V, one blade pair at a time. With i the
lowest index of I and I' = I∖{i}, e_i∧e_I' = e_i·e_I' − e_i⌋B e_I' gives

    e_I·e_J = L_i(e_I'·e_J) − Σ_{j∈I'} (−1)^{pos(j)} B_ij · e_{I'∖j}·e_J,

where pos(j) counts the indices of I' below j. Every pair, and every
smaller pair the recursion reaches, is kept in the context's pair cache.

The recursion runs over integers. With d the lcm of the denominators of B
(of both parts of each entry over Q(i)), it uses B̃ = d²·B in place of B, and
the cached terms of e_I·e_J are then d^(|I|+|J|−|K|) times the true
coefficient of e_K: the wedge step keeps |I|+|J|−|K|, a contraction step
raises it by 2. The exponent is an integer since |K| ≡ |I|+|J| (mod 2). A
product maps u_I to L_u·u_I·d^(n−|I|), L_u the common denominator of u, and
v alike, so the sum over the blade pairs is L_u·L_v·d^(2n−|K|) times the
coefficient of e_K; one division per output term recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from . import linalg
from .errors import ComputationError, ShapeError
from .exterior import Multivector, UnitriangularBasis
from .scalars import GaussianRational, gaussian


class GaussianInteger:
    """re + im·i with int parts: the kernel's integer type over Q(i). It
    mixes with int and never leaves the kernel."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __add__(self, other):
        if other.__class__ is int:
            return GaussianInteger(self.re + other, self.im)
        return GaussianInteger(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianInteger(-self.re, -self.im)

    def __mul__(self, other):
        if other.__class__ is int:
            return GaussianInteger(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianInteger(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)


def clifford_apply_generator(i: int, u: Multivector) -> Multivector:
    """L_i(u) = e_i⌋B u + e_i∧u = e_i·u; applying it twice scales by Q(e_i)."""
    return u.ctx.e(i) * u


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


def _denominator(x) -> int:
    """The lcm of the denominators of a scalar's parts."""
    if x.__class__ is GaussianRational:
        return lcm(x.re.denominator, x.im.denominator)
    return x.denominator


def _integral(x):
    """A scalar with integer parts as an int or a GaussianInteger."""
    if x.__class__ is GaussianRational:
        return GaussianInteger(x.re.numerator, x.im.numerator)
    return x.numerator


def _integer_form(ctx):
    """(rows, powers): rows[i] lists (bit, bits below it, B̃_ij) over the
    nonzero entries of row i of B̃ = d²·B, and powers[k] = d^k for k ≤ 2n."""
    def build():
        d = lcm(*(_denominator(x) for row in ctx.B for x in row))
        rows = [[(1 << j, (1 << j) - 1, _integral(x * (d * d)))
                 for j, x in enumerate(row) if x] for row in ctx.B]
        return rows, [d ** k for k in range(2 * ctx.dim + 1)]
    return ctx.cached("integer_form", build)


def _pair_product(pairs: dict, rows, left: int, right: int) -> dict:
    """Integer terms of e_left·e_right, scaled as in the module docstring,
    by the recursion above; read-only once cached."""
    key = (left, right)
    terms = pairs.get(key)
    if terms is None:
        if left == 0:
            terms = {right: 1}
        else:
            low = left & -left
            rest = left ^ low
            below = low - 1
            row = rows[low.bit_length() - 1]
            acc = {}
            for bits, c in _pair_product(pairs, rows, rest, right).items():
                # L_i: the contraction e_i⌋B̃ and the wedge e_i∧
                for bit, under, b in row:
                    if bits & bit:
                        t = bits ^ bit
                        x = c * b
                        acc[t] = acc.get(t, 0) + (-x if (bits & under).bit_count() & 1 else x)
                if not bits & low:
                    t = bits | low
                    acc[t] = acc.get(t, 0) + (-c if (bits & below).bit_count() & 1 else c)
            for bit, under, b in row:
                if rest & bit:
                    f = b if (rest & under).bit_count() & 1 else -b
                    for t, c in _pair_product(pairs, rows, rest ^ bit, right).items():
                        acc[t] = acc.get(t, 0) + f * c
            terms = {t: c for t, c in acc.items() if c}
        pairs[key] = terms
    return terms


def _integer_terms(terms: dict, powers: list, n: int):
    """(L, {I: L·u_I·d^(n−|I|)}) for u's terms, L their common denominator."""
    den = lcm(*map(_denominator, terms.values()))
    out = {}
    for bits, c in terms.items():
        scale = powers[n - bits.bit_count()]
        if c.__class__ is GaussianRational:
            re, im = c.re, c.im
            out[bits] = GaussianInteger(re.numerator * (den // re.denominator) * scale,
                                        im.numerator * (den // im.denominator) * scale)
        else:
            out[bits] = c.numerator * (den // c.denominator) * scale
    return den, out


def clifford_product(u: Multivector, v: Multivector) -> Multivector:
    """Associative unital product with x·x = Q(x)·1 for every vector x."""
    u.ctx.require_compatible(v.ctx)
    ctx = u.ctx
    n = ctx.dim
    rows, powers = _integer_form(ctx)
    pairs = ctx.cached("pairs", dict)
    den_u, iu = _integer_terms(u.terms, powers, n)
    den_v, iv = _integer_terms(v.terms, powers, n)
    acc = {}
    for bu, cu in iu.items():
        for bv, cv in iv.items():
            c = cu * cv
            for bits, p in _pair_product(pairs, rows, bu, bv).items():
                acc[bits] = acc.get(bits, 0) + c * p
    den = den_u * den_v * powers[2 * n]
    out = {}
    for bits, a in acc.items():
        if a:
            scale = powers[bits.bit_count()]
            if a.__class__ is int:
                out[bits] = Fraction(a * scale, den)
            else:
                out[bits] = gaussian(Fraction(a.re * scale, den), Fraction(a.im * scale, den))
    return Multivector(ctx, out)


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
