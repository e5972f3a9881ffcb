"""Normal-ordering machinery: outer exponentials, the dotted wedge, the
A-dependent grade projectors, grading-inequality witnesses and the
generator-to-generator transport between Cl(g,V) and Cl(B,V).

Two independent realizations of the same structure live here on purpose:
the dotted-basis recursion (e_i∧̇u = e_i∧u + e_i⌋A u) and the monomial
transport. Tests hold them against each other and against the outer
exponential identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .clifford import monomial_table
from .errors import ContextMismatch, ShapeError
from .exterior import (Multivector, UnitriangularBasis, blade_grade, blade_indices,
                       contract_left, wedge)
from .forms import FormContext, bivector_from_antisym
from .scalars import Scalar, format_scalar


def outer_exp(F: Multivector) -> Multivector:
    """Σ_k (1/k!) ∧^k F; finite because grades top out at the dimension."""
    if not F.is_zero() and not F.is_homogeneous(2):
        raise ShapeError("outer exponential needs a purely grade-2 argument")
    ctx = F.ctx
    acc = ctx.one()
    power = ctx.one()
    for k in range(1, ctx.dim // 2 + 1):
        power = wedge(power, F).scale(Fraction(1, k))
        if power.is_zero():
            break
        acc = acc + power
    return acc


# -- dotted wedge and the A-graded projectors ----------------------------


def _dotted_step(i: int, u: Multivector) -> Multivector:
    """e_i∧̇u = e_i∧u + e_i⌋A u."""
    e = u.ctx.e(i)
    return wedge(e, u) + contract_left(e, u, form="A")


def _dotted_basis(ctx: FormContext) -> UnitriangularBasis:
    """The ∧̇-blade basis against the ∧-blades; built from A alone and
    cached per context."""
    return ctx.cached("dotted", lambda: UnitriangularBasis(ctx, _dotted_step))


def dotted_blade(ctx: FormContext, bits: int) -> Multivector:
    """The ∧̇-monomial e_{i1}∧̇(e_{i2}∧̇(…)) expressed in the wedge basis."""
    return _dotted_basis(ctx).to_wedge[bits]


def to_dotted_coords(u: Multivector) -> dict:
    """Coefficients of u over the ∧̇-blade basis."""
    return _dotted_basis(u.ctx).to_coords(u)


def vacuum_functional(u: Multivector) -> Scalar:
    """<u>^A_0, the scalar ∧̇-coordinate of u; <1> = 1."""
    return to_dotted_coords(u).get(0, Fraction(0))


def dotted_wedge(x: Multivector, u: Multivector) -> Multivector:
    """x∧̇u = x∧u + x⌋A u for a vector x; general left factors act through
    their ∧̇-blade expansion, vectors applied right to left."""
    x.ctx.require_compatible(u.ctx)
    acc = x.ctx.zero()
    for bits, coeff in to_dotted_coords(x).items():
        w = u
        for i in reversed(blade_indices(bits)):
            w = _dotted_step(i, w)
        acc = acc + w.scale(coeff)
    return acc


def a_grade_project(u: Multivector, r: int) -> Multivector:
    """<u>^A_r: keep exactly the ∧̇-grade-r part. Projections over all r sum
    back to u; with A = 0 this is the plain wedge-grade projector."""
    ctx = u.ctx
    if not 0 <= r <= ctx.dim:
        raise ShapeError(f"grade {r} out of range 0..{ctx.dim}")
    basis = _dotted_basis(ctx)
    return basis.from_coords({bits: coeff for bits, coeff in basis.to_coords(u).items()
                              if blade_grade(bits) == r})


# -- bundled Wick data ----------------------------------------------------


@dataclass
class WickData:
    """F with A(x,y) = F⌋g(x∧y), its outer exponentials, and the ∧̇-basis
    conversion tables of the context."""
    ctx: FormContext
    F: Multivector
    expF: Multivector
    expNegF: Multivector
    dotted_to_wedge: dict
    wedge_to_dotted: dict


def wick_data(ctx: FormContext) -> WickData:
    F = bivector_from_antisym(ctx)
    basis = _dotted_basis(ctx)
    return WickData(
        ctx=ctx,
        F=F,
        expF=outer_exp(F),
        expNegF=outer_exp(-F),
        dotted_to_wedge=basis.to_wedge,
        wedge_to_dotted=basis.from_wedge,
    )


@dataclass
class WickIdentityReport:
    residual_unit: Multivector
    residual_sandwich: Multivector
    residual_contraction: Multivector

    @property
    def all_zero(self) -> bool:
        return (
            self.residual_unit.is_zero()
            and self.residual_sandwich.is_zero()
            and self.residual_contraction.is_zero()
        )


def verify_wick_identities(ctx: FormContext, F: Multivector, x: Multivector,
                           u: Multivector) -> WickIdentityReport:
    """Residuals of the three outer-exponential identities:

    (i)   e^{-F}∧e^{F} − 1
    (ii)  e^{-F}∧x∧e^{F}∧u − x∧u
    (iii) e^{-F}∧(x⌋g(e^{F}∧u)) − (x⌋g u + (x⌋g F)∧u)

    All three vanish identically for any bivector F and vector x.
    """
    ctx.require_compatible(F.ctx)
    ctx.require_compatible(x.ctx)
    ctx.require_compatible(u.ctx)
    if not F.is_zero() and not F.is_homogeneous(2):
        raise ShapeError("F must be a bivector")
    if not x.is_zero() and not x.is_homogeneous(1):
        raise ShapeError("x must be a vector")
    exp_plus = outer_exp(F)
    exp_minus = outer_exp(-F)
    res_unit = wedge(exp_minus, exp_plus) - ctx.one()
    res_sandwich = wedge(wedge(wedge(exp_minus, x), exp_plus), u) - wedge(x, u)
    lhs = wedge(exp_minus, contract_left(x, wedge(exp_plus, u), form="g"))
    rhs = contract_left(x, u, form="g") + wedge(contract_left(x, F, form="g"), u)
    return WickIdentityReport(res_unit, res_sandwich, lhs - rhs)


# -- grading comparison ----------------------------------------------------


@dataclass
class GradingVerdict:
    equal: bool
    witness_blade: Optional[int] = None
    witness_grade: Optional[int] = None
    projection_first: Optional[Scalar] = None
    projection_second: Optional[Scalar] = None


def grading_witness(ctx1: FormContext, ctx2: FormContext) -> GradingVerdict:
    """Decide whether two algebras on the same generators carry the same
    multivector grading; inequality is witnessed by a 2-blade whose scalar
    projections differ (they equal −A_ij in each context).

    Two algebras are comparable when they have the same dimension, the same
    ring and the same generator squares e_i² = B_ii (the diagonal of g);
    otherwise ContextMismatch names what differed. The grading depends on A
    only (`_dotted_basis` is built from A alone) and the witness compares A
    entries only, so off-diagonal g may differ: B = diag(1,−1) and
    B = [[1,1],[0,−1]] (g_12 = A_12 = 1/2) are both Cl_{1,1}, with A = 0 and
    A ≠ 0, and are compared. Equal squares keep e_i the same generator on
    both sides, so diag(1,1) and diag(2,1) stay incomparable. Requiring all
    of g equal, or g isometric over Q, would refuse the Cl_{1,1} pair (its
    discriminants −1 and −5/4 lie in different square classes); dimension
    and ring alone, or the real signature, would accept diag(1,1) against
    diag(2,1)."""
    if ctx1.dim != ctx2.dim:
        raise ContextMismatch(
            f"gradings are incomparable: dimensions differ ({ctx1.dim} vs {ctx2.dim})"
        )
    if ctx1.ring != ctx2.ring:
        raise ContextMismatch(
            f"gradings are incomparable: rings differ ({ctx1.ring} vs {ctx2.ring})"
        )
    for i in range(ctx1.dim):
        s1, s2 = ctx1.g[i][i], ctx2.g[i][i]
        if s1 != s2:
            raise ContextMismatch(
                f"gradings are incomparable: generator squares differ "
                f"(e{i + 1}^2 = {format_scalar(s1)} vs {format_scalar(s2)})"
            )
    if ctx1.A == ctx2.A:
        return GradingVerdict(equal=True)
    n = ctx1.dim
    for i in range(n):
        for j in range(i + 1, n):
            if ctx1.A[i][j] != ctx2.A[i][j]:
                bits = (1 << i) | (1 << j)
                p1 = vacuum_functional(ctx1.blade(bits))
                p2 = vacuum_functional(ctx2.blade(bits))
                if p1 == p2:
                    raise ContextMismatch(
                        "internal: differing A entry produced equal projections"
                    )
                return GradingVerdict(
                    equal=False,
                    witness_blade=bits,
                    witness_grade=0,
                    projection_first=p1,
                    projection_second=p2,
                )
    raise ContextMismatch("internal: unequal A without a differing entry")


# -- transport -------------------------------------------------------------


def wick_transport(ctx: FormContext, u: Multivector) -> Multivector:
    """Re-express a Cl(g,V) element as the identical Clifford-monomial
    expression evaluated in Cl(B,V). An algebra isomorphism: generators map to
    generators, products and parity are preserved."""
    gctx = ctx.symmetric_context()
    gctx.require_compatible(u.ctx)
    coords = monomial_table(gctx).to_monomial_coords(u)
    return monomial_table(ctx).from_monomial_coords(coords)


def wick_transport_inverse(ctx: FormContext, u: Multivector) -> Multivector:
    """Inverse direction: Cl(B,V) element to its Cl(g,V) counterpart."""
    ctx.require_compatible(u.ctx)
    coords = monomial_table(ctx).to_monomial_coords(u)
    return monomial_table(ctx.symmetric_context()).from_monomial_coords(coords)
