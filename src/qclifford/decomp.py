"""Witt splitting, the hyperbolic-factor tensor decomposition, and detection
of deformed tensor products through connecting terms of the Wick bivector.

The tensor product here is the ungraded one: the complement factor embeds via
multiplication by the volume element of the hyperbolic factor, after which the
two images commute elementwise (they do not anticommute; anticommutators
across the factors are nonzero products, not scalars).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .clifford import RelationReport, monomial_table, verify_generator_relations
from .errors import ComputationError, InputError
from .exterior import Multivector, blade_indices, wedge
from .forms import FormContext, bivector_from_antisym, check_dim, split_form
from .scalars import imag_part, real_part


@dataclass(frozen=True)
class WittSplit:
    """Coordinate split into a hyperbolic pair M (one positive, one negative
    diagonal direction) and the complement N; g-orthogonal when g is diagonal."""
    n_indices: tuple
    m_indices: tuple


def witt_split(ctx: FormContext) -> WittSplit:
    """Split off the hyperbolic plane spanned by the last positive and last
    negative diagonal direction of g (deterministic tie-break)."""
    diag = [ctx.g[i][i] for i in range(ctx.dim)]
    if any(imag_part(x) != 0 for x in diag):
        raise ComputationError("Witt split requires real diagonal entries")
    positives = [i + 1 for i, x in enumerate(diag) if real_part(x) > 0]
    negatives = [i + 1 for i, x in enumerate(diag) if real_part(x) < 0]
    if not positives or not negatives:
        raise ComputationError(
            "no hyperbolic split: need at least one positive and one negative direction"
        )
    m = (positives[-1], negatives[-1])
    n = tuple(i for i in range(1, ctx.dim + 1) if i not in m)
    return WittSplit(n_indices=n, m_indices=m)


def _restrict(ctx: FormContext, indices) -> FormContext:
    rows = [[ctx.B[i - 1][j - 1] for j in indices] for i in indices]
    if not rows:
        raise InputError("cannot restrict to an empty index set")
    return split_form(rows, ring=ctx.ring)


class TensorContext:
    """Both factors of a Witt split together with their embeddings into the
    ambient algebra. The left factor embeds through right multiplication by
    the volume element of the hyperbolic factor; the right factor embeds
    identically."""

    def __init__(self, ctx: FormContext, split: WittSplit):
        self.combined = ctx
        self.split = split
        self.left = _restrict(ctx, split.n_indices) if split.n_indices else None
        self.right = _restrict(ctx, split.m_indices)
        m1, m2 = split.m_indices
        self.volume = ctx.e(m1) * ctx.e(m2)
        self.left_images = [ctx.e(i) * self.volume for i in split.n_indices]
        self.right_images = [ctx.e(i) for i in split.m_indices]

    def _embed(self, factor: FormContext, images, u: Multivector) -> Multivector:
        factor.require_compatible(u.ctx)
        coords = monomial_table(factor).to_monomial_coords(u)
        acc = self.combined.zero()
        for bits, coeff in coords.items():
            prod = self.combined.one()
            for local in blade_indices(bits):
                prod = prod * images[local - 1]
            acc = acc + prod.scale(coeff)
        return acc

    def embed_left(self, u: Multivector) -> Multivector:
        if self.left is None:
            raise InputError("the left factor is empty for this split")
        return self._embed(self.left, self.left_images, u)

    def embed_right(self, u: Multivector) -> Multivector:
        return self._embed(self.right, self.right_images, u)


@dataclass
class CrossPairWitness:
    """Residuals at one (N-generator, M-generator) pair. The anticommutator
    residual is identically zero (anticommutators only see g); deformation
    shows up as the commutator deviating from its A = 0 value 2·x∧y."""
    pair: tuple
    anticommutator_residual: Multivector
    commutator_deviation: Multivector


def deformation_commutator_witness(ctx: FormContext, split: WittSplit):
    witnesses = []
    for i in split.n_indices:
        x = ctx.e(i)
        for m in split.m_indices:
            y = ctx.e(m)
            anti = x * y + y * x - ctx.scalar(2 * ctx.g[i - 1][m - 1])
            comm = (x * y - y * x) - wedge(x, y).scale(2)
            witnesses.append(CrossPairWitness((i, m), anti, comm))
    return witnesses


@dataclass
class SplitMapReport:
    """Relation and commutation checks for the generator assignment
    e_i ↦ e_i·ω (complement) and e_m ↦ e_m (hyperbolic factor)."""
    split: WittSplit
    left_relations: RelationReport
    right_relations: RelationReport
    cross_commutators: list

    @property
    def passed(self) -> bool:
        return (
            self.left_relations.passed
            and self.right_relations.passed
            and all(r.is_zero() for _, r in self.cross_commutators)
        )


def verify_split_map(ctx: FormContext, split: WittSplit) -> SplitMapReport:
    tensor = TensorContext(ctx, split)
    left_target = [
        [ctx.g[i - 1][j - 1] for j in split.n_indices] for i in split.n_indices
    ]
    right_target = [
        [ctx.g[i - 1][j - 1] for j in split.m_indices] for i in split.m_indices
    ]
    left_rel = verify_generator_relations(tensor.left_images, left_target) \
        if tensor.left_images else RelationReport(passed=True)
    right_rel = verify_generator_relations(tensor.right_images, right_target)
    cross = []
    for i, alpha in zip(split.n_indices, tensor.left_images):
        for m, beta in zip(split.m_indices, tensor.right_images):
            cross.append(((i, m), alpha * beta - beta * alpha))
    return SplitMapReport(split, left_rel, right_rel, cross)


@dataclass
class PeriodicityReport:
    p: int
    q: int
    split: WittSplit
    map_report: SplitMapReport

    @property
    def passed(self) -> bool:
        return self.map_report.passed


def build_periodicity_map(p: int, q: int) -> PeriodicityReport:
    """Generator assignment realizing Cl(p,q) as the commuting product of a
    Cl(p-1,q-1) image and a hyperbolic Cl(1,1) factor, with its verification."""
    if p < 1 or q < 1:
        raise InputError("periodicity map needs p >= 1 and q >= 1")
    n = p + q
    check_dim(n)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(p):
        g[i][i] = Fraction(1)
    for i in range(p, n):
        g[i][i] = Fraction(-1)
    ctx = split_form(g)
    split = witt_split(ctx)
    return PeriodicityReport(p, q, split, verify_split_map(ctx, split))


@dataclass
class DecompositionVerdict:
    decomposable: bool
    split: WittSplit
    bivector: Multivector
    connecting: Multivector
    witnesses: list = field(default_factory=list)
    symmetric_cross: list = field(default_factory=list)
    map_report: Optional[SplitMapReport] = None

    @property
    def verdict(self) -> str:
        return "decomposable" if self.decomposable else "deformed"


def decompose(ctx: FormContext) -> DecompositionVerdict:
    """Decide whether the algebra splits along the coordinate Witt split or
    carries a deformed tensor product, witnessed by connecting terms of F.

    Requires nondegenerate g whose diagonal shows both signs. The symmetric
    part need not be diagonal; nonzero symmetric cross entries are reported
    alongside (they obstruct g-orthogonality of the coordinate split).
    """
    F = bivector_from_antisym(ctx)
    split = witt_split(ctx)
    m_set = set(split.m_indices)
    connecting = {}
    for bits, coeff in F.terms.items():
        i, j = blade_indices(bits)
        if (i in m_set) != (j in m_set):
            connecting[bits] = coeff
    F_c = Multivector.from_terms(ctx, connecting)
    witnesses = deformation_commutator_witness(ctx, split)
    symmetric_cross = [
        ((i, m), ctx.g[i - 1][m - 1])
        for i in split.n_indices
        for m in split.m_indices
        if ctx.g[i - 1][m - 1] != 0
    ]
    decomposable = F_c.is_zero()
    report = verify_split_map(ctx, split) if decomposable else None
    return DecompositionVerdict(
        decomposable=decomposable,
        split=split,
        bivector=F,
        connecting=F_c,
        witnesses=witnesses,
        symmetric_cross=symmetric_cross,
        map_report=report,
    )
