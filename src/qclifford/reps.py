"""Representation probes: idempotents, left ideals with exact dimensions,
Peirce corners, an exact splitting search, and the index-doubled CAR / U(2)
model.

Ideal and corner dimensions come from the vacuum functional ⟨·⟩^A_0, the
scalar ∧̇-coordinate. Every multiplication operator has trace
tr(L_u) = tr(R_u) = 2^n·⟨u⟩^A_0, and right multiplication by an idempotent f
is a projector onto Cl·f, so dim Cl·f = 2^n·⟨f⟩^A_0. When n is even and g is
nondegenerate, Cl is central simple and dim f·Cl·f = (dim Cl·f)²/2^n. The
bases are still found by exact elimination, which stops as soon as it
reaches the known dimension; only a corner of an algebra with odd n or
degenerate g has no known dimension and reads every blade.

The splitting search works from the exact minimal polynomial of a corner
element and its rational roots, all of them, isolated by Sturm sequences
(`poly.rational_roots`). No float is used: every outcome and every
certificate is decided in exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import linalg, poly
from .errors import ComputationError, InputError, ShapeError
from .exterior import Multivector, blade_grade, reversion_sign
from .forms import FormContext, check_dim, split_form
from .scalars import (RING_GAUSSIAN, as_scalar, conj, format_scalar, gaussian,
                      imag_part, real_part)
from .textio import format_multivector
from .wick import vacuum_functional

DEFAULT_MAX_SEEDS = 32


def is_idempotent(f: Multivector) -> bool:
    return f * f == f


def _require_idempotent(f: Multivector):
    if not is_idempotent(f):
        raise InputError("element is not idempotent (f·f != f)")


@dataclass
class IdealBasis:
    """Exact basis and dimension of the left ideal Cl·f."""
    idempotent: Multivector
    basis: list
    dimension: int


def _ideal_dimension(f: Multivector) -> int:
    """dim Cl·f = tr(R_f) = 2^n·⟨f⟩^A_0 for an idempotent f."""
    size = 1 << f.ctx.dim
    value = size * vacuum_functional(f)
    if not (isinstance(value, Fraction) and value.denominator == 1
            and 0 <= value <= size):
        raise ComputationError(f"internal: trace {value} of an idempotent is "
                               f"not an integer in [0, {size}]")
    return int(value)


def _corner_dimension(f: Multivector) -> Optional[int]:
    """dim f·Cl·f = (dim Cl·f)²/2^n when Cl is central simple (n even, g
    nondegenerate); None otherwise."""
    ctx = f.ctx
    if ctx.dim % 2 or ctx.is_degenerate:
        return None
    dimension, rest = divmod(_ideal_dimension(f) ** 2, 1 << ctx.dim)
    if rest:
        raise ComputationError("internal: corner dimension is not an integer")
    return dimension


def _span(ctx: FormContext, elements, rank: Optional[int]) -> list:
    """Canonical basis of the span of elements: the nonzero rows of the
    exact RREF of their coordinates, rebuilt as multivectors. Elements are
    read lazily, and no further once the known rank is reached."""
    rows = linalg.row_space_basis((u.coordinates() for u in elements), rank)
    return [Multivector.from_terms(ctx, {b: c for b, c in enumerate(row) if c != 0})
            for row in rows]


def left_ideal(f: Multivector) -> IdealBasis:
    """Span of {blade·f}, blades in ascending order, reduced by exact
    elimination. The dimension is known beforehand, dim Cl·f = 2^n·⟨f⟩^A_0,
    so the products stop once that many are independent."""
    _require_idempotent(f)
    ctx = f.ctx
    basis = _span(ctx, (ctx.blade(bits) * f for bits in ctx.basis_blades()),
                  _ideal_dimension(f))
    return IdealBasis(idempotent=f, basis=basis, dimension=len(basis))


@dataclass
class CornerBasis:
    """Exact basis of the Peirce corner f·Cl·f; dimension 1 certifies f
    primitive."""
    idempotent: Multivector
    basis: list
    dimension: int

    @property
    def is_primitive(self) -> bool:
        return self.dimension == 1


def peirce_corner(f: Multivector) -> CornerBasis:
    """Span of {f·blade·f}, blades in ascending order, reduced by exact
    elimination. For even n and nondegenerate g, Cl is central simple and
    dim f·Cl·f = (dim Cl·f)²/2^n with dim Cl·f = 2^n·⟨f⟩^A_0, so the
    products stop once that many are independent; a primitive f stops after
    f·1·f = f. For odd n or degenerate g every blade is read."""
    _require_idempotent(f)
    ctx = f.ctx
    basis = _span(ctx, (f * ctx.blade(bits) * f for bits in ctx.basis_blades()),
                  _corner_dimension(f))
    return CornerBasis(idempotent=f, basis=basis, dimension=len(basis))


# -- exact splitting from the minimal polynomial ----------------------------


def _proportional(u: Multivector, v: Multivector) -> bool:
    """True when u = λ·v for a scalar λ (v nonzero)."""
    if v.is_zero():
        return u.is_zero()
    bits, lead = next(iter(v.terms.items()))
    lam = u.coefficient(bits) / lead
    return u == v.scale(lam)


def _trial_elements(basis, f, seed: int, max_seeds: int):
    """Deterministic schedule: corner basis elements first (they frequently
    square to a scalar multiple of f, the friendly case), then seeded random
    small-integer combinations."""
    count = 0
    for b in basis:
        if count >= max_seeds:
            return
        if not _proportional(b, f):
            yield ("basis", b)
            count += 1
    trial = 0
    while count < max_seeds:
        rng = random.Random(seed * 1_000_003 + trial)
        coeffs = [rng.randint(-3, 3) for _ in basis]
        trial += 1
        if all(c == 0 for c in coeffs):
            continue
        c = f.ctx.zero()
        for b, co in zip(basis, coeffs):
            if co:
                c = c + b.scale(co)
        yield ("random", c)
        count += 1


def _krylov(c: Multivector, f: Multivector):
    """Powers f, c, …, c^(d−1) of a corner element and the monic minimal
    polynomial m of c in the corner (unit f), coefficients low to high."""
    powers, rows = [f], [f.coordinates()]
    while True:
        nxt = c * powers[-1]
        row = nxt.coordinates()
        coords = linalg.coordinates_in(rows, row)
        if coords is not None:
            return powers, [-a for a in coords] + [Fraction(1)]
        powers.append(nxt)
        rows.append(row)


@dataclass
class SplitSearchResult:
    outcome: str  # "primitive" | "split" | "no-split-found"
    first: Optional[Multivector] = None
    second: Optional[Multivector] = None
    corner_dimension: int = 0
    trials: list = field(default_factory=list)


def corner_split_search(f: Multivector, seed: int = 0,
                        max_seeds: int = DEFAULT_MAX_SEEDS) -> SplitSearchResult:
    """Look for an orthogonal idempotent split f = p + (f−p) inside the
    Peirce corner.

    Strategy: for each trial corner element c, the exact minimal polynomial
    m (Krylov sequence f, c, c², …) and all of its rational roots, isolated
    by Sturm sequences and checked by m(λ) = 0; each trial lists them as
    exact text. For a simple root λ, the spectral idempotent p = r(c)/r(λ)
    with r = m/(x−λ) is verified exactly: p·p = p, f·p = p·f = p. Returns
    the first certified split; "no-split-found" is an inconclusive outcome,
    distinct from a primitivity certificate (corner dimension 1). The zero
    idempotent has no corner to search and is refused.
    """
    if f.is_zero():
        raise InputError("the zero idempotent has no split")
    corner = peirce_corner(f)
    if corner.dimension == 1:
        return SplitSearchResult(outcome="primitive", corner_dimension=1)
    trials = []
    for trial_index, (kind, c) in enumerate(
            _trial_elements(corner.basis, f, seed, max_seeds)):
        entry = {"trial": trial_index, "kind": kind,
                 "element": format_multivector(c)}
        trials.append(entry)
        powers, m = _krylov(c, f)
        single = poly.power_of_linear(m)
        roots = [single] if single is not None else poly.rational_roots(m)
        entry["eigenvalues"] = [format_scalar(lam) for lam in roots]
        if single is not None:
            entry["result"] = "single-eigenvalue"
            continue
        entry["result"] = "no-rational-projection"
        for lam in roots:
            r = poly.divide_linear(m, lam)[0]
            scale = poly.divide_linear(r, lam)[1]
            if scale == 0:  # multiple root: no spectral idempotent from r
                continue
            p = f.ctx.zero()
            for power, co in zip(powers, r):
                if co != 0:
                    p = p + power.scale(co / scale)
            if p.is_zero() or p == f:
                continue
            if p * p == p and f * p == p and p * f == p:
                entry["result"] = "split-found"
                return SplitSearchResult("split", p, f - p, corner.dimension, trials)
    return SplitSearchResult("no-split-found", corner_dimension=corner.dimension,
                             trials=trials)


@dataclass
class PrimitiveDecomposition:
    primitives: list
    unresolved: list
    log: list

    @property
    def complete(self) -> bool:
        return not self.unresolved


def primitive_decomposition(f: Multivector, seed: int = 0,
                            max_seeds: int = DEFAULT_MAX_SEEDS) -> PrimitiveDecomposition:
    """Split f all the way down: repeated corner searches, breadth-first.
    Leaves that resist splitting land in `unresolved` (inconclusive), never
    among the certified primitives."""
    _require_idempotent(f)
    queue = [f]
    primitives, unresolved, log = [], [], []
    while queue:
        g = queue.pop(0)
        result = corner_split_search(g, seed=seed, max_seeds=max_seeds)
        log.append((format_multivector(g), result.outcome))
        if result.outcome == "primitive":
            primitives.append(g)
        elif result.outcome == "split":
            queue.append(result.first)
            queue.append(result.second)
        else:
            unresolved.append(g)
    return PrimitiveDecomposition(primitives, unresolved, log)


# -- index doubling: CAR algebra and the U(2) model ------------------------


@dataclass
class CarContext:
    """Index-doubled algebra over V ⊕ V*: generators 1..n create, n+1..2n
    annihilate; the symmetric pairing is the half-scaled hyperbolic block."""
    ctx: FormContext
    n: int
    A_extra: tuple

    def creator(self, i: int) -> Multivector:
        if not 1 <= i <= self.n:
            raise ShapeError(f"mode {i} out of range 1..{self.n}")
        return self.ctx.e(i)

    def annihilator(self, i: int) -> Multivector:
        if not 1 <= i <= self.n:
            raise ShapeError(f"mode {i} out of range 1..{self.n}")
        return self.ctx.e(self.n + i)

    def dagger(self, u: Multivector) -> Multivector:
        """Anti-involution: coefficient conjugation, product reversion, and
        the swap creator ↔ annihilator."""
        self.ctx.require_compatible(u.ctx)
        n = self.n
        terms = {}
        for bits, coeff in u.terms.items():
            created, annihilated = bits & ((1 << n) - 1), bits >> n
            # each swapped creator now sorts above every swapped annihilator
            sign = (reversion_sign(blade_grade(bits))
                    * (-1) ** (blade_grade(created) * blade_grade(annihilated)))
            terms[(created << n) | annihilated] = conj(coeff) * sign
        return Multivector(self.ctx, terms)

    def fock_idempotent(self) -> Multivector:
        """Vacuum projector (a_1·a_1†)·…·(a_n·a_n†)."""
        f = self.ctx.one()
        for i in range(1, self.n + 1):
            f = f * (self.annihilator(i) * self.creator(i))
        return f


def build_car(n: int, A_extra=None, ring: str = RING_GAUSSIAN) -> CarContext:
    """Index-doubled context of dimension 2n with B = ½·hyperbolic + A_extra."""
    if n < 1:
        raise InputError("need at least one mode")
    dim = 2 * n
    check_dim(dim)
    if A_extra is None:
        A = [[Fraction(0)] * dim for _ in range(dim)]
    else:
        A = [[as_scalar(x) for x in row] for row in A_extra]
        if len(A) != dim or any(len(row) != dim for row in A):
            raise ShapeError(f"A_extra must be {dim}x{dim}")
        for i in range(dim):
            for j in range(dim):
                if A[i][j] != -A[j][i]:
                    raise InputError("A_extra must be exactly antisymmetric")
    half = Fraction(1, 2)
    B = [[A[i][j] for j in range(dim)] for i in range(dim)]
    for i in range(n):
        B[i][n + i] = B[i][n + i] + half
        B[n + i][i] = B[n + i][i] + half
    ctx = split_form(B, ring=ring)
    return CarContext(ctx=ctx, n=n,
                      A_extra=tuple(tuple(row) for row in A))


# -- the U(2) generator solve ----------------------------------------------


def _pauli():
    one = Fraction(1)
    i = gaussian(0, 1)
    return (
        ((Fraction(0), one), (one, Fraction(0))),
        ((Fraction(0), -i), (i, Fraction(0))),
        ((one, Fraction(0)), (Fraction(0), -one)),
    )


@dataclass
class U2Solution:
    status: str  # "solved" | "unsolvable" | "verification-failed"
    N: Optional[Multivector] = None
    S: Optional[list] = None
    shift_dimension: int = 0
    checks: dict = field(default_factory=dict)


def solve_u2_generators(car: CarContext) -> U2Solution:
    """Solve for N and S_1..3 in scalars ⊕ bivectors from their commutation
    relations with every generator, plus hermiticity under the dagger; then
    verify the su(2) relations [S_k,S_l] = iε_{klm}S_m and [S_k,N] = 0 on the
    canonical representative (free scalar shifts set to zero)."""
    ctx = car.ctx
    if ctx.ring != RING_GAUSSIAN:
        raise InputError("the U(2) solve needs ring Q(i)")
    if car.n != 2:
        raise InputError("the U(2) model is the two-mode instance")
    basis_bits = [0] + [b for b in ctx.basis_blades() if blade_grade(b) == 2]
    basis = [ctx.blade(b) for b in basis_bits]
    m = len(basis)
    gens = [car.creator(1), car.creator(2), car.annihilator(1), car.annihilator(2)]
    commutators = [[b * g - g * b for g in gens] for b in basis]
    daggers = [car.dagger(b) for b in basis]

    def rows_for(targets):
        rows, rhs = [], []
        for gi in range(len(gens)):
            support = set()
            for t in range(m):
                support |= set(commutators[t][gi].terms)
            support |= set(targets[gi].terms)
            for bbits in sorted(support):
                cs = [commutators[t][gi].coefficient(bbits) for t in range(m)]
                tv = targets[gi].coefficient(bbits)
                rows.append([real_part(c) for c in cs] + [-imag_part(c) for c in cs])
                rhs.append(real_part(tv))
                rows.append([imag_part(c) for c in cs] + [real_part(c) for c in cs])
                rhs.append(imag_part(tv))
        # hermiticity: sum_t conj(z_t)·dagger(U_t) = sum_r z_r·U_r
        for r, rbits in enumerate(basis_bits):
            dre = [Fraction(0)] * m
            for t in range(m):
                dre[t] = real_part(daggers[t].coefficient(rbits))
            re_row = list(dre)
            re_row[r] -= 1
            rows.append(re_row + [Fraction(0)] * m)
            rhs.append(Fraction(0))
            im_row = [-x for x in dre]
            im_row[r] -= 1
            rows.append([Fraction(0)] * m + im_row)
            rhs.append(Fraction(0))
        return rows, rhs

    def assemble(solution):
        acc = ctx.zero()
        for t in range(m):
            z = gaussian(solution[t], solution[m + t])
            if z != 0:
                acc = acc + basis[t].scale(z)
        return acc

    zero = ctx.zero()
    half = Fraction(1, 2)
    sigma = _pauli()
    creators = [car.creator(1), car.creator(2)]
    annihilators = [car.annihilator(1), car.annihilator(2)]

    systems = {"N": [creators[0], creators[1], -annihilators[0], -annihilators[1]]}
    for k in range(3):
        targets = []
        for i in range(2):  # [S_k, a_i†] = +½ Σ_p σ_pi a_p†
            acc = zero
            for p in range(2):
                if sigma[k][p][i] != 0:
                    acc = acc + creators[p].scale(half * sigma[k][p][i])
            targets.append(acc)
        for i in range(2):  # [S_k, a_i] = −½ Σ_q σ_iq a_q
            acc = zero
            for q in range(2):
                if sigma[k][i][q] != 0:
                    acc = acc - annihilators[q].scale(half * sigma[k][i][q])
            targets.append(acc)
        systems[f"S{k + 1}"] = targets

    solved = {}
    shift_dim = None
    for name, targets in systems.items():
        rows, rhs = rows_for(targets)
        solution = linalg.solve(rows, rhs)
        if solution is None:
            return U2Solution(status="unsolvable",
                              checks={f"{name}_system_consistent": False})
        if shift_dim is None:
            shift_dim = len(linalg.nullspace(rows))
        solved[name] = assemble(solution)

    N = solved["N"]
    S = [solved["S1"], solved["S2"], solved["S3"]]
    i_unit = gaussian(0, 1)
    checks = {}
    for name, targets in systems.items():
        X = solved[name]
        ok = all(X * g - g * X == t for g, t in zip(gens, targets))
        checks[f"{name}_commutators"] = ok
    checks["N_hermitian"] = car.dagger(N) == N
    for k in range(3):
        checks[f"S{k + 1}_hermitian"] = car.dagger(S[k]) == S[k]
    for (k, l, mm) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        lhs = S[k] * S[l] - S[l] * S[k]
        checks[f"su2_{k + 1}{l + 1}"] = lhs == S[mm].scale(i_unit)
    for k in range(3):
        checks[f"S{k + 1}_commutes_with_N"] = S[k] * N == N * S[k]
    status = "solved" if all(checks.values()) else "verification-failed"
    return U2Solution(status=status, N=N, S=S,
                      shift_dimension=shift_dim or 0, checks=checks)
