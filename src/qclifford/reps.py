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
element and its rational roots. Floats appear only as root guesses, each
kept only when the polynomial vanishes there exactly, so every outcome and
every certificate is decided in exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Optional

from . import linalg
from .errors import ComputationError, InputError, ShapeError
from .exterior import Multivector, blade_grade, reversion_sign
from .forms import FormContext, check_dim, split_form
from .scalars import (RING_GAUSSIAN, Scalar, as_scalar, conj, gaussian,
                      imag_part, real_part)
from .textio import format_multivector
from .wick import a_grade_project, to_dotted_coords

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
    value = size * to_dotted_coords(f).get(0, Fraction(0))
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


def _divide_linear(poly, lam):
    """Quotient and remainder poly(λ) of poly (coefficients low to high) by
    x − λ, by synthetic division."""
    acc, quotient = 0, []
    for a in reversed(poly):
        acc = acc * lam + a
        quotient.append(acc)
    remainder = quotient.pop()
    return quotient[::-1], remainder


def _power_of_linear(m):
    """λ when m = (x − λ)^d exactly, else None."""
    lam = -m[-2] / (len(m) - 1)
    q = [Fraction(1)]
    while len(q) < len(m):
        q = [a - lam * b for a, b in zip([0] + q, q + [0])]
    return lam if q == m else None


_ROOT_ITERATIONS = 100
_NEWTON_STEPS = 4


def _root_scale(m) -> int:
    """Exponent s of the substitution x = 2^s·y that brings the roots of the
    monic m near 1: 0 while every nonzero coefficient is a nonzero float,
    else the largest bit-length estimate log2|a_(d−k)|/k of a root size."""
    parts = [p for a in m for p in (real_part(a), imag_part(a)) if p != 0]
    try:
        if all(float(p) != 0 for p in parts):
            return 0
    except OverflowError:
        pass
    d = len(m) - 1
    return max((p.numerator.bit_length() - p.denominator.bit_length()) // k
               for k in range(1, d + 1)
               for p in (real_part(m[d - k]), imag_part(m[d - k])) if p != 0)


def _approximate_roots(m):
    """Durand–Kerner guesses at all complex roots of the monic m, in floats
    with a fixed iteration count. Returns (s, guesses): each guess
    approximates a root of m(2^s·y)/2^(s·d), so 2^s·guess approximates a
    root of m (see _root_scale). Raises OverflowError when a scaled
    coefficient still lies beyond the float range."""
    d = len(m) - 1
    s = _root_scale(m)
    if s:
        m = [a * Fraction(2) ** (s * (k - d)) for k, a in enumerate(m)]
    coeffs = [complex(float(real_part(a)), float(imag_part(a))) for a in m]
    radius = 2 * max(abs(coeffs[d - k]) ** (1 / k) for k in range(1, d + 1))
    z = [radius * (0.4 + 0.9j) ** k for k in range(d)]
    for _ in range(_ROOT_ITERATIONS):
        for i in range(d):
            denom = prod(z[i] - z[j] for j in range(d) if j != i)
            if denom != 0:
                z[i] -= _divide_linear(coeffs, z[i])[1] / denom
    return s, z


def _rational_roots(m):
    """Distinct rational roots of the monic m, ascending.

    With D the common denominator of Re(m), y = D·x makes Re(m) a monic
    integer polynomial, so a rational root is y/D for an integer y. Each
    float guess is scaled back by 2^s exactly, rounded to y and refined by
    Newton steps; y/D is kept only when m vanishes there exactly. Roots
    beyond the float range are reached this way too."""
    re = [real_part(a) for a in m]
    D = lcm(*(a.denominator for a in re))
    roots = set()
    try:
        s, guesses = _approximate_roots(m)
    except OverflowError:
        return []
    for z in guesses:
        try:
            y = round(D * Fraction(z.real) * Fraction(2) ** s)
        except (OverflowError, ValueError):  # the guess is not finite
            continue
        # each step doubles the 53 correct bits of the float guess, so a
        # y longer than 53·2^4 bits needs more than the usual four steps
        steps = max(_NEWTON_STEPS, ((abs(y).bit_length() - 1) // 53).bit_length())
        for _ in range(steps):
            x = Fraction(y, D)
            q, value = _divide_linear(re, x)
            slope = _divide_linear(q, x)[1]
            if value == 0 or slope == 0:
                break
            y = round(D * (x - value / slope))
        if _divide_linear(m, Fraction(y, D))[1] == 0:
            roots.add(Fraction(y, D))
    return sorted(roots)


def _rounded(x: Fraction):
    """x to 9 decimals, or its exact text when it lies beyond the float range."""
    try:
        return round(float(x), 9)
    except OverflowError:
        return str(x)


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
    m (Krylov sequence f, c, c², …) and its rational roots; for a simple root
    λ, the spectral idempotent p = r(c)/r(λ) with r = m/(x−λ), verified
    exactly: p·p = p, f·p = p·f = p. Returns the first certified split;
    "no-split-found" is an inconclusive outcome, distinct from a primitivity
    certificate (corner dimension 1).
    """
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
        single = _power_of_linear(m)
        roots = [single] if single is not None else _rational_roots(m)
        entry["eigenvalues"] = [[_rounded(real_part(lam)), _rounded(imag_part(lam))]
                                for lam in roots]
        if single is not None:
            entry["result"] = "single-eigenvalue"
            continue
        entry["result"] = "no-rational-projection"
        for lam in roots:
            r = _divide_linear(m, lam)[0]
            scale = _divide_linear(r, lam)[1]
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


def vacuum_functional(car: CarContext, u: Multivector) -> Scalar:
    """<u>^A_0: scalar coefficient of the A-graded projection; <1> = 1."""
    return a_grade_project(u, 0).scalar_part()


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


# -- deformed-algebra probe --------------------------------------------------


def deformed_probe(ctx: FormContext, reference_dimension: int = 8,
                   seed: int = 0, max_seeds: int = DEFAULT_MAX_SEEDS) -> dict:
    """Run the idempotent → ideal rank → corner → split-search pipeline from
    the unit and emit a verdict transcript.

    The reference value is recorded next to whatever the computation finds;
    disagreement is surfaced in the transcript, never silently dropped.
    """
    transcript = {
        "regular_representation_dimension": 1 << ctx.dim,
        "reference_dimension": reference_dimension,
    }
    first = corner_split_search(ctx.one(), seed=seed, max_seeds=max_seeds)
    transcript["unit_split_outcome"] = first.outcome
    if first.outcome != "split":
        transcript["status"] = "no-idempotent-found"
        transcript["matches_reference"] = False
        transcript["notes"] = [
            "no nontrivial idempotent was certified from the unit"
        ]
        return transcript
    f = first.first
    ideal = left_ideal(f)
    corner = peirce_corner(f)
    further = corner_split_search(f, seed=seed, max_seeds=max_seeds)
    transcript.update({
        "status": "completed",
        "idempotent": format_multivector(f),
        "idempotent_verified": is_idempotent(f),
        "ideal_dimension": ideal.dimension,
        "corner_dimension": corner.dimension,
        "split_outcome": further.outcome,
        "irreducible_under_rational_search": further.outcome != "split",
        "matches_reference": ideal.dimension == reference_dimension
        and further.outcome != "split",
    })
    notes = []
    if ideal.dimension != reference_dimension:
        notes.append(
            f"ideal dimension {ideal.dimension} differs from the recorded "
            f"reference {reference_dimension}"
        )
    if further.outcome == "split":
        notes.append(
            "the ideal decomposes further under the rational split search, "
            "contradicting irreducibility at this parameter point"
        )
    if further.outcome == "no-split-found":
        notes.append(
            "split search inconclusive: no certificate either way beyond the "
            "corner dimension"
        )
    transcript["notes"] = notes
    return transcript
