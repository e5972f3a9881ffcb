import random
from fractions import Fraction
from itertools import combinations

import pytest

from qclifford import (ComputationError, InputError, inverse, linalg,
                       regular_representation, split_form)
from qclifford import reps
from qclifford.reps import (build_car, corner_split_search, is_idempotent,
                            left_ideal, peirce_corner, primitive_decomposition,
                            solve_u2_generators)
from qclifford.scalars import gaussian
from qclifford.wick import a_grade_project, vacuum_functional

from conftest import rand_antisymmetric, rand_form, rand_multivector


def cl11():
    return split_form([[1, 0], [0, -1]])


def cl22():
    return split_form([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])


def test_is_idempotent_examples():
    c = cl11()
    assert is_idempotent(c.parse("1/2 + 1/2*e1"))
    assert is_idempotent(c.parse("1/2 + 1/2*e1^e2"))
    assert not is_idempotent(c.e(1))
    assert is_idempotent(c.one()) and is_idempotent(c.zero())


def test_left_ideal_dimensions_cl11():
    c = cl11()
    for text in ("1/2 + 1/2*e1", "1/2 + 1/2*e1^e2"):
        ideal = left_ideal(c.parse(text))
        assert ideal.dimension == 2
        for b in ideal.basis:
            assert b * ideal.idempotent == b
    with pytest.raises(InputError):
        left_ideal(c.e(1))


def test_left_ideal_parametric_idempotent_cl22():
    # two glued hyperbolic factors, undeformed; the closed-form idempotent
    # instance lives in the first factor
    c = cl22()
    f = c.parse("1/2 + 2/5*e1 + 3/10*e1^e2")
    assert is_idempotent(f)
    assert left_ideal(f).dimension == 8  # rank-2 projector in a 16-dim algebra
    split = corner_split_search(f)
    assert split.outcome == "split"
    parts_dims = sorted(left_ideal(p).dimension for p in (split.first, split.second))
    assert parts_dims == [4, 4]


def test_peirce_corner_examples():
    c = cl11()
    f = c.parse("1/2 + 1/2*e1")
    corner = peirce_corner(f)
    assert corner.dimension == 1 and corner.is_primitive
    # direct expansions: f·e2·f = 0 and f·(e1∧e2)·f = 0
    assert (f * c.e(2) * f).is_zero()
    assert (f * c.blade([1, 2]) * f).is_zero()
    assert peirce_corner(c.one()).dimension == 4

    f22 = cl22().parse("1/2 + 1/2*e1")
    assert peirce_corner(f22).dimension == 4


@pytest.mark.parametrize("ring", ["Q", "Q(i)"])
def test_trace_of_regular_representation_is_the_vacuum_functional(ring):
    # tr(L_u) = 2^n·<u>^A_0, the scalar ∧̇-coordinate, for every u
    rng = random.Random(70)
    i = gaussian(0, 1)
    for n in (2, 3, 4):
        for _ in range(2):
            ctx = rand_form(rng, n, ring=ring)
            u = rand_multivector(rng, ctx, 6)
            if ring == "Q(i)":
                u = u + rand_multivector(rng, ctx, 6).scale(i)
            matrix = regular_representation(u)
            trace = sum(matrix[k][k] for k in range(1 << n))
            assert trace == (1 << n) * a_grade_project(u, 0).scalar_part()


def _dimension_contexts():
    g = [1, -1, 1, -1]
    A = rand_antisymmetric(random.Random(71), 4)
    deformed = [[A[i][j] + (g[i] if i == j else 0) for j in range(4)] for i in range(4)]
    yield split_form(deformed)                                # n = 4, M_4(Q)
    yield rand_form(random.Random(1002), 2)                   # n = 2
    yield rand_form(random.Random(1001), 4)                   # n = 4, corners of dim 4
    yield build_car(2, rand_antisymmetric(random.Random(72), 4)).ctx  # over Q(i)
    yield rand_form(random.Random(1006), 3)                   # odd n
    yield split_form([[1, 1, 0, 0], [-1, -1, 0, Fraction(1, 3)],  # degenerate g
                      [0, 0, 1, 0], [0, Fraction(-1, 3), 0, 0]])


@pytest.mark.parametrize("ctx", list(_dimension_contexts()),
                         ids=["deformed22", "rand2", "rand4", "car2", "odd3", "degenerate4"])
def test_trace_dimensions_match_full_elimination(ctx):
    # the leaves of the decomposition and sums of two of them: the trace
    # dimensions equal the ranks of all 2^n products
    decomposition = primitive_decomposition(ctx.one())
    leaves = decomposition.primitives + decomposition.unresolved
    assert len(leaves) >= 2
    central_simple = ctx.dim % 2 == 0 and not ctx.is_degenerate
    blades = [ctx.blade(bits) for bits in ctx.basis_blades()]
    for f in leaves + [a + b for a, b in combinations(leaves, 2)]:
        assert is_idempotent(f)
        ideal_rank = linalg.rank([(b * f).coordinates() for b in blades])
        corner_rank = linalg.rank([(f * b * f).coordinates() for b in blades])
        assert reps._ideal_dimension(f) == ideal_rank == left_ideal(f).dimension
        assert peirce_corner(f).dimension == corner_rank
        if central_simple:
            assert reps._corner_dimension(f) == corner_rank
        else:
            assert reps._corner_dimension(f) is None


def test_known_rank_not_reached_is_an_internal_error(monkeypatch):
    f = cl22().parse("1/2 + 1/2*e1")
    ideal, corner = reps._ideal_dimension(f), reps._corner_dimension(f)
    monkeypatch.setattr(reps, "_ideal_dimension", lambda g: ideal + 1)
    with pytest.raises(ComputationError, match="internal"):
        left_ideal(f)
    monkeypatch.setattr(reps, "_corner_dimension", lambda g: corner + 1)
    with pytest.raises(ComputationError, match="internal"):
        peirce_corner(f)


def test_corner_split_search_unit_cl11():
    c = cl11()
    result = corner_split_search(c.one())
    assert result.outcome == "split"
    pair = {str(result.first), str(result.second)}
    assert pair == {"1/2 + 1/2*e1", "1/2 - 1/2*e1"}
    assert result.first * result.second == c.zero()
    # primitive input short-circuits without search
    prim = corner_split_search(c.parse("1/2 + 1/2*e1"))
    assert prim.outcome == "primitive" and prim.trials == []


def test_primitive_decomposition_cl22():
    c = cl22()
    decomposition = primitive_decomposition(c.one())
    assert decomposition.complete
    assert len(decomposition.primitives) == 4
    dims = sorted(left_ideal(p).dimension for p in decomposition.primitives)
    assert dims == [4, 4, 4, 4]
    total = c.zero()
    for p in decomposition.primitives:
        total = total + p
        assert peirce_corner(p).dimension == 1
    assert total == c.one()


def test_orthogonal_split_dimensions_add():
    c = cl22()
    result = corner_split_search(c.one())
    assert result.outcome == "split"
    f1, f2 = result.first, result.second
    assert (f1 * f2).is_zero() and (f2 * f1).is_zero()
    assert left_ideal(f1).dimension + left_ideal(f2).dimension == 16


def test_ideal_dimension_invariant_under_conjugation():
    rng = random.Random(40)
    c = cl22()
    f = c.parse("1/2 + 1/2*e1")
    base = left_ideal(f).dimension
    found = 0
    while found < 4:
        candidate = rand_multivector(rng, c, 4).even_part() + c.one()
        try:
            inv = inverse(candidate)
        except Exception:
            continue
        conj = candidate * f * inv
        assert is_idempotent(conj)
        assert left_ideal(conj).dimension == base
        found += 1


def test_split_certificates_are_exact():
    # every certified split satisfies its algebraic identities bit-exactly
    for ctx in (cl11(), cl22()):
        result = corner_split_search(ctx.one())
        assert result.outcome == "split"
        p = result.first
        assert p * p == p
        assert result.second * result.second == result.second
        assert p + result.second == ctx.one()


@pytest.mark.parametrize("square, part", [
    (Fraction(1, 10**18), "1/2 - 500000000*e1"),
    (Fraction(1, 7**20), "1/2 - 282475249/2*e1"),
])
def test_split_search_separates_tiny_eigenvalues(square, part):
    # e1 has the eigenvalues ±sqrt(square), too close for float clustering
    ctx = split_form([[square, 0], [0, -1]])
    result = corner_split_search(ctx.one())
    assert result.outcome == "split"
    assert str(result.first) == part
    p = result.first
    assert p * p == p and p + result.second == ctx.one()


def test_split_search_reaches_roots_below_the_float_range():
    # f has corner elements with minimal polynomial x² − ε, ε ≈ 10⁻⁴⁰⁰ a
    # rational square that underflows to 0.0 as a float
    t = Fraction(10) ** 200
    ctx = cl22()
    f = (ctx.one().scale(Fraction(1, 2)) + ctx.e(1).scale((t + 1 / (4 * t)) / 2)
         + ctx.e(2).scale((t - 1 / (4 * t)) / 2))
    assert is_idempotent(f)
    result = corner_split_search(f)
    assert result.outcome == "split"
    assert result.trials[0]["result"] == "split-found"
    # the roots ±√ε print as two distinct exact values, not as -0.0 and 0.0
    low, high = result.trials[0]["eigenvalues"]
    assert low == "-" + high and 0 < Fraction(high) < Fraction(1, 10**199)
    p = result.first
    assert p * p == p and f * p == p and p * f == p and p + result.second == f


def test_split_search_reaches_roots_above_the_float_range():
    # e1² = 10⁸⁰⁰: the eigenvalues ±10⁴⁰⁰ are reported as exact text
    root = 10 ** 400
    ctx = split_form([[root * root, 0], [0, -1]])
    result = corner_split_search(ctx.one())
    assert result.outcome == "split"
    assert result.trials[0]["eigenvalues"] == [str(-root), str(root)]
    p = result.first
    assert p * p == p and p + result.second == ctx.one()


def test_split_search_rational_root_of_gaussian_minimal_polynomial():
    # the third trial, e1^e2, has minimal polynomial x² + 2i·x − 1 − 2i =
    # (x − 1)(x + 1 + 2i): a non-real coefficient and the rational root 1
    i = gaussian(0, 1)
    ctx = split_form([[2, i], [-i, -i]], ring="Q(i)")
    result = corner_split_search(ctx.one())
    assert result.outcome == "split"
    assert [t["result"] for t in result.trials] == \
        ["no-rational-projection", "no-rational-projection", "split-found"]
    assert result.trials[-1]["eigenvalues"] == ["1"]
    p = result.first
    assert str(p) == "(3/4+1/4i) + (1/4-1/4i)*e1^e2"
    assert p * p == p and p + result.second == ctx.one()


# -- CAR / U(2) --------------------------------------------------------------


def test_car_relations():
    car = build_car(2)
    ctx = car.ctx
    for i in (1, 2):
        for j in (1, 2):
            a_i, a_j = car.annihilator(i), car.annihilator(j)
            c_i, c_j = car.creator(i), car.creator(j)
            assert a_i * a_j + a_j * a_i == ctx.zero()
            assert c_i * c_j + c_j * c_i == ctx.zero()
            expected = ctx.one() if i == j else ctx.zero()
            assert a_i * c_j + c_j * a_i == expected
    # wedge squares and Clifford squares both vanish
    from qclifford import wedge
    assert wedge(car.creator(1), car.creator(1)).is_zero()
    assert (car.creator(1) * car.creator(1)).is_zero()


def test_car_relations_robust_to_A():
    A = [[Fraction(0)] * 4 for _ in range(4)]
    A[0][1] = Fraction(1, 3)
    A[1][0] = Fraction(-1, 3)
    A[0][2] = Fraction(1, 2)
    A[2][0] = Fraction(-1, 2)
    car = build_car(2, A)
    ctx = car.ctx
    for i in (1, 2):
        for j in (1, 2):
            expected = ctx.one() if i == j else ctx.zero()
            assert car.annihilator(i) * car.creator(j) + \
                car.creator(j) * car.annihilator(i) == expected


def test_build_car_validation():
    with pytest.raises(InputError):
        bad = [[Fraction(0)] * 4 for _ in range(4)]
        bad[0][1] = Fraction(1)  # not antisymmetric
        build_car(2, bad)
    with pytest.raises(Exception):
        build_car(2, [[Fraction(0)] * 3 for _ in range(3)])


def test_fock_idempotent_and_ideal():
    car = build_car(2)
    f = car.fock_idempotent()
    assert is_idempotent(f)
    assert left_ideal(f).dimension == 4
    # annihilators kill the vacuum from the left modulo the ideal structure:
    # a_i·f is in the ideal and (a_i·f)·f = a_i·f
    for i in (1, 2):
        v = car.annihilator(i) * f
        assert v * f == v


def test_dagger_is_antimultiplicative_at_A0():
    rng = random.Random(41)
    car = build_car(2)
    for _ in range(8):
        u = rand_multivector(rng, car.ctx, 4)
        v = rand_multivector(rng, car.ctx, 4)
        assert car.dagger(u * v) == car.dagger(v) * car.dagger(u)
        assert car.dagger(car.dagger(u)) == u
    assert car.dagger(car.creator(1)) == car.annihilator(1)


def test_vacuum_functional():
    car = build_car(2)
    ctx = car.ctx
    assert vacuum_functional(ctx.one()) == 1
    for i in (1, 2):
        for j in (1, 2):
            value = vacuum_functional(car.creator(i) * car.annihilator(j))
            assert value == (Fraction(1, 2) if i == j else 0)
    # linearity
    rng = random.Random(42)
    u, v = rand_multivector(rng, ctx), rand_multivector(rng, ctx)
    assert vacuum_functional(u + v) == vacuum_functional(u) + vacuum_functional(v)


def test_vacuum_functional_depends_on_A():
    A = [[Fraction(0)] * 4 for _ in range(4)]
    A[0][1] = Fraction(1, 3)
    A[1][0] = Fraction(-1, 3)
    car0 = build_car(2)
    carA = build_car(2, A)
    u0 = car0.ctx.blade([1, 2])
    uA = carA.ctx.blade([1, 2])
    assert vacuum_functional(u0) == 0
    assert vacuum_functional(uA) == Fraction(-1, 3)


def test_u2_solution_at_A0():
    car = build_car(2)
    sol = solve_u2_generators(car)
    assert sol.status == "solved"
    assert all(sol.checks.values())
    assert sol.shift_dimension == 1
    # N equals Σ a_i†·a_i up to a scalar shift
    number = car.creator(1) * car.annihilator(1) + car.creator(2) * car.annihilator(2)
    diff = sol.N - number
    assert diff.grades() in ([], [0])
    # su(2) relations hold with the solved S_k
    i_unit = gaussian(0, 1)
    assert sol.S[0] * sol.S[1] - sol.S[1] * sol.S[0] == sol.S[2].scale(i_unit)
    # and [N, a_i] = −a_i directly
    for i in (1, 2):
        a = car.annihilator(i)
        assert sol.N * a - a * sol.N == -a
        c = car.creator(i)
        assert sol.N * c - c * sol.N == c


def test_u2_with_A_reports_rather_than_guesses():
    A = [[Fraction(0)] * 4 for _ in range(4)]
    A[0][1] = Fraction(1, 2)
    A[1][0] = Fraction(-1, 2)
    A[2][3] = Fraction(1, 3)
    A[3][2] = Fraction(-1, 3)
    sol = solve_u2_generators(build_car(2, A))
    assert sol.status in ("solved", "unsolvable", "verification-failed")
    if sol.status != "solved":
        assert not all(sol.checks.values())


def test_u2_requires_gaussian_ring():
    with pytest.raises(InputError):
        solve_u2_generators(build_car(2, ring="Q"))

