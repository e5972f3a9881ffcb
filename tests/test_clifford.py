import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclifford import (ComputationError, GaussianRational, Multivector, ShapeError,
                       clifford_apply_generator, clifford_product, contract_left,
                       gaussian, inverse, monomial_table, quadratic,
                       regular_representation, split_form,
                       verify_generator_relations, wedge)
from qclifford import clifford, linalg
from qclifford.exterior import blade_grade, blade_indices

from conftest import (oracle_blade_product, rand_form, rand_fraction,
                      rand_multivector, rand_vector, terms_from_blades)


def example_form(a=1):
    return split_form([[1, a], [0, -1]])


def test_generator_on_unit():
    c = example_form()
    assert clifford_apply_generator(1, c.one()) == c.e(1)


def test_generator_example_scalar_plus_bivector():
    c = example_form(a=1)
    out = clifford_apply_generator(1, c.e(2))
    assert out == c.one() + c.blade([1, 2])  # B_12 + e1∧e2


def test_generator_square_law():
    rng = random.Random(13)
    c = example_form(a=1)
    for _ in range(10):
        u = rand_multivector(rng, c)
        assert clifford_apply_generator(1, clifford_apply_generator(1, u)) == u
    with pytest.raises(ShapeError):
        clifford_apply_generator(3, c.one())


def test_product_scalar_bivector_decompositions():
    for a in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        c = example_form(a)
        e1, e2 = c.e(1), c.e(2)
        assert e1 * e2 == c.scalar(a) + wedge(e1, e2)
        assert e2 * e1 == -wedge(e1, e2)
        assert e1 * e2 + e2 * e1 == c.scalar(a)           # = 2g_12·1
        assert e1 * e1 == c.one()                         # B_11
        assert e2 * e2 == -c.one()


def test_idempotent_instance_cl11():
    c = example_form(a=0)
    f = c.parse("1/2 + 2/5*e1 + 3/10*e1^e2")
    # second route: idempotency of the left-multiplication matrix
    R = regular_representation(f)
    size = 4
    RR = [[sum(R[i][k] * R[k][j] for k in range(size)) for j in range(size)]
          for i in range(size)]
    assert RR == R
    assert f * f == f


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_square_law_random_forms(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = rng.randint(1, 6)
    ctx = rand_form(rng, n)
    x = rand_vector(rng, ctx)
    coords = [x.coefficient(1 << i) for i in range(n)]
    assert x * x == ctx.scalar(quadratic(ctx, coords))


def test_associativity_random():
    rng = random.Random(14)
    for _ in range(15):
        ctx = rand_form(rng, rng.randint(2, 5))
        u, v, w = (rand_multivector(rng, ctx) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_unit_and_z2_grading():
    rng = random.Random(15)
    for _ in range(10):
        ctx = rand_form(rng, rng.randint(2, 5))
        u = rand_multivector(rng, ctx)
        assert ctx.one() * u == u
        assert u * ctx.one() == u
        even = rand_multivector(rng, ctx, 6).even_part()
        odd = rand_multivector(rng, ctx, 6).odd_part()
        assert (even * even).odd_part().is_zero()
        assert (odd * odd).odd_part().is_zero()
        assert (even * odd).even_part().is_zero()


def test_product_decomposition_into_contractions_and_wedge():
    rng = random.Random(16)
    for _ in range(15):
        ctx = rand_form(rng, rng.randint(2, 5))
        x = rand_vector(rng, ctx)
        u = rand_multivector(rng, ctx)
        assert x * u == (contract_left(x, u, "g") + contract_left(x, u, "A")
                         + wedge(x, u))


@pytest.mark.parametrize("ring", ["Q", "Q(i)"])
def test_product_matches_rota_stein_closed_form(ring, monkeypatch):
    def no_table(ctx):
        raise AssertionError("a product built the monomial table")

    monkeypatch.setattr(clifford, "MonomialTable", no_table)
    rng = random.Random(31)
    for n in (1, 2, 3, 4, 4):
        if ring == "Q":
            B = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        else:
            B = [[gaussian(rand_fraction(rng), rand_fraction(rng)) for _ in range(n)]
                 for _ in range(n)]
        ctx = split_form(B, ring=ring)
        blades = [I for k in range(n + 1) for I in combinations(range(1, n + 1), k)]
        for I in blades:
            for J in blades:
                expected = terms_from_blades(ctx, oracle_blade_product(ctx.B, I, J))
                assert clifford_product(ctx.blade(I), ctx.blade(J)) == expected


def test_monomial_table_unitriangular():
    rng = random.Random(17)
    for _ in range(10):
        ctx = rand_form(rng, rng.randint(1, 5))
        table = monomial_table(ctx)
        for bits, mv in table.to_wedge.items():
            assert mv.coefficient(bits) == 1
            for b in mv.terms:
                assert b == bits or blade_grade(b) < blade_grade(bits)
        # exact inverses
        for bits in ctx.basis_blades():
            coords = table.to_monomial_coords(ctx.blade(bits))
            assert table.from_monomial_coords(coords) == ctx.blade(bits)


def test_verify_generator_relations_pass_and_fail():
    c = split_form([[1, 0], [0, -1]])
    ok = verify_generator_relations([c.e(1), c.e(2)], c.g)
    assert ok.passed and ok.first_violation is None
    bad = verify_generator_relations([c.e(1), c.e(1)],
                                     [[1, 0], [0, -1]])
    assert not bad.passed
    assert bad.first_violation == (1, 2)


def test_gamma5_regrading_relations():
    eta = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    c = split_form(eta)
    omega = c.e(1) * c.e(2) * c.e(3) * c.e(4)
    assert omega * omega == -c.one()
    alphas = [c.e(i) * omega for i in range(1, 5)]
    report = verify_generator_relations(alphas, eta)
    assert report.passed
    # the grade-3 "vectors": each alpha_i is a 3-blade
    for alpha in alphas:
        assert alpha.is_homogeneous(3)
    assert alphas[0] * alphas[0] == c.one()


def test_regular_representation_is_a_representation():
    rng = random.Random(18)
    for _ in range(8):
        ctx = rand_form(rng, rng.randint(1, 4))
        u, v = rand_multivector(rng, ctx), rand_multivector(rng, ctx)
        Ru, Rv = regular_representation(u), regular_representation(v)
        Ruv = regular_representation(u * v)
        size = 1 << ctx.dim
        prod = [[sum(Ru[i][k] * Rv[k][j] for k in range(size))
                 for j in range(size)] for i in range(size)]
        assert prod == Ruv
    c = split_form([[1, 1], [0, -1]])
    assert regular_representation(c.one()) == [
        [1 if i == j else 0 for j in range(4)] for i in range(4)
    ]
    Re1 = regular_representation(c.e(1))
    sq = [[sum(Re1[i][k] * Re1[k][j] for k in range(4)) for j in range(4)]
          for i in range(4)]
    assert sq == regular_representation(c.one())  # B_11 = 1


def test_regular_representation_rank_of_idempotent():
    c = split_form([[1, 0], [0, -1]])
    f = c.parse("1/2 + 2/5*e1 + 3/10*e1^e2")
    assert linalg.rank(regular_representation(f)) == 2


def test_inverse():
    c = split_form([[1, 1], [0, -1]])
    u = c.one() + c.blade([1, 2]).scale(Fraction(1, 3))
    v = inverse(u)
    assert u * v == c.one() and v * u == c.one()
    f = c.parse("1/2 + 1/2*e1")
    with pytest.raises(ComputationError):
        inverse(f)  # proper idempotents are zero divisors


# -- the integer kernel's scaling, against the Rota–Stein closed form ---------


def oracle_product(ctx, u, v):
    pairs = []
    for bu, cu in u.terms.items():
        for bv, cv in v.terms.items():
            pairs += [(cu * cv * c, blade) for c, blade in
                      oracle_blade_product(ctx.B, tuple(blade_indices(bu)),
                                           tuple(blade_indices(bv)))]
    return terms_from_blades(ctx, pairs)


def assert_exact_scalars(mv):
    # never a bare int or a kernel integer, never a Gaussian with im = 0
    for c in mv.terms.values():
        assert type(c) is Fraction or (type(c) is GaussianRational and c.im != 0), c


def gaussian_multivector(rng, ctx, terms=4):
    return Multivector.from_terms(ctx, {
        rng.randrange(1 << ctx.dim): gaussian(rand_fraction(rng), rand_fraction(rng))
        for _ in range(terms)})


def check_products(ctx, operands):
    for u, v in operands:
        got = clifford_product(u, v)
        assert got == oracle_product(ctx, u, v)
        assert_exact_scalars(got)


def test_kernel_with_coprime_denominators():
    rng = random.Random(51)
    dens = (7, 11, 13)
    n = 4
    B = [[Fraction(rng.randint(-20, 20), dens[(i + j) % 3]) for j in range(n)]
         for i in range(n)]
    ctx = split_form(B)
    check_products(ctx, [(rand_multivector(rng, ctx, 6), rand_multivector(rng, ctx, 6))
                         for _ in range(10)])


@pytest.mark.parametrize("span", [0, 3])
def test_kernel_with_integral_and_zero_form(span):
    rng = random.Random(52)
    n = 4
    ctx = split_form([[rng.randint(-span, span) for _ in range(n)] for _ in range(n)])
    check_products(ctx, [(rand_multivector(rng, ctx, 6), rand_multivector(rng, ctx, 6))
                         for _ in range(10)])
    if span == 0:
        e1, e2 = ctx.e(1), ctx.e(2)
        assert (e1 * e2).terms == {3: 1} and (e1 * e1).terms == {}


def test_kernel_with_denominator_only_in_an_imaginary_part():
    rng = random.Random(53)
    n = 3
    B = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    B[0][2] = gaussian(2, Fraction(1, 3))
    B[2][1] = gaussian(0, -5)
    ctx = split_form(B, ring="Q(i)")
    check_products(ctx, [(rand_multivector(rng, ctx, 5), gaussian_multivector(rng, ctx, 5))
                         for _ in range(10)])
    check_products(ctx, [(ctx.blade(I), ctx.blade(J)) for I in range(1 << n)
                         for J in range(1 << n)])


def test_kernel_real_form_gaussian_operands():
    # the car2 path: ring Q(i), real B, Gaussian coefficients in the operands
    rng = random.Random(54)
    ctx = rand_form(rng, 4, ring="Q(i)")
    check_products(ctx, [(gaussian_multivector(rng, ctx, 5), gaussian_multivector(rng, ctx, 5))
                         for _ in range(10)])
    i = ctx.scalar(gaussian(0, 1))
    assert (i * i).terms == {0: Fraction(-1)}
    assert_exact_scalars(i * i)


def test_kernel_idempotent_times_complement_stores_no_term():
    c = split_form([[Fraction(1, 9), Fraction(2, 7)], [Fraction(-3, 5), Fraction(1, 4)]])
    g = split_form([[1, 0], [0, -1]])
    # (3·e1)² = 9·B_11 = 1 in c, so (1 + 3·e1)/2 is idempotent
    for ctx, f in ((c, c.parse("1/2 + 3/2*e1")),
                   (g, g.parse("1/2 + 2/5*e1 + 3/10*e1^e2"))):
        assert f * f == f
        assert (f * (ctx.one() - f)).terms == {}
        assert ((ctx.one() - f) * f).terms == {}


def test_kernel_sparse_product_at_n12():
    rng = random.Random(55)
    n = 12
    ctx = rand_form(rng, n)

    def sparse():
        return Multivector.from_terms(ctx, {
            sum(1 << i for i in rng.sample(range(n), rng.randint(0, 4))): rand_fraction(rng)
            for _ in range(4)})

    check_products(ctx, [(sparse(), sparse()) for _ in range(4)])
