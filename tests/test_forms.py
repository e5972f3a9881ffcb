import random
import sys
import threading
from fractions import Fraction

import pytest

from qclifford import (ComputationError, DegenerateFormError, Multivector,
                       ShapeError, bivector_from_antisym, contract_left, gaussian,
                       quadratic, signature, split_form, wedge)
from qclifford import linalg

from conftest import rand_fraction, rand_form, rand_multivector, rand_vector


def test_split_form_upper_triangular_example():
    # oracle: (B ± B^T)/2 recomputed here
    B = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(-1)]]
    ctx = split_form(B)
    n = 2
    g_oracle = [[(B[i][j] + B[j][i]) / 2 for j in range(n)] for i in range(n)]
    A_oracle = [[(B[i][j] - B[j][i]) / 2 for j in range(n)] for i in range(n)]
    assert [list(r) for r in ctx.g] == g_oracle
    assert [list(r) for r in ctx.A] == A_oracle
    assert ctx.g == ((1, Fraction(1, 2)), (Fraction(1, 2), -1))
    assert ctx.A == ((0, Fraction(1, 2)), (Fraction(-1, 2), 0))


def test_split_form_symmetric_and_antisymmetric_inputs():
    sym = split_form([[2, 5], [5, -3]])
    assert all(x == 0 for row in sym.A for x in row)
    anti = split_form([[0, 1], [-1, 0]])
    assert all(x == 0 for row in anti.g for x in row)
    assert anti.A == anti.B


def test_split_reconstruction_exact():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 5)
        ctx = rand_form(rng, n)
        for i in range(n):
            for j in range(n):
                assert ctx.g[i][j] + ctx.A[i][j] == ctx.B[i][j]
                assert ctx.g[i][j] == ctx.g[j][i]
                assert ctx.A[i][j] == -ctx.A[j][i]


def test_split_form_shape_errors():
    with pytest.raises(ShapeError):
        split_form([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeError):
        split_form([])
    with pytest.raises(Exception):
        split_form([[1] * 13 for _ in range(13)])


def test_quadratic_examples():
    ctx = split_form([[1, 0], [0, -1]])
    assert quadratic(ctx, [1, 1]) == 0  # isotropic
    ctx2 = split_form([[1, 1], [0, -1]])
    assert quadratic(ctx2, [0, 1]) == -1
    with pytest.raises(ShapeError):
        quadratic(ctx, [1, 2, 3])


def test_quadratic_homogeneity_and_A_independence():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 5)
        ctx = rand_form(rng, n)
        x = [rand_fraction(rng) for _ in range(n)]
        assert quadratic(ctx, [2 * c for c in x]) == 4 * quadratic(ctx, x)
        # value computed from g alone coincides with the B-based definition
        sym = ctx.symmetric_context()
        assert quadratic(sym, x) == quadratic(ctx, x)


def test_signature_examples():
    assert signature(split_form([[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, -1, 0], [0, 0, 0, -1]])) \
        .__dict__ == {"p": 2, "q": 2, "r": 0}
    hyper = split_form([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    sig = signature(hyper)
    assert (sig.p, sig.q, sig.r) == (1, 1, 0)
    # oracle: witness vectors diagonalizing the plane by hand
    assert quadratic(hyper, [1, 1]) == 1
    assert quadratic(hyper, [1, -1]) == -1
    zero = split_form([[0, 0], [0, 0]])
    assert signature(zero).r == 2


def test_signature_congruence_invariance():
    rng = random.Random(3)
    done = 0
    while done < 15:
        n = rng.randint(1, 4)
        ctx = rand_form(rng, n, symmetric=True)
        S = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if not linalg.is_invertible(S):
            continue
        g2 = [[sum(S[k][i] * ctx.g[k][l] * S[l][j] for k in range(n) for l in range(n))
               for j in range(n)] for i in range(n)]
        assert signature(split_form(g2)) == signature(ctx)
        done += 1


def test_bivector_from_antisym_examples():
    alpha = Fraction(2, 7)
    ctx = split_form([[1, alpha], [-alpha, 1]])
    F = bivector_from_antisym(ctx)
    # oracle: brute-force both sign candidates against F⌋g(e1∧e2) = A_12
    b12 = wedge(ctx.e(1), ctx.e(2))
    for candidate, ok in ((b12.scale(-alpha), True), (b12.scale(alpha), False)):
        matches = contract_left(candidate, b12, form="g") == ctx.scalar(alpha)
        assert matches is ok
    assert F == b12.scale(-alpha)

    sym = split_form([[1, 0], [0, -1]])
    assert bivector_from_antisym(sym).is_zero()

    g = [[Fraction(0)] * 4 for _ in range(4)]
    for i, v in enumerate((1, -1, 1, -1)):
        g[i][i] = Fraction(v)
    B = [row[:] for row in g]
    B[0][2] += 1
    B[2][0] -= 1
    ctx4 = split_form(B)
    F4 = bivector_from_antisym(ctx4)
    b13 = wedge(ctx4.e(1), ctx4.e(3))
    assert F4 == b13.scale(-1)  # g_11 = g_33 = 1, so F_13 = -A_13
    assert contract_left(F4, b13, form="g") == ctx4.scalar(1)


def test_bivector_round_trip_random():
    rng = random.Random(4)
    done = 0
    while done < 15:
        n = rng.randint(2, 5)
        ctx = rand_form(rng, n)
        if ctx.is_degenerate:
            continue
        F = bivector_from_antisym(ctx)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                blade = wedge(ctx.e(i), ctx.e(j))
                assert contract_left(F, blade, form="g") == ctx.scalar(ctx.A[i - 1][j - 1])
        done += 1


def test_bivector_requires_nondegenerate():
    ctx = split_form([[0, 1], [-1, 0]])  # g = 0
    with pytest.raises(DegenerateFormError):
        bivector_from_antisym(ctx)


def test_gaussian_ring_signature_rejected_when_complex():
    from qclifford.scalars import gaussian
    ctx = split_form([[gaussian(0, 1), 0], [0, 1]], ring="Q(i)")
    with pytest.raises(ComputationError):
        signature(ctx)


@pytest.mark.parametrize("ring", ["Q", "Q(i)"])
def test_shared_context_fills_caches_consistently_across_threads(ring):
    # The docstring's claim: a context shared between threads fills its
    # caches lazily, and concurrent fills leave every result correct.
    rng = random.Random(41)
    if ring == "Q":
        B = [[rand_fraction(rng) for _ in range(5)] for _ in range(5)]
    else:
        B = [[gaussian(rand_fraction(rng), rand_fraction(rng)) for _ in range(5)]
             for _ in range(5)]
    serial_ctx = split_form(B, ring=ring)
    pairs = [(rand_multivector(rng, serial_ctx, terms=6),
              rand_multivector(rng, serial_ctx, terms=6)) for _ in range(8)]
    expected = [(u * v).terms for u, v in pairs]
    shared = split_form(B, ring=ring)
    results = [None] * 4

    def work(k):
        # every thread walks the same products, so they race on the same entries
        results[k] = [(Multivector(shared, u.terms) * Multivector(shared, v.terms)).terms
                      for u, v in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4
