import random
from fractions import Fraction

import pytest

from qclifford import ComputationError, split_form, wedge
from qclifford.decomp import (TensorContext, build_periodicity_map, decompose,
                              deformation_commutator_witness, verify_split_map,
                              witt_split)

from conftest import rand_antisymmetric, rand_multivector, run_memory_limited


def diag_form(*entries):
    n = len(entries)
    return split_form([[Fraction(entries[i]) if i == j else Fraction(0)
                        for j in range(n)] for i in range(n)])


def block_form(a=0, n11=0, n12=0, n21=0, n22=0):
    return split_form([[1, a, n11, n12],
                       [0, -1, n21, n22],
                       [0, 0, 1, a],
                       [0, 0, 0, -1]])


def test_witt_split_examples():
    s = witt_split(diag_form(1, 1, -1, -1))
    assert s.m_indices == (2, 4) and s.n_indices == (1, 3)
    s2 = witt_split(diag_form(1, -1))
    assert s2.m_indices == (1, 2) and s2.n_indices == ()
    with pytest.raises(ComputationError):
        witt_split(diag_form(1, 1))


def test_periodicity_maps_all_small_signatures():
    for p in range(1, 6):
        for q in range(1, 6):
            if p + q > 6:
                continue
            report = build_periodicity_map(p, q)
            assert report.passed, (p, q)
            assert len(report.split.n_indices) == p + q - 2


def test_periodicity_map_n_factor_signature():
    report = build_periodicity_map(3, 1)
    # the complement keeps the remaining (2,0) directions
    assert report.split.n_indices == (1, 2)
    assert report.map_report.left_relations.passed
    assert report.map_report.right_relations.passed


def test_periodicity_map_refuses_oversized_signature_before_allocating():
    # a (p+q) x (p+q) form of 10^12 cells would not fit in the child
    code = ("from qclifford import DimensionLimitError\n"
            "from qclifford.decomp import build_periodicity_map\n"
            "try:\n"
            "    build_periodicity_map(10**6, 1)\n"
            "except DimensionLimitError as exc:\n"
            "    print(exc)\n")
    result = run_memory_limited("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "dimension 1000001 exceeds the limit 12"


def test_periodicity_degenerate_case_11():
    report = build_periodicity_map(1, 1)
    assert report.passed
    assert report.split.n_indices == ()


def test_decompose_block_form_undeformed():
    verdict = decompose(block_form())
    assert verdict.decomposable
    assert verdict.connecting.is_zero()
    assert verdict.map_report is not None and verdict.map_report.passed


@pytest.mark.parametrize("kwargs", [
    {"n11": 1}, {"n12": 1}, {"n21": Fraction(2, 3)}, {"n22": Fraction(-1, 2)},
    {"n11": 1, "n22": Fraction(1, 5)}, {"a": Fraction(1, 3), "n12": 1},
])
def test_decompose_block_form_deformed(kwargs):
    verdict = decompose(block_form(**kwargs))
    assert not verdict.decomposable
    assert not verdict.connecting.is_zero()
    # the connecting bivector is supported on cross pairs only
    m = set(verdict.split.m_indices)
    from qclifford.exterior import blade_indices
    for bits in verdict.connecting.terms:
        i, j = blade_indices(bits)
        assert (i in m) != (j in m)
    devs = [w for w in verdict.witnesses if not w.commutator_deviation.is_zero()]
    assert devs
    assert all(w.anticommutator_residual.is_zero() for w in verdict.witnesses)


def test_deformation_inside_one_factor_stays_decomposable():
    ctx = diag_form(1, 1, -1, -1)
    B = [list(row) for row in ctx.B]
    # N = (1, 3) for this diagonal; put A inside the complement factor
    B[0][2] += Fraction(1, 2)
    B[2][0] -= Fraction(1, 2)
    verdict = decompose(split_form(B))
    assert verdict.decomposable
    assert verdict.map_report.passed


def test_commutator_witness_values():
    ctx = block_form(n11=1)
    split = witt_split(ctx)
    witnesses = {w.pair: w for w in deformation_commutator_witness(ctx, split)}
    # residual at the (1,3) pair equals 2·A_13 = n11
    assert witnesses[(1, 3)].commutator_deviation == ctx.scalar(1)
    assert witnesses[(1, 4)].commutator_deviation.is_zero()
    assert all(w.anticommutator_residual.is_zero() for w in witnesses.values())


def test_three_deformation_criteria_agree_random():
    rng = random.Random(31)
    done = 0
    while done < 40:
        A = rand_antisymmetric(rng, 4)
        B = [[Fraction(0)] * 4 for _ in range(4)]
        for i, v in enumerate((1, 1, -1, -1)):
            B[i][i] = Fraction(v)
        for i in range(4):
            for j in range(4):
                B[i][j] += A[i][j]
        ctx = split_form(B)
        if ctx.is_degenerate:
            continue
        verdict = decompose(ctx)
        split = verdict.split
        has_cross_A = any(
            ctx.A[i - 1][m - 1] != 0
            for i in split.n_indices for m in split.m_indices
        )
        has_comm_dev = any(
            not w.commutator_deviation.is_zero() for w in verdict.witnesses
        )
        assert (not verdict.decomposable) == has_cross_A == has_comm_dev
        done += 1


def test_connecting_bivector_reconstructs_cross_A():
    rng = random.Random(32)
    done = 0
    from qclifford import contract_left
    while done < 10:
        A = rand_antisymmetric(rng, 4)
        B = [[Fraction(0)] * 4 for _ in range(4)]
        for i, v in enumerate((1, 1, -1, -1)):
            B[i][i] = Fraction(v)
        for i in range(4):
            for j in range(4):
                B[i][j] += A[i][j]
        ctx = split_form(B)
        if ctx.is_degenerate:
            continue
        verdict = decompose(ctx)
        # F_c is a genuine grade-2 element and the full F recovers every A entry
        assert verdict.connecting.is_zero() or verdict.connecting.is_homogeneous(2)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                blade = wedge(ctx.e(i), ctx.e(j))
                assert contract_left(verdict.bivector, blade, "g") == \
                    ctx.scalar(ctx.A[i - 1][j - 1])
        done += 1


def test_tensor_context_embeddings():
    ctx = diag_form(1, 1, -1, -1)
    tensor = TensorContext(ctx, witt_split(ctx))
    assert (1 << len(tensor.split.n_indices)) * (1 << len(tensor.split.m_indices)) \
        == 1 << ctx.dim
    rng = random.Random(33)
    for _ in range(6):
        u, u2 = rand_multivector(rng, tensor.left, 3), rand_multivector(rng, tensor.left, 3)
        v, v2 = rand_multivector(rng, tensor.right, 3), rand_multivector(rng, tensor.right, 3)
        eu, ev = tensor.embed_left(u), tensor.embed_right(v)
        assert eu * ev == ev * eu
        assert tensor.embed_left(u * u2) == tensor.embed_left(u) * tensor.embed_left(u2)
        assert tensor.embed_right(v * v2) == tensor.embed_right(v) * tensor.embed_right(v2)


def test_embedded_images_span_the_algebra():
    ctx = diag_form(1, -1, 1, -1)
    tensor = TensorContext(ctx, witt_split(ctx))
    from qclifford import linalg
    rows = []
    for lb in tensor.left.basis_blades():
        for rb in tensor.right.basis_blades():
            prod = tensor.embed_left(tensor.left.blade(lb)) * \
                tensor.embed_right(tensor.right.blade(rb))
            rows.append(prod.coordinates())
    assert linalg.rank(rows) == 1 << ctx.dim
