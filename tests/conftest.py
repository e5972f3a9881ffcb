"""Shared helpers: seeded random generators, independent brute-force
oracles (list-based, no bit tricks) used to cross-check the kernel, and
child interpreters that import this checkout."""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

from qclifford import Multivector, split_form

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
CHILD_ADDRESS_SPACE = 512 * 1024 * 1024


def child_env():
    """Environment for a child interpreter that imports this checkout."""
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_memory_limited(*args):
    """Run `python args...` with its address space capped, so that input
    which slips past a size check fails fast with a MemoryError instead of
    taking the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS,
                           (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), preexec_fn=cap, timeout=120)


def rand_fraction(rng, span=5, max_den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_form(rng, n, symmetric=False, ring="Q"):
    B = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                B[j][i] = B[i][j]
    return split_form(B, ring=ring)


def rand_antisymmetric(rng, n, span=2, max_den=3):
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_fraction(rng, span, max_den)
            A[i][j] = v
            A[j][i] = -v
    return A


def rand_multivector(rng, ctx, terms=4):
    d = {}
    for _ in range(terms):
        d[rng.randrange(1 << ctx.dim)] = rand_fraction(rng)
    return Multivector.from_terms(ctx, d)


def rand_vector(rng, ctx):
    return ctx.vector([rand_fraction(rng) for _ in range(ctx.dim)])


def rand_bivector(rng, ctx, density=0.6):
    d = {}
    for i in range(ctx.dim):
        for j in range(i + 1, ctx.dim):
            if rng.random() < density:
                d[(1 << i) | (1 << j)] = rand_fraction(rng)
    return Multivector.from_terms(ctx, d)


# -- independent oracles ----------------------------------------------------
#
# These re-implement wedge, vector contraction and the Clifford product on
# index lists with naive sign counting. They share no code with the package
# internals.


def oracle_wedge_blades(left, right):
    """Wedge two ascending index tuples: (sign, merged) or (0, None)."""
    if set(left) & set(right):
        return 0, None
    seq = list(left) + list(right)
    sign = 1
    # bubble sort, counting swaps
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def oracle_vector_contract_blade(matrix, i, blade):
    """e_i ⌋ e_blade by the graded Leibniz rule; list of (coeff, blade)."""
    out = []
    for t, j in enumerate(blade):
        coeff = matrix[i - 1][j - 1] * (-1) ** t
        if coeff != 0:
            out.append((coeff, blade[:t] + blade[t + 1:]))
    return out


def terms_from_blades(ctx, pairs):
    """Build a Multivector from (coeff, ascending-index-tuple) pairs."""
    d = {}
    for coeff, blade in pairs:
        bits = 0
        for i in blade:
            bits |= 1 << (i - 1)
        d[bits] = d.get(bits, Fraction(0)) + coeff
    return Multivector.from_terms(ctx, d)


def oracle_det(rows):
    """Determinant of a square list of lists by Laplace expansion."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for c, entry in enumerate(rows[0]):
        if entry != 0:
            minor = oracle_det([row[:c] + row[c + 1:] for row in rows[1:]])
            total = total + entry * minor if c % 2 == 0 else total - entry * minor
    return total


def oracle_blade_product(B, I, J):
    """Rota–Stein cliffordization of two ascending index tuples,

        e_I·e_J = Σ_{K⊆I, L⊆J, |K|=|L|} ε·det B[rev(K), L]·e_{I∖K}∧e_{J∖L},

    where ε splits e_I = ±e_{I∖K}∧e_K and e_J = ±e_L∧e_{J∖L} (the ``cmulRS``
    route of Ablamowicz & Fauser's BIGEBRA). Returns (coeff, blade) pairs."""
    out = []
    for k in range(min(len(I), len(J)) + 1):
        for K in combinations(I, k):
            rest_i = tuple(x for x in I if x not in K)
            split_i, _ = oracle_wedge_blades(rest_i, K)
            for L in combinations(J, k):
                rest_j = tuple(x for x in J if x not in L)
                split_j, _ = oracle_wedge_blades(L, rest_j)
                merge, blade = oracle_wedge_blades(rest_i, rest_j)
                if merge == 0:
                    continue
                det = oracle_det([[B[r - 1][c - 1] for c in L] for r in reversed(K)])
                if det != 0:
                    sign = split_i * split_j * merge
                    out.append((det if sign > 0 else -det, blade))
    return out
