"""Seeded workload inputs for the qclifford benchmark.

Everything here is plain data (strings, ints, lists) drawn from
``random.Random(seed)``. The module imports nothing from ``qclifford``, so the
op list of a seed is the same whatever version of the program later runs it.

Each workload is one seeded cycle of ops, which a run repeats round after
round, so that every op is timed several times. ``reference`` is the fixed
input of the reference computation that each run times beside its ops.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("products_fresh", "probes_session", "cli_batch")

# (dimension, blade grades of each operand). n=4 operands are dense; the
# sparse ones take a fixed grade profile close to the binomial one, with the
# blades of each grade drawn at random, because the cost of a blade pair
# grows steeply with its grades and a free draw makes one run's cost swing
# with its seed.
PRODUCT_SIZES = (
    (4, tuple(bin(b).count("1") for b in range(16))),
    (6, (1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5)),
    (8, (2, 3, 4, 4, 5, 6)),
)
# One op in four is over Q(i); 24 = 2 * lcm(3, 4), so the cycle holds each
# size eight times, two of them over Q(i).
PRODUCT_CYCLE = 24

CL33_PRIMITIVES = 8     # Cl(3,3) = M_8(Q): eight primitive idempotents
DEF22_PRIMITIVES = 4    # any Cl(B) with g of signature (2,2) is M_4(Q)

# One invocation per subcommand, with the arguments the tier-1 CLI tests use.
CLI_COMMANDS = (
    ("mul", "specs/cl11_a1.json", "e1", "e2"),
    ("table", "specs/cl11_a1.json"),
    ("grade", "specs/cl11_a1.json", "e1^e2", "0"),
    ("wick-check", "specs/cl11_a1.json"),
    ("grading-diff", "specs/cl11_a0.json", "specs/cl11_a1.json"),
    ("witt", "specs/cl22_block.json"),
    ("periodicity", "specs/cl22_block.json"),
    ("ideal", "specs/cl11_a0.json", "f"),
    ("corner", "specs/cl11_a0.json", "f_minus"),
    ("split", "specs/cl11_a0.json", "1"),
    ("u2", "specs/car2.json"),
    ("sweep", "specs/cl22_block.json", "--entry", "1,3", "--values", "0,1",
     "--run", "periodicity"),
)


def rand_fraction(rng, span=5, max_den=4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_nonzero(rng, span=5, max_den=4) -> Fraction:
    return Fraction(rng.choice([p for p in range(-span, span + 1) if p]),
                    rng.randint(1, max_den))


def rand_antisymmetric(rng, n, span=2, max_den=3):
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_fraction(rng, span, max_den)
            A[i][j] = v
            A[j][i] = -v
    return A


def _matrix_text(M):
    return [[str(x) for x in row] for row in M]


def _operand(rng, n, grades):
    blades = []
    for k in sorted(set(grades)):
        of_grade = [b for b in range(1 << n) if bin(b).count("1") == k]
        blades += rng.sample(of_grade, grades.count(k))
    return [[b, str(rand_nonzero(rng))] for b in sorted(blades)]


def products_fresh(seed: int):
    """Each op: a fresh random B (entries p/q, |p| <= 5, q <= 4) and two
    operands with nonzero coefficients. In Q(i) ops one entry of B also gets
    a nonzero imaginary part, stored as ``gaussian = [i, j, im]``."""
    rng = random.Random(seed)
    ops = []
    for k in range(PRODUCT_CYCLE):
        n, grades = PRODUCT_SIZES[k % len(PRODUCT_SIZES)]
        op = {"kind": "product", "n": n,
              "B": _matrix_text([[rand_fraction(rng) for _ in range(n)] for _ in range(n)]),
              "u": _operand(rng, n, grades), "v": _operand(rng, n, grades)}
        if k % 4 == 3:
            op["gaussian"] = [rng.randrange(n), rng.randrange(n), str(rand_nonzero(rng))]
        ops.append(op)
    return {"cycle": ops}


def _small_element(rng, n, terms):
    return [[b, str(rand_nonzero(rng, 3, 3))] for b in sorted(rng.sample(range(1 << n), terms))]


def probes_session(seed: int):
    """One deformed Cl(2,2) (g = diag(1,-1,1,-1), seeded A) for the whole
    session, then a cycle of seventeen probes. Primitive indices refer to the
    session's primitive decompositions, whose sizes are known in advance.
    The Cl(3,3) decomposition is by far the slowest op, so the tail of a run
    of twelve rounds or more lies among its repeats."""
    rng = random.Random(seed)
    A = rand_antisymmetric(rng, 4)
    g = (1, -1, 1, -1)
    B = [[A[i][j] + (g[i] if i == j else 0) for j in range(4)] for i in range(4)]
    a, b = rng.sample(range(CL33_PRIMITIVES), 2)
    while True:  # a + x is invertible exactly when a^2 != Q(x)
        scalar = rand_nonzero(rng, 3, 2)
        vector = [rand_nonzero(rng, 3, 2) for _ in range(4)]
        if scalar * scalar != sum(gi * x * x for gi, x in zip(g, vector)):
            break
    cycle = [
        {"kind": "decompose_unit", "ctx": "cl33"},
        {"kind": "decompose_unit", "ctx": "def22"},
        {"kind": "left_ideal", "ctx": "cl33", "primitive": rng.randrange(CL33_PRIMITIVES)},
        {"kind": "peirce_corner", "ctx": "cl33", "primitive": rng.randrange(CL33_PRIMITIVES)},
        {"kind": "left_ideal", "ctx": "cl33", "primitive": rng.randrange(CL33_PRIMITIVES)},
        {"kind": "peirce_corner", "ctx": "cl33", "primitive": rng.randrange(CL33_PRIMITIVES)},
        {"kind": "left_ideal", "ctx": "def22", "primitive": rng.randrange(DEF22_PRIMITIVES)},
        {"kind": "peirce_corner", "ctx": "def22", "primitive": rng.randrange(DEF22_PRIMITIVES)},
        {"kind": "split_pair", "ctx": "cl33", "primitives": [a, b]},
        {"kind": "periodicity", "ctx": "cl22_block"},
        {"kind": "periodicity", "ctx": "cl22_deformed"},
        {"kind": "wick", "ctx": "def22", "u": _small_element(rng, 4, 6)},
        {"kind": "wick", "ctx": "cl22_deformed", "u": _small_element(rng, 4, 6)},
        {"kind": "u2", "ctx": "car2"},
        {"kind": "u2", "ctx": "car2"},
        {"kind": "u2", "ctx": "car2"},
        {"kind": "inverse", "ctx": "def22", "scalar": str(scalar),
         "vector": [str(x) for x in vector]},
    ]
    return {"def22_B": _matrix_text(B), "cycle": cycle}


def cli_batch(seed: int):
    """The twelve CLI invocations in a seeded order."""
    rng = random.Random(seed)
    order = list(range(len(CLI_COMMANDS)))
    rng.shuffle(order)
    return {"cycle": [list(CLI_COMMANDS[i]) for i in order]}


def reference():
    """Fixed input of the reference computation, the same for every seed and
    workload: a dense n=4 form over Q and two ten-term operands."""
    rng = random.Random(0)
    n = 4
    return {"B": _matrix_text([[rand_fraction(rng) for _ in range(n)] for _ in range(n)]),
            "u": _small_element(rng, n, 10), "v": _small_element(rng, n, 10)}


def generate(workload: str, seed: int):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()[workload](seed)


def op_list_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization of a workload's inputs."""
    return json.dumps(generate(workload, seed), sort_keys=True).encode()


if __name__ == "__main__":
    import sys
    sys.stdout.buffer.write(op_list_bytes(sys.argv[1], int(sys.argv[2])))
