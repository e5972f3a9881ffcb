"""Self-tests of the benchmark's own parts.

Run from the root of a qclifford checkout:

    python3 perfbench/selftest.py

Checks that the workload generator is deterministic, seed-sensitive and
independent of the program, that the Rota–Stein oracle agrees with
``clifford_product`` on random forms at n <= 4 over Q and Q(i), that the
span arithmetic gives self times that add up to the root span, and that op
times are put in reference units round by round. Prints one
line per test and exits 1 if any failed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402
from oracle import QI, RotaStein, same_terms  # noqa: E402


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def test_generator_deterministic():
    for workload in gen.WORKLOADS:
        check(gen.op_list_bytes(workload, 7) == gen.op_list_bytes(workload, 7),
              f"{workload}: seed 7 gave two different op lists")


def test_generator_seed_changes_forms():
    a, b = gen.products_fresh(1), gen.products_fresh(2)
    check([op["B"] for op in a["cycle"]] != [op["B"] for op in b["cycle"]],
          "products_fresh: seeds 1 and 2 gave the same forms")
    check(gen.probes_session(1)["def22_B"] != gen.probes_session(2)["def22_B"],
          "probes_session: seeds 1 and 2 gave the same deformed form")
    check(gen.cli_batch(1) != gen.cli_batch(2), "cli_batch: seeds 1 and 2 gave the same order")


def test_generator_independent_of_program():
    """The op list comes out the same in an isolated interpreter that cannot
    import qclifford, and generating it loads no qclifford module."""
    check(not any(m == "qclifford" or m.startswith("qclifford.") for m in sys.modules),
          "importing the generator loaded qclifford")
    for workload in gen.WORKLOADS:
        isolated = subprocess.run([sys.executable, "-I", os.path.join(HERE, "gen.py"),
                                   workload, "3"], capture_output=True, check=True,
                                  timeout=60, cwd=HERE)
        check(isolated.stdout == gen.op_list_bytes(workload, 3),
              f"{workload}: the isolated interpreter gave another op list")
    check(not any(m == "qclifford" or m.startswith("qclifford.") for m in sys.modules),
          "generating op lists loaded qclifford")


def test_oracle_matches_program():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from qclifford import FormContext, Multivector, clifford_product, gaussian
    rng = random.Random(20)
    for n in (1, 2, 3, 4):
        for trial in range(24):
            B = [[gen.rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            oracle_B = [row[:] for row in B]
            ring = "Q"
            if trial % 2:
                i, j = rng.randrange(n), rng.randrange(n)
                im = gen.rand_nonzero(rng)
                B[i][j] = gaussian(B[i][j], im)
                oracle_B[i][j] = QI(oracle_B[i][j], im)
                ring = "Q(i)"
            ctx = FormContext(B, ring=ring)
            size = min(6, 1 << n)
            u = {b: gen.rand_nonzero(rng) for b in rng.sample(range(1 << n), size)}
            v = {b: gen.rand_nonzero(rng) for b in rng.sample(range(1 << n), size)}
            if trial % 3 == 0:  # Gaussian operand coefficients too
                u = {b: c * QI(1, 1) for b, c in u.items()}
            program_u = {b: c if isinstance(c, Fraction) else gaussian(c.re, c.im)
                         for b, c in u.items()}
            got = clifford_product(Multivector.from_terms(ctx, program_u),
                                   Multivector.from_terms(ctx, v))
            check(same_terms(RotaStein(oracle_B).product(u, v), got.terms),
                  f"oracle and clifford_product differ at n={n}, ring {ring}, trial {trial}")


def test_oracle_known_values():
    B = [[Fraction(2), Fraction(3)], [Fraction(-1), Fraction(5)]]
    o = RotaStein(B)
    check(o.blade_product(1, 1) == {0: 2}, "e1·e1 should be B11")
    check(o.blade_product(1, 2) == {0: 3, 3: 1}, "e1·e2 should be B12 + e1^e2")
    check(o.blade_product(2, 1) == {0: -1, 3: -1}, "e2·e1 should be B21 - e1^e2")
    # expanding e1^e2 = e1·e2 - B12 by hand:
    # (e1^e2)·(e1^e2) = (B12·B21 - B11·B22) + (B21 - B12)·e1^e2
    check(o.blade_product(3, 3) == {0: 3 * -1 - 2 * 5, 3: -1 - 3},
          "e12·e12 should be (B12·B21 - B11·B22) + (B21 - B12)·e12")


def test_self_times():
    tracer = tracing.Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    tracer.enabled = True
    tracer.op = 0
    root = tracer.open(outer)
    child = tracer.open(inner)
    tracer.close(child)
    second = tracer.open(inner)
    tracer.close(second)
    tracer.close(root)
    selfs = tracer.self_times()
    total = tracer.end[root] - tracer.start[root]
    check(abs(sum(selfs) - total) < 1e-9, "self times do not add up to the root span")
    check(min(selfs) >= 0, "a self time is negative")
    calls, self_s, per_op = tracer.layer_stats()
    check(calls == {"outer": 1, "inner": 2}, "span counts are wrong")
    check(abs(per_op[0] - total) < 1e-9, "per-op self time differs from the root span")


def test_reference_units():
    """Each op is divided by the median reference time of its own round."""
    import run
    phase = {"latencies_s": [2.0, 4.0, 6.0, 8.0], "slots": 2,
             "reference_s": [1.0, 1.0, 3.0, 3.0, 3.0]}
    check(run.in_ref(phase) == [2.0, 4.0, 2.0, 8.0 / 3.0], "ops in ref units are wrong")
    check(run.slot_medians([1.0, 5.0, 3.0, 7.0, 2.0, 6.0], 2) == [2.0, 6.0],
          "per-op medians over the rounds are wrong")


TESTS = [test_generator_deterministic, test_generator_seed_changes_forms,
         test_generator_independent_of_program, test_oracle_known_values,
         test_oracle_matches_program, test_self_times, test_reference_units]


def main():
    failed = 0
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
