"""One workload run in its own process: set-up, timed phases, checks.

Started by ``run.py`` from the root of a checkout. Prints ``READY`` as soon as
set-up is over (the parent times set-up up to that line), then, unless
``--setup-only``, runs the closed loop: the workload's cycle of ops, one op
at a time, round after round until the ops have been busy for ``--seconds``
(and for at least the workload's minimum number of rounds). Every result is
checked outside the timed region. Before the first op and after each op,
outside their timing, the worker also times a fixed reference computation,
so that run.py can express op times in units of it. It ends by printing one
JSON report line.

With ``--trace 1`` an untraced phase is followed by a traced phase of the
same length, so the report carries the tracing overhead next to the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import tracing  # noqa: E402
from oracle import QI, RotaStein, as_qi, same_terms  # noqa: E402


# -- products_fresh ------------------------------------------------------------


class ProductsFresh:
    """Cold products: every op builds its own context and multiplies once."""

    min_rounds = 3

    def __init__(self, inputs):
        from qclifford import FormContext, Multivector, clifford, gaussian
        # functions are looked up on their modules at each call, so that the
        # traced phase sees the wrappers installed after set-up
        self.FormContext, self.Multivector, self.clifford = FormContext, Multivector, clifford
        self.cycle = inputs["cycle"]
        for op in self.cycle:
            B = [[Fraction(x) for x in row] for row in op["B"]]
            if "gaussian" in op:
                i, j, im = op["gaussian"]
                B[i][j] = gaussian(B[i][j], Fraction(im))
            op["args"] = (B, "Q(i)" if "gaussian" in op else "Q",
                          {b: Fraction(c) for b, c in op["u"]},
                          {b: Fraction(c) for b, c in op["v"]})

    def warmup(self):
        pass  # cold by design

    def run(self, op):
        B, ring, u, v = op["args"]
        ctx = self.FormContext(B, ring=ring)
        return self.clifford.clifford_product(self.Multivector.from_terms(ctx, u),
                                              self.Multivector.from_terms(ctx, v))

    def check(self, op, result):
        if "expected" not in op:  # the op repeats every round with the same answer
            B = [[Fraction(x) for x in row] for row in op["B"]]
            if "gaussian" in op:
                i, j, im = op["gaussian"]
                B[i][j] = QI(B[i][j], Fraction(im))
            op["expected"] = RotaStein(B).product({b: Fraction(c) for b, c in op["u"]},
                                                  {b: Fraction(c) for b, c in op["v"]})
        if not same_terms(op["expected"], result.terms):
            return "wrong", "product differs from the Rota-Stein closed form"
        return None


# -- probes_session ------------------------------------------------------------


SPECS = ("car2", "cl11_a0", "cl11_a1", "cl13", "cl22_block", "cl22_deformed")


class ProbesSession:
    """Warm probes on a fixed set of contexts, built and exercised in set-up."""

    # the Cl(3,3) decomposition, the slowest op by far, runs once a round;
    # twelve rounds put the tail and the ten ops beyond it all among its runs
    min_rounds = 12

    def __init__(self, inputs):
        from qclifford import FormContext, Multivector, clifford, cli, decomp, reps, wick
        self.Multivector = Multivector
        self.clifford, self.decomp, self.reps, self.wick = clifford, decomp, reps, wick
        self.specs = {name: cli.load_spec_file(os.path.join(ROOT, "specs", f"{name}.json"))
                      for name in SPECS}
        cl33 = [[0] * 6 for _ in range(6)]
        for i in range(6):
            cl33[i][i] = 1 if i < 3 else -1
        self.def22_B = [[Fraction(x) for x in row] for row in inputs["def22_B"]]
        self.ctxs = {name: spec.ctx for name, spec in self.specs.items()}
        self.ctxs.update(cl33=FormContext(cl33), def22=FormContext(self.def22_B))
        self.cycle = inputs["cycle"]
        for op in self.cycle:
            if op["kind"] == "wick":
                op["element"] = self._element(self.ctxs[op["ctx"]], op["u"])
            elif op["kind"] == "inverse":
                terms = [[0, op["scalar"]]] + [[1 << i, x] for i, x in enumerate(op["vector"])]
                op["element"] = self._element(self.ctxs[op["ctx"]], terms)
        self.primitives = {"cl33": [], "def22": []}
        self._verified = {}

    def warmup(self):
        for op in self.cycle:
            try:
                result = self.run(op)
            except Exception:  # a failing op is counted when it runs timed
                continue
            if op["kind"] == "decompose_unit":
                self.primitives[op["ctx"]] = list(result.primitives)

    def _element(self, ctx, terms):
        return self.Multivector.from_terms(ctx, {b: Fraction(c) for b, c in terms})

    def run(self, op):
        decomp, reps, wick = self.decomp, self.reps, self.wick
        kind = op["kind"]
        ctx = self.ctxs[op["ctx"]]
        if kind == "periodicity":
            return decomp.decompose(ctx)
        if kind == "u2":
            return reps.solve_u2_generators(self.specs[op["ctx"]].car)
        if kind == "decompose_unit":
            return reps.primitive_decomposition(ctx.one())
        if kind == "left_ideal":
            return reps.left_ideal(self.primitives[op["ctx"]][op["primitive"]])
        if kind == "peirce_corner":
            return reps.peirce_corner(self.primitives[op["ctx"]][op["primitive"]])
        if kind == "split_pair":
            a, b = op["primitives"]
            prims = self.primitives[op["ctx"]]
            return reps.corner_split_search(prims[a] + prims[b])
        if kind == "wick":
            data = wick.wick_data(ctx)
            u = op["element"]
            reports = [wick.verify_wick_identities(ctx, data.F, ctx.e(i), u)
                       for i in range(1, ctx.dim + 1)]
            grades = [wick.a_grade_project(u, r) for r in range(ctx.dim + 1)]
            return reports, grades
        if kind == "inverse":
            return self.clifford.inverse(op["element"])
        raise ValueError(f"unknown op kind {kind!r}")

    def _decomposition_ok(self, name, result):
        """Known answer: a complete split of 1 into the expected number of
        primitives, ideal dimensions summing to 2^n, corners of dimension 1."""
        from qclifford import format_multivector, reps
        key = (name, tuple(format_multivector(p) for p in result.primitives))
        if key not in self._verified:
            ctx = self.ctxs[name]
            expected = gen.CL33_PRIMITIVES if name == "cl33" else gen.DEF22_PRIMITIVES
            total = ctx.zero()
            for p in result.primitives:
                total = total + p
            self._verified[key] = (
                result.complete and len(result.primitives) == expected
                and total == ctx.one()
                and sum(reps.left_ideal(p).dimension for p in result.primitives) == 1 << ctx.dim
                and all(reps.peirce_corner(p).dimension == 1 for p in result.primitives))
        return self._verified[key]

    def check(self, op, result):
        kind = op["kind"]
        if kind == "decompose_unit":
            ok = self._decomposition_ok(op["ctx"], result)
        elif kind == "left_ideal":
            p = self.primitives[op["ctx"]][op["primitive"]]
            count = gen.CL33_PRIMITIVES if op["ctx"] == "cl33" else gen.DEF22_PRIMITIVES
            ok = (result.dimension == (1 << p.ctx.dim) // count == len(result.basis)
                  and all(b * p == b for b in result.basis))
        elif kind == "peirce_corner":
            ok = result.dimension == 1 and result.is_primitive
        elif kind == "split_pair":
            a, b = op["primitives"]
            prims = self.primitives[op["ctx"]]
            f = prims[a] + prims[b]
            p = result.first
            ok = (result.outcome == "split" and result.corner_dimension == 4
                  and not p.is_zero() and p != f and p * p == p
                  and f * p == p and p * f == p and result.second == f - p)
        elif kind == "periodicity":
            if op["ctx"] == "cl22_block":
                ok = (result.decomposable and result.connecting.is_zero()
                      and result.map_report is not None and result.map_report.passed)
            else:
                ok = (not result.decomposable and not result.connecting.is_zero()
                      and any(not w.commutator_deviation.is_zero() for w in result.witnesses)
                      and all(w.anticommutator_residual.is_zero() for w in result.witnesses))
        elif kind == "wick":
            reports, grades = result
            ctx = self.ctxs[op["ctx"]]
            total = ctx.zero()
            for part in grades:
                total = total + part
            ok = all(r.all_zero for r in reports) and total == op["element"]
        elif kind == "u2":
            ctx = self.ctxs[op["ctx"]]
            ok = (result.status == "solved" and all(result.checks.values())
                  and result.N == ctx.parse("e1^e3 + e2^e4") and len(result.S) == 3)
        elif kind == "inverse":
            ok = result == self._expected_inverse(self.ctxs[op["ctx"]], op)
        else:
            ok = False
        return None if ok else ("wrong", f"{kind} result does not match its known answer")

    def _expected_inverse(self, ctx, op):
        """(a + x)^-1 = (a - x) / (a^2 - Q(x)), with Q from the symmetric part."""
        a = Fraction(op["scalar"])
        x = [Fraction(c) for c in op["vector"]]
        B = self.def22_B
        q = sum(x[i] * x[j] * (B[i][j] + B[j][i]) / 2 for i in range(4) for j in range(4))
        scale = 1 / (a * a - q)
        terms = {0: a * scale}
        for i, c in enumerate(x):
            terms[1 << i] = -c * scale
        return self._element(ctx, terms.items())


# -- cli_batch -------------------------------------------------------------------


class CliBatch:
    """Fresh ``python -m qclifford.cli`` children, one at a time."""

    # the twelve commands cost about the same, so the tail is a high quantile
    # of one spread of child times; eight rounds (about 30 s of children)
    # outlast a 25-second run, which keeps the op count, and so the tail's
    # percentile, the same from run to run
    min_rounds = 8

    def __init__(self, inputs):
        self.cycle = inputs["cycle"]
        self.traced = False
        self.tracer = None
        self.contexts = {}

    def warmup(self):
        # one child fills the page cache and writes the bytecode cache
        self.run(["mul", "specs/cl11_a1.json", "e1", "e2"])

    def run(self, op):
        argv = list(op) + ["--json"]
        if self.traced:
            command = [sys.executable, os.path.join(HERE, "cli_child.py"),
                       str(self.tracer.op)] + argv
        else:
            command = [sys.executable, "-m", "qclifford.cli"] + argv
        # the children inherit PYTHONPATH from run.py, which points at src/
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        return done.returncode, done.stdout, done.stderr

    def _ctx(self, spec):
        if spec not in self.contexts:
            from qclifford import cli
            self.contexts[spec] = cli.load_spec_file(os.path.join(ROOT, spec)).ctx
        return self.contexts[spec]

    def check(self, op, result):
        code, stdout, stderr = result
        if self.traced and tracing.SPANS_MARK in stderr:
            stderr, _, payload = stderr.rpartition(tracing.SPANS_MARK)
            self.tracer.merge(json.loads(payload), self.tracer.op)
        if code != 0:
            return "error", f"{op[0]}: exit code {code}: {stderr.strip()[:200]}"
        try:
            data = json.loads(stdout)
        except ValueError:
            return "wrong", f"{op[0]}: output is not JSON"
        command, spec = op[0], op[1]
        ctx = self._ctx(spec)
        same = lambda text, expected: ctx.parse(text) == ctx.parse(expected)  # noqa: E731
        if command == "mul":
            ok = same(data["result"], "1 + e1^e2")
        elif command == "table":
            ok = self._table_ok(ctx, data["table"])
        elif command == "grade":
            ok = same(data["result"], "-1/2")
        elif command == "wick-check":
            ok = (data["all_zero"] is True and same(data["identity_i_residual"], "0")
                  and all(same(c["residual_ii"], "0") and same(c["residual_iii"], "0")
                          for c in data["checks"]))
        elif command == "grading-diff":
            ok = (data.get("equal") is False and same(data["witness"], "e1^e2")
                  and [ctx.parse(p) for p in data["projections"]]
                  == [ctx.parse("0"), ctx.parse("-1/2")])
        elif command == "witt":
            ok = data == {"n_indices": [1, 2], "m_indices": [3, 4]}
        elif command == "periodicity":
            ok = data["verdict"] == "decomposable" and data["map_passed"] is True
        elif command == "ideal":
            ok = data["dimension"] == 2 == len(data["basis"])
        elif command == "corner":
            ok = data["dimension"] == 1 and data["primitive"] is True
        elif command == "split":
            parts = sorted(ctx.parse(p).coordinates() for p in data.get("parts", []))
            want = sorted(ctx.parse(p).coordinates() for p in ("1/2 + 1/2*e1", "1/2 - 1/2*e1"))
            ok = data["outcome"] == "split" and parts == want
        elif command == "u2":
            ok = (data["status"] == "solved" and same(data["N"], "e1^e3 + e2^e4")
                  and len(data["S"]) == 3 and all(data["checks"].values()))
        elif command == "sweep":
            ok = [row["result"]["verdict"] for row in data["rows"]] == \
                ["decomposable", "deformed"]
        else:
            ok = False
        return None if ok else ("wrong", f"{command}: output does not match its known answer")

    @staticmethod
    def _table_ok(ctx, rows):
        """Every blade pair once, each product equal to the closed form."""
        oracle = RotaStein([list(row) for row in ctx.B])
        seen = set()
        for row in rows:
            left, right = ctx.parse(row["left"]), ctx.parse(row["right"])
            if len(left.terms) != 1 or len(right.terms) != 1:
                return False
            (bl, cl), = left.terms.items()
            (br, cr), = right.terms.items()
            if as_qi(cl) != QI(1) or as_qi(cr) != QI(1):
                return False
            seen.add((bl, br))
            if not same_terms(oracle.blade_product(bl, br), ctx.parse(row["result"]).terms):
                return False
        return len(seen) == len(rows) == 1 << (2 * ctx.dim)


RUNNERS = {"products_fresh": ProductsFresh, "probes_session": ProbesSession,
           "cli_batch": CliBatch}


# -- phases ----------------------------------------------------------------------


class Reference:
    """A fixed computation in the benchmark's own code, timed between ops.

    It is a Rota–Stein product of two ten-term n=4 operands with a fresh oracle:
    pure-Python Fraction, dict and int work like the program's, but none of
    the program's code, so a change to the program does not move it while a
    change in the host's speed does."""

    def __init__(self):
        data = gen.reference()
        self.B = [[Fraction(x) for x in row] for row in data["B"]]
        self.u = {b: Fraction(c) for b, c in data["u"]}
        self.v = {b: Fraction(c) for b, c in data["v"]}
        self.expected = RotaStein(self.B).product(self.u, self.v)

    def time(self):
        t0 = perf_counter()
        result = RotaStein(self.B).product(self.u, self.v)
        elapsed = perf_counter() - t0
        if result != self.expected:
            raise RuntimeError("the reference computation changed its answer")
        return elapsed


def timed_phase(runner, seconds, reference, tracer=None):
    """Closed loop, one client: rounds of the workload's cycle until the ops
    have been busy for ``seconds`` and at least ``runner.min_rounds`` rounds
    have run. Each result is checked right after its op, outside the op's
    timing (and with tracing paused), then dropped, so memory does not grow
    with the number of ops and no context outlives its op. The reference
    computation is timed before the first op and after each op, also outside
    the ops' timing, so op ``i`` lies between ``reference_s[i]`` and
    ``reference_s[i + 1]``. Latencies are listed round by round, so op ``i``
    is slot ``i % slots``."""
    latencies, failures, reference_s = [], [], [reference.time()]
    busy = 0.0
    rounds = 0
    start = perf_counter()
    while busy < seconds or rounds < runner.min_rounds:
        for op in runner.cycle:
            index = len(latencies)
            if tracer is not None:
                tracer.op = index
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result, error = runner.run(op), None
            except Exception as exc:  # counted as a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            latencies.append(latency)
            busy += latency
            verdict = ("error", error) if error is not None else check(runner, op, result)
            if verdict is not None:
                failures.append([index, *verdict])
            del result
            reference_s.append(reference.time())
        rounds += 1
    return {"elapsed_s": perf_counter() - start, "busy_s": busy, "slots": len(runner.cycle),
            "latencies_s": latencies, "failures": failures, "reference_s": reference_s}


def check(runner, op, result):
    """None, or ("error" | "wrong", message). An op that raised or exited
    non-zero is an error; one that completed with output that disagrees with
    its known answer, or that cannot be read, is wrong."""
    try:
        return runner.check(op, result)
    except Exception as exc:  # unreadable output is a wrong answer
        return "wrong", f"check raised {type(exc).__name__}: {exc}"


def peak_rss_kb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def layer_report(tracer, latencies):
    """Per-layer metrics of a traced phase, plus the self-time consistency check."""
    calls, self_s, per_op = tracer.layer_stats()
    c = tracer.counters
    metrics = {}
    for name in sorted(set(calls) | set(tracing.SPAN_NAMES)):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for key in ("clifford.clifford_product.term_pairs", "clifford.clifford_product.terms_out",
                "clifford.monomial_table.builds", "linalg.rref.cells", "linalg.rref.max_cols",
                "reps.corner_split_search.trials"):
        metrics[key] = c.get(key, 0)
    pairs = c.get("clifford.clifford_product.term_pairs", 0)
    metrics["clifford.clifford_product.pair_reuse_ratio"] = c.get("pair_hits", 0) / pairs if pairs else 0.0
    trials = c.get("reps.corner_split_search.trials", 0)
    metrics["reps.corner_split_search.split_ratio"] = c.get("splits", 0) / trials if trials else 0.0
    over = [[op, per_op[op], wall] for op, wall in enumerate(latencies)
            if per_op.get(op, 0.0) > wall]
    return {"metrics": metrics, "spans": len(tracer.start),
            "bookkeeping_s": tracer.bookkeeping_s(), "self_exceeds_wall": over}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    runner = RUNNERS[args.workload](gen.generate(args.workload, args.seed))
    runner.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = Reference()
    report = {"untraced": timed_phase(runner, args.seconds, reference),
              "peak_rss_kb": peak_rss_kb(args.workload)}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        if isinstance(runner, CliBatch):
            runner.traced, runner.tracer = True, tracer
        phase = timed_phase(runner, args.seconds, reference, tracer)
        phase["layers"] = layer_report(tracer, phase["latencies_s"])
        if args.spans_out:
            tracer.write(args.spans_out)
        report["traced"] = phase
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
