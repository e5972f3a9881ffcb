"""Batch command-line front end.

Algebras are defined in JSON files:

    {"dim": 2, "ring": "Q", "B": [["1", "1"], ["0", "-1"]],
     "elements": {"f": "1/2 + 1/2*e1"}}

or, for the index-doubled creation/annihilation form,

    {"ring": "Q(i)", "car": {"n": 2, "A": [["0", ...], ...]}}

Algebras have at most 12 generators (``forms.MAX_DIM``; a car block of n
modes has 2n); a larger one is refused as an input error. Every subcommand
takes ``--json``; ``split`` and ``sweep`` also take ``--seeds`` and ``--seed``
for the split search.

Exit codes: 0 success (also when the reader closes stdout early, as in
``qcliff table spec.json | head -1``), 1 computational error, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import decomp, reps, wick
from .clifford import clifford_product
from .errors import ComputationError, InputError
from .exterior import Multivector, wedge
from .forms import FormContext, split_form
from .reps import CarContext, build_car
from .scalars import (RING_GAUSSIAN, RING_RATIONAL, parse_rational,
                      scalar_from_json)
from .textio import format_blade, format_multivector

_SPEC_KEYS = {"dim", "ring", "B", "elements", "car"}
_CAR_KEYS = {"n", "A"}


@dataclass
class LoadedSpec:
    ctx: FormContext
    elements: dict
    car: Optional[CarContext]
    raw: dict
    path: str


def _parse_matrix(data, size, ring, what):
    if not isinstance(data, list) or len(data) != size or any(
        not isinstance(row, list) or len(row) != size for row in data
    ):
        raise InputError(f"{what} must be a {size}x{size} array")
    try:
        return [[scalar_from_json(x, ring) for x in row] for row in data]
    except ValueError as exc:
        raise InputError(f"in {what}: {exc}") from exc


def load_spec_data(data: dict, path: str = "<spec>") -> LoadedSpec:
    if not isinstance(data, dict):
        raise InputError("algebra definition must be a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise InputError(f"unknown fields in algebra definition: {sorted(unknown)}")
    has_car = "car" in data
    if has_car and "B" in data:
        raise InputError("give either \"B\" or \"car\", not both")
    if not has_car and "B" not in data:
        raise InputError("algebra definition needs a \"B\" matrix or a \"car\" block")

    elements = {}
    car = None
    if has_car:
        block = data["car"]
        if not isinstance(block, dict):
            raise InputError("\"car\" must be an object")
        unknown = set(block) - _CAR_KEYS
        if unknown:
            raise InputError(f"unknown fields in car block: {sorted(unknown)}")
        if "n" not in block or type(block["n"]) is not int:  # bool is an int
            raise InputError("car block needs an integer \"n\"")
        ring = data.get("ring", RING_GAUSSIAN)
        n = block["n"]
        A = _parse_matrix(block["A"], 2 * n, ring, "car A") if "A" in block else None
        car = build_car(n, A, ring=ring)
        ctx = car.ctx
        for i in range(1, n + 1):
            elements[f"a{i}"] = car.annihilator(i)
            elements[f"a{i}d"] = car.creator(i)
        elements["fock"] = car.fock_idempotent()
    else:
        ring = data.get("ring", RING_RATIONAL)
        if "dim" not in data or type(data["dim"]) is not int:  # bool is an int
            raise InputError("algebra definition needs an integer \"dim\"")
        dim = data["dim"]
        B = _parse_matrix(data["B"], dim, ring, "B")
        ctx = split_form(B, ring=ring)

    named = data.get("elements", {})
    if not isinstance(named, dict):
        raise InputError("\"elements\" must map names to multivector text")
    for name, text in named.items():
        elements[name] = ctx.parse(text)
    return LoadedSpec(ctx=ctx, elements=elements, car=car, raw=data, path=path)


def load_spec_file(path: str) -> LoadedSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed, or an integer past the digit limit
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return load_spec_data(data, path=path)


def _resolve(loaded: LoadedSpec, text: str) -> Multivector:
    if text in loaded.elements:
        return loaded.elements[text]
    return loaded.ctx.parse(text)


def _mv(u: Multivector) -> str:
    return format_multivector(u)


def _terms_list(u: Multivector):
    ctx = u.ctx
    return [
        _mv(Multivector.from_terms(ctx, {bits: u.terms[bits]}))
        for bits in sorted(u.terms)
    ]


# -- command handlers -------------------------------------------------------


def cmd_mul(loaded, args):
    result = clifford_product(_resolve(loaded, args.u), _resolve(loaded, args.v))
    return {"result": _mv(result)}, _mv(result)


def cmd_table(loaded, args):
    ctx = loaded.ctx
    rows = []
    lines = []
    for left in ctx.basis_blades():
        for right in ctx.basis_blades():
            product = _mv(ctx.blade(left) * ctx.blade(right))
            ln, rn = format_blade(left), format_blade(right)
            rows.append({"left": ln, "right": rn, "result": product})
            lines.append(f"{ln} * {rn} = {product}")
    return {"table": rows}, "\n".join(lines)


def cmd_grade(loaded, args):
    u = _resolve(loaded, args.u)
    result = wick.a_grade_project(u, args.r)
    return {"result": _mv(result)}, _mv(result)


def cmd_wick_check(loaded, args):
    ctx = loaded.ctx
    data = wick.wick_data(ctx)
    out = {"F": _mv(data.F)}
    unit_residual = wedge(data.expNegF, data.expF) - ctx.one()
    out["identity_i_residual"] = _mv(unit_residual)
    checks = []
    if args.x is not None or args.u is not None:
        x = _resolve(loaded, args.x) if args.x else ctx.vector([1] * ctx.dim)
        u = _resolve(loaded, args.u) if args.u else _generic_element(ctx)
        pairs = [(x, u)]
    else:
        generic = _generic_element(ctx)
        pairs = [(ctx.e(i), generic) for i in range(1, ctx.dim + 1)]
    all_zero = unit_residual.is_zero()
    for x, u in pairs:
        report = wick.verify_wick_identities(ctx, data.F, x, u)
        checks.append({
            "x": _mv(x),
            "residual_ii": _mv(report.residual_sandwich),
            "residual_iii": _mv(report.residual_contraction),
        })
        all_zero = all_zero and report.all_zero
    out["checks"] = checks
    out["all_zero"] = all_zero
    text = f"F = {out['F']}\nall residuals zero: {all_zero}"
    return out, text


def _generic_element(ctx):
    return Multivector.from_terms(ctx, {bits: Fraction(1) for bits in ctx.basis_blades()})


def cmd_grading_diff(loaded, args):
    other = load_spec_file(args.spec_b)
    verdict = wick.grading_witness(loaded.ctx, other.ctx)
    if verdict.equal:
        return {"equal": True}, "gradings are equal"
    witness = _mv(loaded.ctx.blade(verdict.witness_blade))
    out = {
        "equal": False,
        "witness": witness,
        "grade": verdict.witness_grade,
        "projections": [
            _mv(loaded.ctx.scalar(verdict.projection_first)),
            _mv(other.ctx.scalar(verdict.projection_second)),
        ],
    }
    text = (f"gradings differ: <{witness}> at grade {verdict.witness_grade} "
            f"projects to {out['projections'][0]} vs {out['projections'][1]}")
    return out, text


def cmd_witt(loaded, args):
    split = decomp.witt_split(loaded.ctx)
    out = {"n_indices": list(split.n_indices), "m_indices": list(split.m_indices)}
    return out, f"N = {out['n_indices']}, M = {out['m_indices']}"


def cmd_periodicity(loaded, args):
    verdict = decomp.decompose(loaded.ctx)
    out = {
        "verdict": verdict.verdict,
        "connecting": _terms_list(verdict.connecting),
        "witness_pairs": [
            {"pair": list(w.pair), "deviation": _mv(w.commutator_deviation)}
            for w in verdict.witnesses
            if not w.commutator_deviation.is_zero()
        ],
        "symmetric_cross": [
            {"pair": list(pair), "value": _mv(loaded.ctx.scalar(value))}
            for pair, value in verdict.symmetric_cross
        ],
        "split": {
            "n_indices": list(verdict.split.n_indices),
            "m_indices": list(verdict.split.m_indices),
        },
    }
    if verdict.map_report is not None:
        out["map_passed"] = verdict.map_report.passed
    text = f"verdict: {verdict.verdict}"
    if not verdict.decomposable:
        text += f"\nconnecting: {_mv(verdict.connecting)}"
    return out, text


def cmd_ideal(loaded, args):
    ideal = reps.left_ideal(_resolve(loaded, args.f))
    out = {"dimension": ideal.dimension, "basis": [_mv(b) for b in ideal.basis]}
    return out, f"ideal dimension {ideal.dimension}"


def cmd_corner(loaded, args):
    corner = reps.peirce_corner(_resolve(loaded, args.f))
    out = {
        "dimension": corner.dimension,
        "primitive": corner.is_primitive,
        "basis": [_mv(b) for b in corner.basis],
    }
    return out, f"corner dimension {corner.dimension}"


def cmd_split(loaded, args):
    result = reps.corner_split_search(_resolve(loaded, args.f), seed=args.seed,
                                      max_seeds=args.seeds)
    out = {"outcome": result.outcome, "corner_dimension": result.corner_dimension}
    if result.outcome == "split":
        out["parts"] = [_mv(result.first), _mv(result.second)]
    out["trials"] = result.trials
    text = f"outcome: {result.outcome}"
    if result.outcome == "split":
        text += f"\nparts: {out['parts'][0]}  |  {out['parts'][1]}"
    return out, text


def cmd_u2(loaded, args):
    if loaded.car is None:
        raise InputError("the u2 command needs an algebra defined by a car block")
    solution = reps.solve_u2_generators(loaded.car)
    out = {"status": solution.status,
           "shift_dimension": solution.shift_dimension,
           "checks": solution.checks}
    if solution.N is not None:
        out["N"] = _mv(solution.N)
        out["S"] = [_mv(s) for s in solution.S]
    text = f"status: {solution.status}"
    if solution.N is not None:
        text += f"\nN = {out['N']}"
        for k, s in enumerate(out["S"]):
            text += f"\nS{k + 1} = {s}"
    return out, text


def _sweep_contexts(loaded, entry, value):
    """Rebuild the algebra with one entry replaced by the sweep value."""
    data = json.loads(json.dumps(loaded.raw))
    i, j = entry
    if loaded.car is not None:
        block = data["car"]
        n2 = 2 * block["n"]
        if "A" not in block:
            block["A"] = [["0"] * n2 for _ in range(n2)]
        if not (1 <= i <= n2 and 1 <= j <= n2) or i == j:
            raise InputError(f"car sweep entry must be off-diagonal within 1..{n2}")
        block["A"][i - 1][j - 1] = str(value)
        block["A"][j - 1][i - 1] = str(-value)
    else:
        dim = data["dim"]
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise InputError(f"sweep entry must lie within 1..{dim}")
        data["B"][i - 1][j - 1] = str(value)
    return load_spec_data(data, path=loaded.path)


def cmd_sweep(loaded, args):
    try:
        i, j = (int(part) for part in args.entry.split(","))
    except ValueError as exc:
        raise InputError("--entry expects \"i,j\"") from exc
    try:
        values = [parse_rational(part.strip()) for part in args.values.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --values: {exc}") from exc
    handler = {
        "periodicity": cmd_periodicity,
        "ideal": cmd_ideal,
        "corner": cmd_corner,
        "split": cmd_split,
    }[args.run]
    run_args = argparse.Namespace(**vars(args))
    if args.run in ("ideal", "corner", "split"):
        if not args.element:
            raise InputError(f"--run {args.run} needs --element")
        run_args.f = args.element
    rows = []
    lines = []
    for value in values:
        swept = _sweep_contexts(loaded, (i, j), value)
        try:
            out, _ = handler(swept, run_args)
            summary = _sweep_summary(args.run, out)
        except ComputationError as exc:
            out = {"error": str(exc)}
            summary = f"error: {exc}"
        rows.append({"value": str(value), "result": out})
        lines.append(f"{i},{j} = {value}: {summary}")
    return {"entry": [i, j], "run": args.run, "rows": rows}, "\n".join(lines)


def _sweep_summary(run, out):
    if run == "periodicity":
        return out["verdict"]
    if run in ("ideal", "corner"):
        return f"dimension {out['dimension']}"
    return out["outcome"]


_HANDLERS = {
    "mul": cmd_mul,
    "table": cmd_table,
    "grade": cmd_grade,
    "wick-check": cmd_wick_check,
    "grading-diff": cmd_grading_diff,
    "witt": cmd_witt,
    "periodicity": cmd_periodicity,
    "ideal": cmd_ideal,
    "corner": cmd_corner,
    "split": cmd_split,
    "u2": cmd_u2,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--seeds", type=int, default=reps.DEFAULT_MAX_SEEDS,
                        help="trial budget for the split search")
    search.add_argument("--seed", type=int, default=0,
                        help="base seed for the split search")

    parser = argparse.ArgumentParser(
        prog="qcliff",
        description="exact computations in Clifford algebras of arbitrary "
                    "bilinear form",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", parents=[common], help="Clifford product of two elements")
    p.add_argument("spec"), p.add_argument("u"), p.add_argument("v")
    p = sub.add_parser("table", parents=[common], help="full blade product table")
    p.add_argument("spec")
    p = sub.add_parser("grade", parents=[common],
                       help="A-graded projection <u>_r")
    p.add_argument("spec"), p.add_argument("u"), p.add_argument("r", type=int)
    p = sub.add_parser("wick-check", parents=[common],
                       help="residuals of the outer-exponential identities")
    p.add_argument("spec")
    p.add_argument("--x", default=None), p.add_argument("--u", default=None)
    p = sub.add_parser("grading-diff", parents=[common],
                       help="compare the multivector gradings of two algebras")
    p.add_argument("spec"), p.add_argument("spec_b")
    p = sub.add_parser("witt", parents=[common], help="hyperbolic coordinate split")
    p.add_argument("spec")
    p = sub.add_parser("periodicity", parents=[common],
                       help="tensor decomposition verdict")
    p.add_argument("spec")
    p = sub.add_parser("ideal", parents=[common], help="left ideal of an idempotent")
    p.add_argument("spec"), p.add_argument("f")
    p = sub.add_parser("corner", parents=[common], help="Peirce corner of an idempotent")
    p.add_argument("spec"), p.add_argument("f")
    p = sub.add_parser("split", parents=[common, search],
                       help="search for an orthogonal idempotent split")
    p.add_argument("spec"), p.add_argument("f")
    p = sub.add_parser("u2", parents=[common],
                       help="solve the number and spin generators (car algebras)")
    p.add_argument("spec")
    p = sub.add_parser("sweep", parents=[common, search],
                       help="re-run a command over a range of one form entry")
    p.add_argument("spec")
    p.add_argument("--entry", required=True, help="1-based \"i,j\"")
    p.add_argument("--values", required=True, help="comma-separated rationals")
    p.add_argument("--run", required=True,
                   choices=["periodicity", "ideal", "corner", "split"])
    p.add_argument("--element", default=None,
                   help="named element for ideal/corner/split sweeps")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        loaded = load_spec_file(args.spec)
        out, text = _HANDLERS[args.command](loaded, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computational error: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(out, indent=2) if args.json else text, flush=True)
    except BrokenPipeError:  # the reader left; keep the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
