"""Spans around the public functions of each qclifford layer.

``install`` replaces every listed function, in its own module and wherever
another qclifford module bound the same object at import (``monomial_table``
in ``wick``, ``decomp`` and ``reps``, ``clifford_product`` in ``cli``, ...),
with a wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory in flat arrays until the run ends. A layer's self time
is its span minus the part its child spans cover; time spent in a counter
hook is excluded from every span, and reported as bookkeeping.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# Prefix of the stderr line on which a traced CLI child ships its spans.
SPANS_MARK = "\x00perfbench-spans "

# (module, attribute, counter hook or None), span name "<module>.<attribute>"
SPANNED = (
    ("clifford", "clifford_product", "product"),
    ("clifford", "monomial_table", None),
    ("clifford", "regular_representation", None),
    ("clifford", "inverse", None),
    ("exterior", "wedge", None),
    ("exterior", "contract_left", None),
    ("linalg", "rref", "rref"),
    ("reps", "left_ideal", None),
    ("reps", "peirce_corner", None),
    ("reps", "corner_split_search", "split"),
    ("reps", "solve_u2_generators", None),
    ("decomp", "decompose", None),
    ("decomp", "verify_split_map", None),
    ("wick", "wick_data", None),
    ("wick", "verify_wick_identities", None),
    ("wick", "a_grade_project", None),
    ("forms", "bivector_from_antisym", None),
    ("cli", "load_spec_file", None),
    ("textio", "parse_multivector", None),
    ("textio", "format_multivector", None),
)
# plus FormContext construction and numpy's eigvals as called from reps
SPAN_NAMES = [f"{m}.{a}" for m, a, _ in SPANNED] + ["forms.FormContext", "reps.numeric"]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names = []
        self._name_ids = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op_id = array.array("i")
        self.excluded = array.array("d")
        self._stack = []
        self.counters = defaultdict(float)
        self._seen_pairs = set()
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.excluded.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int):
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    h0 = perf_counter()
                    hook(tracer, args, result)
                    tracer.excluded[index] += perf_counter() - h0
                return result
            finally:
                tracer.close(index)

        return traced

    # -- counter hooks ------------------------------------------------------

    def _ctx_serial(self, ctx) -> int:
        serial = self._serials.get(ctx)
        if serial is None:
            serial = self._serials[ctx] = self._next_serial
            self._next_serial += 1
        return serial

    def hook_product(self, args, result):
        u, v = args[0], args[1]
        c = self.counters
        c["clifford.clifford_product.term_pairs"] += len(u.terms) * len(v.terms)
        c["clifford.clifford_product.terms_out"] += len(result.terms)
        serial = self._ctx_serial(u.ctx) << 26
        seen = self._seen_pairs
        hits = 0
        for bu in u.terms:
            base = serial | (bu << 13)
            for bv in v.terms:
                key = base | bv
                if key in seen:
                    hits += 1
                else:
                    seen.add(key)
        c["pair_hits"] += hits

    def hook_rref(self, args, result):
        matrix = args[0]
        cols = len(matrix[0]) if matrix else 0
        c = self.counters
        c["linalg.rref.cells"] += len(matrix) * cols
        c["linalg.rref.max_cols"] = max(c["linalg.rref.max_cols"], cols)

    def hook_split(self, args, result):
        self.counters["reps.corner_split_search.trials"] += len(result.trials)
        self.counters["splits"] += result.outcome == "split"

    # -- aggregation ----------------------------------------------------------

    def export(self) -> dict:
        """Spans and counters as plain lists, e.g. to ship from a child."""
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "op_id": self.op_id.tolist(),
                "excluded": self.excluded.tolist(), "counters": dict(self.counters)}

    def merge(self, data: dict, op: int):
        """Append a child's exported spans, re-indexed, under op id ``op``."""
        ids = [self.name_id(n) for n in data["names"]]
        offset = len(self.start)
        for k in range(len(data["start"])):
            self.name.append(ids[data["name"][k]])
            self.start.append(data["start"][k])
            self.end.append(data["end"][k])
            parent = data["parent"][k]
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op_id.append(op)
            self.excluded.append(data["excluded"][k])
        for key, value in data["counters"].items():
            if key.endswith(".max_cols"):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def self_times(self):
        """Per-span self time: duration minus children minus hook time."""
        count = len(self.start)
        children = [0.0] * count
        for k in range(count):
            p = self.parent[k]
            if p >= 0:
                children[p] += self.end[k] - self.start[k]
        return [self.end[k] - self.start[k] - children[k] - self.excluded[k]
                for k in range(count)]

    def layer_stats(self):
        """Calls and self time per span name, and self time per op id."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        per_op = defaultdict(float)
        for k, s in enumerate(selfs):
            name = self.names[self.name[k]]
            calls[name] += 1
            self_s[name] += s
            per_op[self.op_id[k]] += s
        return calls, self_s, per_op

    def bookkeeping_s(self) -> float:
        return sum(self.excluded)

    def write(self, path: str):
        """Dump the spans: one JSON header line, then the raw arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": [["name", "H"], ["start", "d"], ["end", "d"],
                                 ["parent", "i"], ["op_id", "i"], ["excluded", "d"]],
                      "counters": dict(self.counters)}
            handle.write(json.dumps(header).encode() + b"\n")
            for field in ("name", "start", "end", "parent", "op_id", "excluded"):
                getattr(self, field).tofile(handle)


def install(tracer: Tracer):
    """Import every qclifford module and swap in the traced wrappers.

    ``numpy.linalg.eigvals`` is wrapped for the whole process, because
    ``reps`` reaches it through the numpy module."""
    import importlib
    importlib.import_module("qclifford.cli")
    modules = [m for name, m in list(sys.modules.items())
               if name == "qclifford" or name.startswith("qclifford.")]
    hooks = {"product": Tracer.hook_product, "rref": Tracer.hook_rref,
             "split": Tracer.hook_split}

    def replace_everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for module_name, attr, hook in SPANNED:
        module = sys.modules.get(f"qclifford.{module_name}")
        original = getattr(module, attr, None)
        if original is None:  # a later version of the program dropped it
            continue
        hook_fn = hooks[hook] if hook else None
        replace_everywhere(original, tracer.wrap(f"{module_name}.{attr}", original,
                                                 hook_fn))

    forms = sys.modules["qclifford.forms"]
    context_class = getattr(forms, "FormContext", None)
    if context_class is not None:
        context_class.__init__ = tracer.wrap("forms.FormContext", context_class.__init__)

    clifford = sys.modules["qclifford.clifford"]
    table_class = getattr(clifford, "MonomialTable", None)
    if table_class is not None:
        build = table_class.__init__

        @functools.wraps(build)
        def counted_build(*args, **kwargs):
            if tracer.enabled:
                tracer.counters["clifford.monomial_table.builds"] += 1
            return build(*args, **kwargs)

        table_class.__init__ = counted_build

    reps = sys.modules["qclifford.reps"]
    numpy = getattr(reps, "np", None)
    if numpy is not None:
        numpy.linalg.eigvals = tracer.wrap("reps.numeric", numpy.linalg.eigvals)
