"""Spans and counters around the public entry points of ``codescent``.

The tracer wraps functions from outside the package: every module under
``codescent`` that binds a traced function gets the wrapper under that
name (``codescent.py`` and ``cli.py`` import ``make_map``, ``codescent_at``
and others by name, so patching the defining module alone would miss
them), and ``ChainComplex.__eq__`` is replaced on the class.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` the operation it belongs to.
Spans stay in memory until :meth:`Tracer.write`.  Counters are computed
inside the span from the call's arguments and return value only, so their
small cost lands in that span's own self time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED = {
    "codescent._modp": ("matmul", "rref", "rank", "nullspace", "solve", "inverse"),
    "codescent.chaincx": ("make_map", "compose", "first_homology_failure",
                          "induced_homology_map", "homology_dims",
                          "finite_colimit", "mapping_cone"),
    "codescent.fincat": ("make_category", "full_subcategory", "comma"),
    "codescent.diagrams": ("make_diagram", "make_nat", "left_kan", "restrict_along"),
    "codescent.codescent": ("bar_approximation", "ind_base_approximation",
                            "codescent_at", "codescent_locus"),
    "codescent.surgery": ("reduce_prune_objects", "reduce_prune_morphisms",
                          "reduce_funnel", "reduce_strict_funnel"),
    "codescent.cli": ("parse_instance", "to_json", "main"),
}
EQ_SPAN = "chaincx.ChainComplex.__eq__"
OP_SPAN = "bench.op"
MAX_STRING_LEN = 6  # strings_by_len.6 counts strings of length 6 or more


def _count_matmul(c, args, result):
    a, b = args[0], args[1]
    c["modp.matmul.madds_computed"] += a.shape[0] * a.shape[1] * b.shape[1]
    c["modp.matmul.bytes_computed"] += 8 * (a.size + b.size + result.size)
    c["modp.matmul.nnz"] += np.count_nonzero(a) + np.count_nonzero(b)
    c["modp.matmul.entries"] += a.size + b.size


def _count_rref(c, args, result):
    rows, cols = np.shape(args[0])
    c["modp.rref.cells"] += rows * cols
    c["modp.rref.pivots"] += len(result[1])
    c["modp.rref.pivot_room"] += min(rows, cols)


def _count_make_diagram(c, args, result):
    mor = args[0].mor
    into, out_of = defaultdict(int), defaultdict(int)
    for src, tgt in mor.values():
        out_of[src] += 1
        into[tgt] += 1
    c["diagrams.make_diagram.pairs_checked"] += sum(into[a] * out_of[a] for a in into)


def _count_approximation(c, args, result):
    cells = scanned = 0
    top = result.exact_through + 1
    for cx in result.diagram.at.values():
        for t, k in cx.dims.items():
            cells += k
            if t <= top:
                scanned += k
    c["codescent.cells_built"] += cells
    c["codescent.cells_scanned"] += scanned
    for sizes in result.column_sizes.values():
        for n, size in enumerate(sizes):
            c["codescent.strings_by_len.%d" % min(n, MAX_STRING_LEN)] += size


COUNTERS = {
    "modp.matmul": _count_matmul,
    "modp.rref": _count_rref,
    "diagrams.make_diagram": _count_make_diagram,
    "codescent.bar_approximation": _count_approximation,
    "codescent.ind_base_approximation": _count_approximation,
}


def _span_name(module: str, fn: str) -> str:
    return "%s.%s" % (module.rsplit(".", 1)[1].lstrip("_"), fn)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, result)
                return result
            finally:
                spans[idx] = (name, start, perf_counter(), parent, self.op)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items()
                   if n == "codescent" or n.startswith("codescent.")]
        for module, names in TRACED.items():
            for fn_name in names:
                orig = getattr(sys.modules[module], fn_name)
                wrapper = self.wrap(_span_name(module, fn_name), orig)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        cls = sys.modules["codescent.chaincx"].ChainComplex
        self._undo.append((cls, "__eq__", cls.__eq__))
        cls.__eq__ = self.wrap(EQ_SPAN, cls.__eq__)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def run_op(self, op_index: int, fn, *args):
        """Call ``fn(*args)`` under a root span for one operation."""
        self.op = op_index
        try:
            return self.wrap(OP_SPAN, fn)(*args)
        finally:
            self.op = -1

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, metric_names) -> dict[str, float]:
        """Per-layer metrics named in BENCHMARK.json, from the spans so far."""
        calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
        scan = 0.0
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
            total_s[span[0]] += span[2] - span[1]
            if span[0] == "chaincx.first_homology_failure":
                scan += span[2] - span[1]
        c = self.counters
        derived = {
            "codescent.verdict_scan_s": scan,
            "modp.matmul.nnz_frac": _ratio(c["modp.matmul.nnz"], c["modp.matmul.entries"]),
            "modp.rref.pivot_frac": _ratio(c["modp.rref.pivots"], c["modp.rref.pivot_room"]),
            "codescent.cells_scanned_frac": _ratio(c["codescent.cells_scanned"],
                                                   c["codescent.cells_built"]),
        }
        out = {}
        for name in metric_names:
            if name in derived:
                out[name] = derived[name]
            elif name.endswith(".calls"):
                out[name] = calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                out[name] = self_s[name[: -len(".self_s")]]
            elif name.endswith(".total_s"):
                out[name] = total_s[name[: -len(".total_s")]]
            elif name in c:
                out[name] = c[name]
            elif name.startswith("trace."):
                continue
            else:
                out[name] = 0
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
