"""Span tracing of the library's layers, for traced runs only.

The layers are the library's modules.  For the length of each traced
request, ``Tracer.request`` wraps the public functions listed in ``LAYERS``
and rebinds each wrapper in every ``rosepen`` module that binds the
original, so calls through a module attribute (``_linalg.mul``) and through
an imported name (``pencil_direct`` in ``cli``) are both seen.  QZ is
``scipy.linalg.eig``, rebound on the ``scipy.linalg`` module.  Every binding
is restored when the request returns.

Each span records name, start, end, parent and request id; spans stay in
memory until the run ends.  A span's self time is its duration minus the
time covered by its child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> (module, functions).  Metric names use the layer name, which has
# no leading underscore.
LAYERS = {
    "fiedler": ("rosepen.fiedler", ("pencil_direct", "pencil_algorithm1", "make_factor")),
    "linalg": ("rosepen._linalg", ("mul", "det", "rank", "rref")),
    "polymat": ("rosepen.polymat", ("poly_matrix_det", "smith_form", "smith_mcmillan")),
    "system": (
        "rosepen.system",
        ("realize", "is_minimal", "transfer_function", "assemble_system_matrix", "state_pencil"),
    ),
    "eigen": ("rosepen.eigen", ("classify_zeros", "solve_rep", "solve_gep", "pencil_determinant")),
    "equivalence": ("rosepen.equivalence", ("build_certificate", "aux_matrix", "intermediate_pencil")),
    "roots": ("rosepen._roots", ("all_roots", "rational_roots", "numeric_roots")),
    "io": (
        "rosepen.io",
        ("decode_system", "decode_rep_spec", "encode_pencil", "encode_zero_report", "dumps"),
    ),
    "qz": ("scipy.linalg", ("eig",)),
}

REQUEST = "cli.main"
# Functions whose per-request time the per-class breakdown shows.
BREAKDOWN = ("fiedler.pencil_direct", "eigen.classify_zeros")

# Extra per-layer counts: metric name -> unit.  Ratios are 1 when the
# function was never called (no work, so none wasted).  The counts are taken
# before the callee's span starts, so their cost lands in the caller's self
# time and in trace.overhead.
EXTRA_METRICS = {
    "linalg.mul.madds_per_request": "count/request",
    "linalg.mul.useful_ratio": "fraction",
    "polymat.poly_matrix_det.distinct_ratio": "fraction",
    "eigen.pencil_determinant.samples_per_request": "count/request",
    "equivalence.aux_matrix.distinct_ratio": "fraction",
    "roots.numeric_fallback_degree_per_request": "count/request",
    "trace.unwrapped_share": "fraction",
    "trace.overhead": "ratio",
}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, (_, fns) in LAYERS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls_per_request"] = "count/request"
            units[f"{layer}.{fn}.self_share"] = "fraction"
        units[f"{layer}.self_share"] = "fraction"
        units[f"{layer}.errors"] = "count"
    units.update(EXTRA_METRICS)
    return units


def _count_mul(tracer, a, b):
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    tracer.counts["madds"] += rows * inner * cols
    col_nnz = [sum(1 for row in a if row[k] != 0) for k in range(inner)]
    tracer.counts["useful_madds"] += sum(
        c * sum(1 for x in b[k] if x != 0) for k, c in enumerate(col_nnz)
    )


def _count_poly_det(tracer, matrix):
    tracer.distinct["poly_matrix_det"].add(matrix)


def _count_pencil_det(tracer, pencil):
    tracer.counts["samples"] += pencil.size + 1


def _count_aux(tracer, sys, kind, i):
    tracer.distinct["aux_matrix"].add((sys, kind, i))


def _count_numeric_roots(tracer, p):
    tracer.counts["fallback_degree"] += max(p.degree, 0)


COUNTERS = {
    "linalg.mul": _count_mul,
    "polymat.poly_matrix_det": _count_poly_det,
    "eigen.pencil_determinant": _count_pencil_det,
    "equivalence.aux_matrix": _count_aux,
    "roots.numeric_roots": _count_numeric_roots,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.stack = []
        self.request_id = -1
        self.counts = Counter()
        self.errors = Counter()
        self.distinct = defaultdict(set)
        self.distinct_total = Counter()
        self.labels = []  # class label of each request
        self._rebind = None

    # -- installation -------------------------------------------------------

    def _bindings(self):
        """(module, attribute, original, wrapper) for every binding of a
        listed function in its home module and in any rosepen module."""
        if self._rebind is None:
            self._rebind = []
            for layer, (modname, fns) in LAYERS.items():
                home = importlib.import_module(modname)
                modules = [home] + [
                    mod
                    for key, mod in list(sys.modules.items())
                    if key.startswith("rosepen") and mod is not home
                ]
                for fn in fns:
                    original = getattr(home, fn)
                    name = f"{layer}.{fn}"
                    wrapper = self._wrap(name, original, COUNTERS.get(name))
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind.append((mod, attr, original, wrapper))
        return self._rebind

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(tracer, *args, **kwargs)
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, 0.0, 0.0, parent, self.request_id]
        self.spans.append(record)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            record[1] = start
            record[2] = end

    def request(self, label, fn, *args):
        """Run one request as a root span, with the wrappers bound only for
        its duration."""
        self.request_id += 1
        self.labels.append(label)
        bindings = self._bindings()
        for mod, attr, _, wrapper in bindings:
            setattr(mod, attr, wrapper)
        try:
            return self.span(REQUEST, fn, *args)
        finally:
            for mod, attr, original, _ in reversed(bindings):
                setattr(mod, attr, original)
            for key, seen in self.distinct.items():
                self.distinct_total[key] += len(seen)
            self.distinct.clear()

    # -- reduction ----------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self, overhead):
        """Per-layer metrics; ``overhead`` is traced over untraced time."""
        units = metric_units()
        selfs = self.self_times()
        requests = self.request_id + 1
        calls = Counter(s[0] for s in self.spans)
        self_by_name = Counter()
        for span, t in zip(self.spans, selfs):
            self_by_name[span[0]] += t
        request_time = sum(s[2] - s[1] for s in self.spans if s[0] == REQUEST)
        accounted = sum(self_by_name.values())
        if abs(accounted - request_time) > 1e-9 * max(1.0, request_time):
            raise RuntimeError("span self times do not add up to the request time")

        out = {}
        for layer, (_, fns) in LAYERS.items():
            layer_self = 0.0
            layer_errors = 0
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.calls_per_request"] = calls[name] / requests
                out[f"{name}.self_share"] = self_by_name[name] / request_time
                layer_self += self_by_name[name]
                layer_errors += self.errors[name]
            out[f"{layer}.self_share"] = layer_self / request_time
            out[f"{layer}.errors"] = layer_errors

        def ratio(num, den):
            return num / den if den else 1.0

        out["linalg.mul.madds_per_request"] = self.counts["madds"] / requests
        out["linalg.mul.useful_ratio"] = ratio(self.counts["useful_madds"], self.counts["madds"])
        out["polymat.poly_matrix_det.distinct_ratio"] = ratio(
            self.distinct_total["poly_matrix_det"], calls["polymat.poly_matrix_det"]
        )
        out["eigen.pencil_determinant.samples_per_request"] = self.counts["samples"] / requests
        out["equivalence.aux_matrix.distinct_ratio"] = ratio(
            self.distinct_total["aux_matrix"], calls["equivalence.aux_matrix"]
        )
        out["roots.numeric_fallback_degree_per_request"] = (
            self.counts["fallback_degree"] / requests
        )
        out["trace.unwrapped_share"] = self_by_name[REQUEST] / request_time
        out["trace.overhead"] = overhead
        return {k: {"value": v, "unit": units[k]} for k, v in out.items()}

    def class_breakdown(self, scales):
        """Per input class: requests, median request time and the median
        per-request inclusive time of each function in BREAKDOWN, in ms
        scaled by ``scales[request id]``."""
        per_request = defaultdict(Counter)
        request_ms = {}
        for name, start, end, _, rid in self.spans:
            ms = (end - start) * 1e3 * scales[rid]
            if name == REQUEST:
                request_ms[rid] = ms
            elif name in BREAKDOWN:
                per_request[rid][name] += ms
        rows = defaultdict(list)
        for rid, label in enumerate(self.labels):
            rows[label].append(rid)
        out = {}
        for label, rids in rows.items():
            entry = {
                "requests": len(rids),
                "request_ms": statistics.median(request_ms[r] for r in rids),
            }
            for col in BREAKDOWN:
                entry[f"{col}_ms"] = statistics.median(per_request[r][col] for r in rids)
            out[label] = entry
        return out

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
