"""Outside-in tracing of the alcove_cells layers, installed from the benchmark.

The tracer wraps the public callables listed in TARGETS without editing the
package: module-level functions are replaced in every ``alcove_cells.*``
namespace that binds them (``support.alcove_of``, ``cli.alcove_of``, ...),
methods are replaced on their class.  Each wrapped call records a span
(name, start, end, parent span, item id) kept in memory and written out by
``write_spans`` at the end of the pass.  The callables in AGGREGATED, called
hundreds of thousands of times, are folded into one record per (name,
parent name) instead of one span per call.

Self time of a call is its duration minus the duration of the wrapped calls
it made directly, so time spent in unwrapped helpers is charged to the
nearest wrapped caller.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from itertools import count
from time import perf_counter_ns

PACKAGE = "alcove_cells"

# Layer (module) -> wrapped callables, "Class.method" for methods.
TARGETS: dict[str, tuple[str, ...]] = {
    "rootsys": (
        "chain_components",
        "root_pairing",
        "ShiftedPoint.pairing",
        "ShiftedPoint.__init__",
        "point_from_e",
    ),
    "constraints": ("DifferenceSystem.feasible", "DifferenceSystem.witness"),
    "alcove": (
        "alcove_of",
        "facette_of",
        "Alcove.__init__",
        "Facette.__init__",
        "stabilizer_subroot_system",
        "weak_leq",
        "closure_contains",
        "lower_closure_contains",
        "lower_closure_contains_via_stabilizer",
        "stabilizer_group",
        "interior_point",
        "AffineMap.apply",
        "AffineMap.compose",
        "weak_leq_oracle",
        "up_reachable",
    ),
    "partition": ("partition_of_basis", "sup", "transpose", "dominance_leq"),
    "cells": ("gamma", "enumerate_good_bases", "s_partition", "d_partition"),
    "support": (
        "weight_cell_of",
        "upper_bound_certificate",
        "construct_mu",
        "facette_lattice_point",
    ),
    "sweeps": (
        "lclosure_sweep",
        "weak_order_sweep",
        "facettes_meeting_box",
        "dominant_alcoves",
        "integral_points",
    ),
    "cli": ("main",),
}

# Called hundreds of thousands of times per pass: aggregated per
# (name, parent name) instead of one span per call.  The LEAVES among them
# call no other target, so their wrapper also skips the call stack.
LEAVES = frozenset({"rootsys.root_pairing", "rootsys.ShiftedPoint.pairing"})
AGGREGATED = LEAVES | {"rootsys.chain_components", "partition.partition_of_basis"}

# lru_caches whose cache_info() is recorded at the end of a traced pass.
CACHES = (("alcove", "stabilizer_group"), ("alcove", "interior_point"), ("rootsys", "positive_roots"))

FEASIBLE = "constraints.DifferenceSystem.feasible"
PARTITION_OF_BASIS = "partition.partition_of_basis"
S_PARTITION = "cells.s_partition"
GOOD_BASES = "cells.enumerate_good_bases"
FACETTES_IN_BOX = "sweeps.facettes_meeting_box"

# Frame layout on the call stack: [child_ns, span_index, name_id, distinct_set].
_CHILD, _SPAN, _NAME, _SET = range(4)


def layer_module(layer: str):
    """The module object of a layer.

    Looked up in sys.modules: the attribute ``alcove_cells.partition`` is the
    re-exported function ``partition``, which shadows the module.
    """
    return sys.modules[f"{PACKAGE}.{layer}"]


def _package_namespaces() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Span recorder plus the wrappers that feed it; one per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.stack: list[list] = []
        # Six fields per span: id, name id, start ns, end ns, parent id, item.
        self.spans = array("q")
        self.span_ids = count()
        self.aggregates: dict[tuple[int, int], list[int]] = {}
        self.counters = {
            "feasible_infeasible": 0,
            "feasible_in_box_search": 0,
            "s_partition_partitions": 0,
            "s_partition_distinct": 0,
            "good_bases": 0,
            "box_facettes": 0,
        }
        self.item = -1
        self._undo: list[tuple[object, str, object]] = []
        self._id: dict[str, int] = {}

    # -- wrapping ---------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that do not exist."""
        missing = []
        namespaces = _package_namespaces()
        for layer, callables in TARGETS.items():
            mod = layer_module(layer)
            for qual in callables:
                name = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = vars(owner).get(attr) if owner is not None else None
                if orig is None:
                    missing.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            self._patch(ns, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        if name not in self._id:
            self._id[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.incl_ns.append(0)
        return self._id[name]

    def _wrap(self, name: str, orig):
        """Wrapper timing one callable.

        Inclusive time adds every call's duration; no target calls itself,
        so nothing is counted twice.
        """
        k = self._name_id(name)
        if name in LEAVES:
            return self._wrap_leaf(k, orig)
        record = name not in AGGREGATED
        post = self._post_hook(name)
        collects = name == S_PARTITION
        stack, spans, span_ids, aggregates = self.stack, self.spans, self.span_ids, self.aggregates
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[_SPAN] if parent else -1
            frame = [0, next(span_ids) if record else parent_span, k, set() if collects else None]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                calls[k] += 1
                self_ns[k] += dur - frame[_CHILD]
                incl_ns[k] += dur
                if parent is not None:
                    parent[_CHILD] += dur
                if record:
                    spans.extend((frame[_SPAN], k, start, end, parent_span, tracer.item))
                else:
                    key = (k, parent[_NAME] if parent else -1)
                    agg = aggregates.get(key)
                    if agg is None:
                        aggregates[key] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
            if post is not None:
                post(result, frame, parent)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _wrap_leaf(self, k: int, orig):
        stack, aggregates = self.stack, self.aggregates
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                calls[k] += 1
                self_ns[k] += dur
                incl_ns[k] += dur
                parent = -1
                if stack:
                    top = stack[-1]
                    top[_CHILD] += dur
                    parent = top[_NAME]
                agg = aggregates.get((k, parent))
                if agg is None:
                    aggregates[(k, parent)] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur

        wrapper.__wrapped__ = orig
        return wrapper

    def _post_hook(self, name: str):
        """Counter update from a call's result, for the waste ratios."""
        c = self.counters
        stack = self.stack
        if name == FEASIBLE:
            in_box = self._name_id(FACETTES_IN_BOX)

            def post(result, frame, parent):
                if not result:
                    c["feasible_infeasible"] += 1
                if any(f[_NAME] == in_box for f in stack):
                    c["feasible_in_box_search"] += 1

            return post
        if name == PARTITION_OF_BASIS:
            s_id = self._name_id(S_PARTITION)

            def post(result, frame, parent):
                if parent is not None and parent[_NAME] == s_id:
                    parent[_SET].add(result)
                    c["s_partition_partitions"] += 1

            return post
        if name == S_PARTITION:

            def post(result, frame, parent):
                c["s_partition_distinct"] += len(frame[_SET])

            return post
        if name == GOOD_BASES:

            def post(result, frame, parent):
                c["good_bases"] += len(result)

            return post
        if name == FACETTES_IN_BOX:

            def post(result, frame, parent):
                c["box_facettes"] += len(result)

            return post
        return None

    # -- results ----------------------------------------------------------

    def raw(self) -> dict:
        """Counters of this pass, in a form that sums across passes."""
        caches = {}
        for layer, attr in CACHES:
            fn = getattr(layer_module(layer), attr, None)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            caches[attr] = (
                {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
                if info
                else {"hits": 0, "misses": 0, "entries": 0}
            )
        return {
            "callables": {
                name: {
                    "calls": self.calls[k],
                    "self_ns": self.self_ns[k],
                    "incl_ns": self.incl_ns[k],
                }
                for k, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "caches": caches,
            "spans": len(self.spans) // 6,
        }

    def write_spans(self, path) -> None:
        """Spans, then the aggregated callables, as gzip'd CSV."""
        names = self.names
        data = self.spans
        with gzip.open(path, "wt", compresslevel=1, newline="") as out:
            out.write("kind,span,name,start_ns,end_ns,parent,item,calls,total_ns\n")
            for pos in range(0, len(data), 6):
                sid, k, start, end, parent, item = data[pos : pos + 6]
                out.write(f"span,{sid},{names[k]},{start},{end},{parent},{item},1,{end - start}\n")
            for (k, parent), (calls, total) in sorted(self.aggregates.items()):
                parent_name = names[parent] if parent >= 0 else ""
                out.write(f"aggregate,,{names[k]},,,{parent_name},,{calls},{total}\n")
