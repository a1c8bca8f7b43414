"""Runtime span tracing of the numsem layers, installed without editing any source.

``install()`` replaces, in each module namespace that looks a function up
at call time, the function with a wrapper that records one span per call:
(span id, layer name, parent span id, query id, start, end).  Methods are
patched on their class.  Spans are kept in per-thread arrays in memory
and aggregated, or written out, after the run; ``uninstall()`` puts every
original back.

Layer names follow the benchmark's per-layer metrics (``BENCHMARK.json``):
a private stage helper such as ``classes._trace_family`` counts as its own
layer.  A wrapped name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array
from collections import defaultdict


def _len_of_arg(i):
    return lambda args, result: len(args[i])


def _len_of_result(args, result):
    return len(result)


# (layer, defining module, attribute, namespaces that look it up, counters)
# Namespaces are module names; None means the attribute lives on a class
# and is patched there.  Counters map a counter name to a function of
# (args, result); a counter whose name starts with "pre:" is taken before
# the call and sees result=None.
LAYERS = [
    ("cli.run", "cli", "run", ["cli"], {}),
    ("cli.semigroup_record", "cli", "semigroup_record", ["cli"], {}),
    ("cli.solution_record", "cli", "solution_record", ["cli"], {}),
    ("cli.format_text", "cli", "format_text", ["cli"], {}),
    ("irreducible.make_context", "irreducible", "make_context", ["irreducible", "classes"], {}),
    ("irreducible.tree_walk", "irreducible", "_expand_levels", ["irreducible", "classes"],
     {"irreducible.nodes": _len_of_result}),
    ("irreducible.children", "irreducible", "children", ["irreducible"], {}),
    ("irreducible.min_free_generator", "irreducible", "min_free_generator", ["irreducible"], {}),
    ("classes.merge", "classes", "enumerate_with_frobenius", ["cli"], {}),
    ("classes.class_minimum", "classes", "class_minimum", ["classes"], {}),
    ("classes.frobenius_class", "classes", "frobenius_class", ["classes"],
     {"classes.members": lambda args, result: len(result.members)}),
    ("classes.trace_family", "classes", "_trace_family", ["classes"],
     {"pre:classes.subsets_scanned": lambda args, result: 1 << len(args[1]),
      "classes.traces": _len_of_result}),
    ("maxavoid.join", "maxavoid", "maximal_avoiding", ["cli", "frontier"], {}),
    ("maxavoid.family", "irreducible", "enumerate_irreducibles", ["maxavoid"],
     {"maxavoid.family_size": _len_of_result}),
    ("maxavoid.pareto", "maxavoid", "_pareto_minimal_coords", ["maxavoid"],
     {"pre:maxavoid.pareto.in": _len_of_arg(0), "maxavoid.pareto.out": _len_of_result}),
    ("core.apery_vector", "core", "apery_vector", ["core", "maxavoid"], {}),
    ("core.semigroup_from_apery_vector", "core", "semigroup_from_apery_vector", ["maxavoid"], {}),
    ("frontier.solve", "frontier", "solve", ["cli"],
     {"frontier.solutions": _len_of_result}),
    ("core.minimal_generators", "core", "NumericalSemigroup.minimal_generators", None,
     {"pre:core.minimal_generators.computed":
      lambda args, result: int(getattr(args[0], "_msg", None) is None)}),
    ("core.gaps", "core", "NumericalSemigroup.gaps", None, {}),
    ("core.from_small_elements", "core", "NumericalSemigroup.from_small_elements", None, {}),
    ("core.Submonoid", "core", "Submonoid.__init__", None, {}),
]

EXIT_COUNTERS = {2: "cli.exit_2", 3: "cli.exit_3"}

_FIELDS = 6  # span id, layer index, parent id, query id, start, end


class Tracer:
    """Collects spans and counters while installed; one instance per traced run."""

    def __init__(self):
        self.query = -1
        self.absent: list[str] = []
        self.counters: dict[tuple[str, int], int] = defaultdict(int)
        self._layers = [layer for layer, *_ in LAYERS]
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._buffers: dict[int, array] = {}
        self._main = threading.get_ident()
        self._count_lock = threading.Lock()  # pool threads update counters too
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for index, (layer, home, attr, namespaces, counters) in enumerate(LAYERS):
            if namespaces is None:
                cls_name, meth = attr.split(".")
                cls = getattr(self._module(home), cls_name, None)
                original = cls.__dict__.get(meth) if cls is not None else None
                if original is None:
                    self.absent.append(layer)
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(index, original.__func__, counters))
                else:
                    wrapped = self._wrap(index, original, counters)
                self._patch(cls, meth, original, wrapped)
                continue
            found = False
            for ns in namespaces:
                module = self._module(ns)
                original = module.__dict__.get(attr)
                if original is None:
                    continue
                found = True
                self._patch(module, attr, original, self._wrap(index, original, counters))
            if not found:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _module(self, name: str):
        return importlib.import_module(f"numsem.{name}")

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, index: int, func, counters: dict):
        ids, stacks, buffers, main = self._ids, self._stacks, self._buffers, self._main
        clock = time.perf_counter
        pre = [(n[4:], f) for n, f in counters.items() if n.startswith("pre:")]
        post = [(n, f) for n, f in counters.items() if not n.startswith("pre:")]
        is_run = self._layers[index] == "cli.run"
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
                buffers[tid] = array("d")
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's first span hangs off the span the main
                # thread is blocked in.
                main_stack = stacks.get(main)
                parent = main_stack[-1] if tid != main and main_stack else -1
            sid = next(ids)
            query = tracer.query
            if pre:
                tracer._count(pre, args, None, query)
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buffers[tid].extend((sid, index, parent, query, start, end))
            if post:
                tracer._count(post, args, result, query)
            if is_run and result in EXIT_COUNTERS:
                tracer._count([(EXIT_COUNTERS[result], lambda args, result: 1)],
                              args, result, query)
            return result

        return wrapper

    def _count(self, counters, args, result, query) -> None:
        for name, fn in counters:
            value = fn(args, result)
            with self._count_lock:
                self.counters[name, query] += value

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return sum(len(buf) for buf in self._buffers.values()) // _FIELDS

    def write_spans(self, fh) -> None:
        """All spans as float64 records of _FIELDS values, grouped by thread."""
        for buf in self._buffers.values():
            buf.tofile(fh)

    def aggregate(self, group_of_query) -> dict:
        """Per layer and group: calls and self time.

        Self time is a span's duration minus the time its children cover:
        the sum of their durations when they ran on the span's own thread,
        and the union of their intervals when pool threads ran them
        concurrently.
        """
        buffers = list(self._buffers.values())
        n = self.span_count
        owner = array("i", bytes(4 * n))  # index of the thread that recorded each span
        for thread, buf in enumerate(buffers):
            for sid in buf[0::_FIELDS]:
                owner[int(sid)] = thread
        covered = array("d", bytes(8 * n))
        concurrent: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for thread, buf in enumerate(buffers):
            for _, _, parent, _, start, end in _records(buf):
                if parent < 0:
                    continue
                if owner[int(parent)] == thread:
                    covered[int(parent)] += end - start
                else:
                    concurrent[int(parent)].append((start, end))
        calls: dict[tuple[str, str], int] = defaultdict(int)
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        for buf in buffers:
            for sid, index, _, query, start, end in _records(buf):
                sid = int(sid)
                busy = covered[sid] + _union_length(concurrent.get(sid, ()))
                key = (self._layers[int(index)], group_of_query(int(query)))
                calls[key] += 1
                self_s[key] += (end - start) - busy
        return {
            "spans": n,
            "calls": dict(calls),
            "self_s": dict(self_s),
        }


def _records(buf: array):
    return zip(*[iter(buf)] * _FIELDS)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# Per-layer metrics of BENCHMARK.json, all summed over the traced pass.
CALL_COUNTS = ["cli.run", "cli.semigroup_record", "core.minimal_generators", "core.gaps",
               "core.from_small_elements", "core.Submonoid", "irreducible.children",
               "maxavoid.pareto"]
SELF_TIMES = ["cli.run", "cli.semigroup_record", "cli.format_text", "cli.solution_record",
              "core.minimal_generators", "core.gaps", "core.from_small_elements",
              "core.Submonoid", "core.apery_vector", "core.semigroup_from_apery_vector",
              "irreducible.make_context", "irreducible.children",
              "irreducible.min_free_generator", "irreducible.tree_walk",
              "classes.trace_family", "classes.class_minimum", "classes.frobenius_class",
              "classes.merge", "maxavoid.join", "maxavoid.pareto", "frontier.solve"]
COUNTS = ["cli.exit_2", "cli.exit_3", "core.minimal_generators.computed", "irreducible.nodes",
          "classes.subsets_scanned", "classes.traces", "classes.members",
          "maxavoid.family_size", "maxavoid.pareto.in", "maxavoid.pareto.out",
          "frontier.solutions"]
RATIOS = {  # name: (numerator, denominator), each a counter or "<layer>.calls"
    "core.gaps.per_record": ("core.gaps.calls", "records"),
    "classes.trace_yield": ("classes.traces", "classes.subsets_scanned"),
    "maxavoid.pareto.keep_ratio": ("maxavoid.pareto.out", "maxavoid.pareto.in"),
}


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {f"{layer}.calls": "count" for layer in CALL_COUNTS}
    units.update({f"{layer}.self_s": "s" for layer in SELF_TIMES})
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({"trace.spans": "count", "trace.overhead_s": "s",
                  "trace.uncovered_share": "ratio"})
    return units


def layer_metrics(agg: dict, counters: dict[str, int], records: int, traced_wall: float) -> dict:
    """The per-layer metrics, except trace.overhead_s, which needs an untraced pass.

    A layer that never ran (or no longer exists) reads 0.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for (layer, _group), value in agg["calls"].items():
        calls[layer] += value
    for (layer, _group), value in agg["self_s"].items():
        self_s[layer] += value
    values: dict[str, float] = {}
    for layer in CALL_COUNTS:
        values[f"{layer}.calls"] = calls[layer]
    for layer in SELF_TIMES:
        values[f"{layer}.self_s"] = self_s[layer]
    for name in COUNTS:
        values[name] = counters.get(name, 0)
    base = dict(values, records=records)
    for name, (num, den) in RATIOS.items():
        values[name] = base[num] / base[den] if base[den] else 0.0
    values["trace.spans"] = agg["spans"]
    # Every span hangs off a cli.run span, so the time inside cli.run that
    # no child covers is the time no deeper layer accounts for.
    values["trace.uncovered_share"] = values["cli.run.self_s"] / traced_wall
    return values
