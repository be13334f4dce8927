"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of freebeta's modules from outside
the package: every call becomes a span (id, name, parent, start, end, work).
Spans are kept in one flat array while the workload runs and written out
once at the end; :func:`summarize` turns a saved trace into per-name call
counts, total and self time, and work counts.

Generator functions are not wrapped: their bodies run interleaved with the
consumer, so a span around them would not nest.  Their time lands in the
self time of the span that drives them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

# The layers of the program, named after its modules.
MODULES = ("cli", "verification", "ncl", "series", "transforms", "fock",
           "distributions", "analysis", "randmat")

# One span record is FIELDS doubles: id, name index, parent id (-1 for a
# top-level span), start, end, work.
FIELDS = 6


def _series_products(args, kwargs, result):
    """Coefficient products of a truncated series product."""
    n = min(args[0].order, args[1].order)
    return (n + 1) * (n + 2) // 2


def _series_quotient_products(args, kwargs, result):
    """Coefficient products of a truncated series quotient."""
    n = min(args[0].order, args[1].order)
    return n * (n + 1) // 2


def _partitions(args, kwargs, result):
    return len(result)


def _entries_sampled(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return cfg.p * (cfg.n1 + cfg.n2)


# Work counted per call, by span name.
WORK = {
    "ncl.enumerate_ncl": _partitions,
    "series.mul": _series_products,
    "series.div": _series_quotient_products,
    "randmat.sample_fisher_spectrum": _entries_sampled,
}

# Spans that also record the process CPU time (all threads) they consumed.
CPU_TIMED = {"randmat.median_ks"}

# Functions whose span name carries the value of one argument.
SPLIT_BY = {"ncl.gamma_series": "route"}

# Spans whose first argument is logged, to count distinct inputs.
ARG_LOGGED = {"ncl.enumerate_ncl"}


def public_functions(module):
    """(attribute, function) pairs a module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)):
            yield name, fn


class Recorder:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("d")
        self.cpu: list[tuple[int, float]] = []
        self.args: dict[str, list] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        local, main_stack = self._local, self._main_stack
        ids, record = self._ids, self.spans.extend
        clock, cpu_clock = time.perf_counter, time.process_time
        work = WORK.get(name)
        cpu_log = self.cpu if name in CPU_TIMED else None
        arg_log = self.args[name].append if name in ARG_LOGGED else None
        split = SPLIT_BY.get(name)
        if split is None:
            fixed_id = self.name_id(name)
        else:
            param = inspect.signature(fn).parameters[split]
            position = list(inspect.signature(fn).parameters).index(split)
            by_value: dict[object, int] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if split is None:
                nid = fixed_id
            else:
                value = kwargs.get(split, args[position]
                                   if len(args) > position else param.default)
                nid = by_value.get(value)
                if nid is None:
                    nid = by_value[value] = self.name_id(f"{name}.{value}")
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's work was caused by the main thread's
                # innermost open span.
                top = main_stack[-1:]
                parent = top[0] if top else -1
            sid = next(ids)
            stack.append(sid)
            if arg_log is not None:
                arg_log(args[0])
            c0 = cpu_clock() if cpu_log is not None else 0.0
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if cpu_log is not None:
                    cpu_log.append((sid, cpu_clock() - c0))
                w = (work(args, kwargs, result)
                     if work is not None and result is not None else 0)
                # a single extend call keeps a record whole across threads
                record((sid, nid, parent, t0, t1, w))

        return wrapper

    def _patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self, package) -> "Recorder":
        """Wrap every public function of the layers, wherever it is bound."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in MODULES}
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == package.__name__
                      or name.startswith(package.__name__ + ".")]
        for layer, module in modules.items():
            for attr, fn in public_functions(module):
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapped)
        series = modules["series"].PowerSeries
        self._patch(series, "__mul__", self.wrap("series.mul",
                                                 series.__mul__))
        self._patch(series, "__truediv__", self.wrap("series.div",
                                                     series.__truediv__))
        operator = modules["fock"].TruncatedFockOperator
        self._patch(operator, "apply", self.wrap("fock.apply",
                                                 operator.apply))
        # run_all iterates this table, so each criterion is wrapped there
        verification = modules["verification"]
        self._patch(verification, "CRITERIA", tuple(
            (name, self.wrap(f"verification.{name}", fn))
            for name, fn in verification.CRITERIA))
        return self

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def save(self, path, window: tuple[float, float]) -> None:
        """Write the spans and the timed window [start, end] to path (.npz)."""
        meta = {"names": self.names, "window": list(window),
                "args": {k: list(v) for k, v in self.args.items()}}
        np.savez(path,
                 spans=np.frombuffer(self.spans, dtype=float)
                 .reshape(-1, FIELDS),
                 cpu=np.array(self.cpu, dtype=float).reshape(-1, 2),
                 meta=np.array(json.dumps(meta)))


def load(path) -> dict:
    """Read a saved trace: span columns as arrays indexed by span id."""
    with np.load(path) as data:
        spans, cpu = data["spans"], data["cpu"]
        meta = json.loads(str(data["meta"]))
    spans = spans[np.argsort(spans[:, 0], kind="stable")]
    if not np.array_equal(spans[:, 0], np.arange(len(spans))):
        raise ValueError(f"{path}: span ids are not 0..n-1")
    return {"name": spans[:, 1].astype(np.int64),
            "parent": spans[:, 2].astype(np.int64),
            "start": spans[:, 3], "end": spans[:, 4],
            "work": spans[:, 5].astype(np.int64),
            "cpu": {int(sid): c for sid, c in cpu}, **meta}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(parent, start, end):
    """Self time per span: its duration minus what its children cover.

    The arrays are indexed by span id; ``parent`` is -1 for top-level
    spans.  Children on one thread nest and never overlap, so their
    durations add up.  Children that ran on pool threads may overlap each
    other; for their parents the union of the child intervals, clipped to
    the parent's interval, is subtracted instead.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start, end = np.asarray(start, float), np.asarray(end, float)
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    result = dur - np.bincount(p, weights=dur[child], minlength=len(dur))
    order = np.lexsort((start[child], p))
    p, cs, ce = p[order], start[child][order], end[child][order]
    loose = (cs < start[p]) | (ce > end[p])
    loose[1:] |= (p[1:] == p[:-1]) & (cs[1:] < ce[:-1])
    for sid in np.unique(p[loose]):
        mask = p == sid
        result[sid] = dur[sid] - covered(zip(cs[mask], ce[mask]),
                                         start[sid], end[sid])
    return result


def summarize(trace: dict) -> dict:
    """Per-name calls, total_s, self_s, work and cpu_s, plus coverage.

    ``coverage`` is the share of the timed window that top-level spans
    cover; the rest is harness code between calls into the program.
    """
    names, name = trace["names"], trace["name"]
    start, end = trace["start"], trace["end"]
    selfs = self_times(trace["parent"], start, end)
    cpu = np.zeros(len(start))
    for sid, c in trace["cpu"].items():
        cpu[sid] = c
    k = len(names)

    def per_name(weights=None):
        return np.bincount(name, weights=weights, minlength=k).tolist()

    columns = {"calls": per_name(), "total_s": per_name(end - start),
               "self_s": per_name(selfs), "work": per_name(trace["work"]),
               "cpu_s": per_name(cpu)}
    per = {n: {col: values[i] for col, values in columns.items()}
           for i, n in enumerate(names)}
    for entry in per.values():
        entry["calls"] = int(entry["calls"])
        entry["work"] = int(entry["work"])
    lo, hi = trace["window"]
    top = trace["parent"] < 0
    return {"names": per, "args": trace["args"], "window_s": hi - lo,
            "span_count": len(start),
            "coverage": covered(zip(start[top], end[top]), lo, hi)
            / (hi - lo)}
