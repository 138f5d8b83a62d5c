"""Span ledger: where one operation's wall time goes, measured from outside.

The harness may not edit ``src/`` (in-program spans are ROADMAP item 6), so
layers are timed by wrapping *public* callables of each module with a
recorder, and by reading the ``repro.obs.Profiler`` snapshots the program
already ships (``exec.point`` and ``determinism.check`` events, worker
profiles).  :data:`HOOKS` is the complete list of wrapped callables; the
README's hook list is generated from the same table by eye, keep them in
step.

A span is ``(name, start, end, op_id)`` on one thread (``perf_counter``
seconds).  Spans are kept in memory, nested after the run by time
containment per thread, and a layer's *self* time is its span time minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["Ledger", "HOOKS", "layer_of", "ROOT"]

#: Name of the per-operation root span the timed loop records.
ROOT = "op"

_ARRAY_OPS = [
    "__getitem__", "__setitem__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__neg__", "transpose", "broadcast_to", "copy", "abs", "exp", "log",
    "sqrt", "tanh", "sigmoid", "power", "clip", "maximum", "minimum",
    "greater", "greater_equal", "less", "less_equal", "equal", "not_equal",
    "where", "axpy", "sum", "max", "min", "mean", "norm", "dot", "matvec",
    "rmatvec", "matmat", "free",
]

_RESOURCE_CALLS = [
    "create_field_space", "create_index_space", "create_region",
    "partition_equal", "partition_tiles", "partition_ghost",
    "partition_rects", "delete_region", "delete_field",
]

#: (module, class, attributes, span name) — every wrapped public callable.
HOOKS: List[Tuple[str, str, List[str], str]] = [
    ("repro.legate.array", "LegateContext", ["from_values"],
     "legate.from_values"),
    ("repro.legate.array", "LegateContext", ["zeros", "full"],
     "legate.array_op"),
    ("repro.legate.array", "LegateArray", ["to_numpy"], "legate.to_numpy"),
    ("repro.legate.array", "LegateArray", _ARRAY_OPS, "legate.array_op"),
    ("repro.runtime.runtime", "Context", ["index_launch", "launch", "fill"],
     "runtime.launch"),
    ("repro.runtime.runtime", "Context", ["get_value"], "runtime.get_value"),
    ("repro.runtime.future", "FutureMap", ["reduce", "get_all"],
     "runtime.get_value"),
    ("repro.runtime.runtime", "Context", _RESOURCE_CALLS,
     "runtime.resource"),
    ("repro.core.pipeline", "DCRPipeline", ["analyze"], "core.analyze"),
    ("repro.core.pipeline", "DCRPipeline", ["validate"], "core.validate"),
    ("repro.core.coarse", "CoarseAnalysis", ["analyze", "register_replayed"],
     "core.coarse"),
    ("repro.core.fine", "FineAnalysis", ["analyze", "register_replayed"],
     "core.fine"),
    ("repro.core.tracing", "AutoTracer", ["step", "after_fresh"],
     "core.tracing"),
    ("repro.core.determinism", "ShardHasher", ["record"],
     "core.determinism.record"),
    ("repro.dist.collectives", "DistCollectives",
     ["allreduce", "allgather", "barrier", "broadcast", "reduce"],
     "dist.collectives"),
    ("repro.dist.transport", "Transport", ["send"], "dist.transport.send"),
    ("repro.dist.transport", "Transport", ["recv"], "dist.transport.recv"),
    ("repro.service.service", "Session", ["submit"], "service.submit"),
    ("repro.service.templates", "TemplateStore", ["lookup"],
     "service.template.lookup"),
    ("repro.service.templates", "TemplateStore", ["record"],
     "service.template.record"),
    ("repro.service.templates", "AnalysisTemplate", ["patch"],
     "service.template.patch"),
    ("repro.service.gang", "ServiceGang", ["run_job"],
     "service.gang.run_job"),
]

#: Profiler ``X`` events copied into the ledger as spans, by event name.
PROFILER_SPANS = {"exec.point": "runtime.exec_point",
                  "determinism.check": "core.determinism.check"}

#: Span-name prefix -> ledger layer, first match wins.
_LAYERS = [
    ("legate.", "legate"),
    ("runtime.exec_point", "kernel"),
    ("runtime.", "runtime"),
    ("core.determinism", "core.determinism"),
    ("core.", "core"),
    ("dist.transport", "dist.transport"),
    ("dist.collectives", "dist.collectives"),
    ("service.gang", "dist.runner"),
    ("service.", "service"),
]


def layer_of(name: str) -> str:
    for prefix, layer in _LAYERS:
        if name.startswith(prefix):
            return layer
    return "harness"


class Ledger:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[tuple]] = []
        self._extern: List[tuple] = []     # root + profiler spans, main thread
        self._spans()                     # the constructing thread is tid 0
        # Forked gang workers inherit the wrapped classes; their spans could
        # never be collected, so they stop recording (worker time comes from
        # their profiler snapshots instead).
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _spans(self) -> List[tuple]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            with self._lock:
                self._threads.append(spans)
        return spans

    # -- recording -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every callable in :data:`HOOKS` (idempotence not needed:
        one ledger per traced interpreter)."""
        for module, cls, attrs, name in HOOKS:
            owner = getattr(importlib.import_module(module), cls)
            for attr in attrs:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def _wrap(self, fn: Any, name: str) -> Any:
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                # Tuples of plain values drop out of the cyclic GC's lists,
                # so a long trace does not slow the collections it sits in.
                self._spans().append((name, t0, perf(), self.op_id))

        return wrapper

    def root(self, t0: float, t1: float) -> None:
        """The timed loop's span for operation ``op_id`` (main thread)."""
        self._extern.append((ROOT, t0, t1, self.op_id))

    def add_profile(self, events: Iterable[Tuple], origin: float) -> None:
        """Copy the driver's timed profiler events in as main-thread spans.

        ``origin`` is the ``perf_counter`` reading at the profiler's time
        zero, so both clocks line up.  Point tasks all execute on the
        driver whatever shard owns them; determinism checks are kept for
        the control pseudo-shard and rank 0 only, because other ranks'
        checks run on replica threads.
        """
        for ph, shard, _cat, name, ts, dur, _args in events:
            span = PROFILER_SPANS.get(name)
            if span is not None and ph == "X" and (
                    name == "exec.point" or shard <= 0):
                t0 = origin + ts * 1e-6
                self._extern.append((span, t0, t0 + dur * 1e-6, self.op_id))

    # -- analysis ------------------------------------------------------------

    def nested(self) -> List[list]:
        """Every finished span as ``[name, t0, t1, op_id, tid, parent]``.

        ``parent`` is the position in the returned list of the innermost
        span on the same thread that contains this one, or -1.
        """
        out: List[list] = []
        with self._lock:
            threads = list(self._threads)
        for tid, spans in enumerate(threads):
            spans = list(spans)
            if tid == 0:                  # the ledger's own (main) thread
                spans += self._extern
            spans.sort(key=lambda s: (s[1], -s[2]))
            stack: List[int] = []
            for name, t0, t1, op in spans:
                while stack and out[stack[-1]][2] <= t0:
                    stack.pop()
                out.append([name, t0, t1, op, tid,
                            stack[-1] if stack else -1])
                stack.append(len(out) - 1)
        return out

    def totals(self, ops: Iterable[int]) -> Dict[str, Dict[str, float]]:
        """Per span name over operations ``ops``: calls, calls by parent
        span name (``""`` at top level), inclusive and self seconds."""
        wanted = set(ops)
        nested = self.nested()
        child = [0.0] * len(nested)
        for _name, t0, t1, _op, _tid, parent in nested:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: Dict[str, Dict[str, float]] = {}
        for pos, (name, t0, t1, op, _tid, parent) in enumerate(nested):
            if op not in wanted:
                continue
            a = agg.setdefault(name, {"calls": 0, "parents": {},
                                      "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            above = nested[parent][0] if parent >= 0 else ""
            a["parents"][above] = a["parents"].get(above, 0) + 1
            a["total_s"] += t1 - t0
            a["self_s"] += max(0.0, (t1 - t0) - child[pos])
        return agg

    def starts(self, name: str, ops: Iterable[int]) -> Dict[int, float]:
        """First start time of span ``name`` per operation (any thread)."""
        wanted = set(ops)
        out: Dict[int, float] = {}
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            for n, t0, _t1, op in spans:
                if n == name and op in wanted and t0 < out.get(op, 1e300):
                    out[op] = t0
        return out

    def write(self, path: str) -> None:
        """Dump every span (name, layer, start, end, parent, op id, thread)."""
        rows = [[n, layer_of(n), t0, t1, parent, op, tid]
                for n, t0, t1, op, tid, parent in self.nested()]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"columns": ["name", "layer", "start_s", "end_s",
                                   "parent", "op", "thread"],
                       "spans": rows}, f)
