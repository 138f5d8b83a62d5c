"""The two-stage DCR analysis pipeline (paper §4.1, Fig. 9).

``DCRPipeline`` wires the coarse and fine stages together over a stream of
operations in program order, producing per-operation :class:`OpRecord`
entries that carry everything downstream consumers need:

* the functional products — point tasks and the precise dependence edges
  used to order real execution;
* the cost-accounting products — coarse scan counts (charged to every
  shard), per-shard fine-point counts, and the cross-shard fences (charged
  as O(log N) collectives) — consumed by the machine simulator.

Both stages operate asynchronously in the real system; the simulator models
that pipelining (`repro.models.dcr`), while this class computes the
*results* the stages would produce, which are deterministic regardless of
interleaving (that is Theorem 1's content, tested in
``tests/core/test_semantics_equivalence.py``).

Tracing memoizes the analysis of a repeated program fragment (Lee et al.,
SC'18, used by Fig. 21) in two modes:

* **explicit** — the application brackets the fragment with
  ``begin_trace``/``end_trace``; the first execution is analyzed fresh and
  its records become the recording at ``end_trace``;
* **automatic** (``auto_trace=True``) — an :class:`~repro.core.tracing.
  AutoTracer` identifies repeated fragments from the signature stream
  itself and records them the same way, with zero application annotations.

Both modes replay through the one cursor step in :meth:`analyze`: the op's
signature is computed once, checked against the recording, and the
dependence structure served from the cache at O(1) cost per operation.  A
divergence never raises out of :meth:`analyze`: the pipeline aborts the
replay, evicts the stale recording, and falls back to fresh analysis of
the offending op (``stats.trace_fallbacks`` counts these) — Legion's
safe-fallback semantics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.events import (CAT_FINE, CAT_PIPELINE, CAT_TRACE, CONTROL_SHARD,
                          EV_FINE_POINTS, EV_OP_ANALYZE, EV_TRACE_REPLAY)
from ..obs.profiler import Profiler, get_profiler
from .coarse import CoarseAnalysis, CoarseResult, Fence
from .fine import FineAnalysis, FineResult
from .operation import Operation, PointTask
from .tracing import AutoTracer, TraceCache, TraceMismatch, _op_signature

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector

__all__ = ["OpRecord", "PipelineStats", "DCRPipeline", "analysis_digest",
           "fence_sequence"]


def fence_sequence(coarse_result) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """The fence stream as canonical, serializable keys.

    One ``(at_seq, region_key, field_keys)`` triple per fence, in insertion
    order (``region_key`` is -1 for a global fence).  Resource identity is
    *interned* — scoped regions and fields are numbered by first appearance
    in the fence stream rather than by their process-global ``uid``/``fid``
    counters — so two analyses of the same program in different processes
    (or a second analysis in the same process, whose counters have moved
    on) produce equal sequences iff their fence structures match.  This is
    what the multiprocess conformance tier compares across backends,
    element for element.
    """
    regions: Dict[int, int] = {}
    fields: Dict[int, int] = {}
    out: List[Tuple[int, int, Tuple[int, ...]]] = []
    for f in coarse_result.fences:
        if f.region is None:
            key = -1
        else:
            key = regions.setdefault(f.region.uid, len(regions))
        # Sorting by raw fid first = creation order, which every replica
        # shares, so the interned numbering is process-independent.
        fkeys = [fields.setdefault(fl.fid, len(fields))
                 for fl in sorted(f.fields, key=lambda fl: fl.fid)]
        out.append((f.at_seq, key, tuple(sorted(fkeys))))
    return out


def analysis_digest(coarse_result, fine_result) -> str:
    """Canonical content hash of a (coarse, fine) analysis product pair.

    Identical digests mean identical dependences, fence sequences,
    counters, point graphs, and per-shard attributions.  This is both the
    equivalence the differential tests assert between the indexed and
    naive analyses and the cross-backend/cross-process "task-graph digest"
    the multiprocess backend's conformance tier compares (operational
    Theorem 1: every shard, in every process, derives the same products).
    """
    def task_key(t):
        return (t.op.seq, repr(t.point), t.shard)

    h = hashlib.sha256()

    def emit(tag, value):
        h.update(repr((tag, value)).encode())

    emit("deps", sorted((a.seq, b.seq) for a, b in coarse_result.deps))
    emit("fences", fence_sequence(coarse_result))
    emit("elided", coarse_result.fences_elided)
    emit("scanned", coarse_result.users_scanned)
    emit("tasks", sorted(task_key(t) for t in fine_result.graph.tasks))
    emit("edges", sorted((task_key(a), task_key(b))
                         for a, b in fine_result.graph.deps))
    emit("local", sorted((task_key(a), task_key(b))
                         for a, b in fine_result.local_edges))
    emit("cross", sorted((task_key(a), task_key(b))
                         for a, b in fine_result.cross_edges))
    emit("points", sorted(fine_result.points_per_shard.items()))
    emit("scans", sorted(fine_result.scans_per_shard.items()))
    return h.hexdigest()


@dataclass
class OpRecord:
    """Analysis products for one operation."""

    op: Operation
    coarse_deps: Set[Tuple[Operation, Operation]]
    fences: List[Fence]
    point_tasks: List[PointTask]
    coarse_scans: int            # upper-bound pair tests for this op
    traced: bool = False         # served from a trace replay
    # Cross-shard fences this op's coarse analysis elided (or, on a replay,
    # the elisions the recording performed — credited so traced iterations
    # report the same elision effectiveness as fresh ones).
    fences_elided: int = 0
    # Point-level epoch scans the fine stage performed for this op.
    fine_scans: int = 0
    # For replays: epoch scans (coarse + fine) the recording performed that
    # this replay skipped — the memoization win, surfaced in reports.
    scans_saved: int = 0
    # Precise in-edges of this op's point tasks: captured for every fresh op
    # so a recording can be cut from it later; on a replay, the recording's
    # intra-fragment edges rebound to this occurrence's tasks.
    in_edges: List[Tuple[PointTask, PointTask]] = field(default_factory=list)

    def points_on_shard(self, shard: int) -> List[PointTask]:
        return [t for t in self.point_tasks if t.shard == shard]


@dataclass
class PipelineStats:
    ops: int = 0
    traced_ops: int = 0
    fences: int = 0
    fences_elided: int = 0
    coarse_scans: int = 0
    points: int = 0
    trace_fallbacks: int = 0     # replays abandoned on divergence
    scans_saved: int = 0         # epoch scans skipped thanks to replays
    auto_traces: int = 0         # distinct fragments auto-identified


class DCRPipeline:
    """Program-order driver for the coarse and fine analysis stages."""

    def __init__(self, num_shards: int, auto_trace: bool = False,
                 profiler: Optional[Profiler] = None,
                 injector: Optional["FaultInjector"] = None):
        self.num_shards = num_shards
        # The profiler is a no-op singleton when disabled: every hot-path
        # emission below sits behind one `prof.enabled` attribute check and
        # never influences any analysis decision (the zero-perturbation
        # contract, tests/obs/test_zero_perturbation.py).  The injector
        # follows the same discipline (None by default, `enabled` gates).
        self.profiler = profiler if profiler is not None else get_profiler()
        self.injector = injector
        self.coarse = CoarseAnalysis(num_shards, profiler=self.profiler)
        self.fine = FineAnalysis(num_shards, profiler=self.profiler)
        self.records: List[OpRecord] = []
        self.stats = PipelineStats()
        self._traces = TraceCache(profiler=self.profiler, injector=injector)
        self._auto: Optional[AutoTracer] = (
            AutoTracer() if auto_trace else None)
        self._explicit_trace = False
        # (trace id, index of its first record) while an explicit trace
        # with no recording yet is being analyzed fresh.
        self._recording: Optional[Tuple[object, int]] = None
        self._next_seq = 0

    @property
    def trace_cache(self) -> TraceCache:
        return self._traces

    @property
    def auto_tracer(self) -> Optional[AutoTracer]:
        return self._auto

    # -- main entry --------------------------------------------------------------

    def analyze(self, op: Operation) -> OpRecord:
        """Analyze one operation; returns its record."""
        prof = self.profiler
        t_start = prof.now_us() if prof.enabled else 0.0
        op.seq = self._next_seq
        record: Optional[OpRecord] = None
        traces = self._traces
        # Explicit traces are application-managed: the tracer stands down.
        auto = None if self._explicit_trace else self._auto
        signature = None
        if auto is not None or traces.active == TraceCache.REPLAYING:
            signature = _op_signature(op)
            if auto is not None:
                auto.step(traces, signature)
            try:
                record = traces.try_replay(op, signature, self.num_shards)
            except TraceMismatch:
                # Safe fallback (Legion): abandon the replay, evict the
                # stale recording so the next occurrence re-records, and
                # analyze this op freshly.  The served prefix stays sound —
                # its products are already in the epochs.
                if auto is not None:
                    auto.forget(traces.current_trace)
                traces.abort_replay(evict=True)
                self.stats.trace_fallbacks += 1
        if record is not None:
            self._integrate_replay(record)
        else:
            record = self._analyze_fresh(op)
        self._next_seq = op.seq + 1
        self.records.append(record)
        self.stats.ops += 1
        self.stats.fences += len(record.fences)
        self.stats.coarse_scans += record.coarse_scans
        self.stats.points += len(record.point_tasks)
        if auto is not None and not record.traced \
                and auto.after_fresh(traces, signature, record):
            self.stats.auto_traces += 1
        if prof.enabled:
            self._profile_op(record, t_start)
        return record

    def _profile_op(self, record: OpRecord, t_start: float) -> None:
        """Timeline/metrics emission for one analyzed op (profiling only)."""
        prof = self.profiler
        dur = prof.now_us() - t_start
        name = record.op.name or record.op.kind
        prof.complete(CONTROL_SHARD,
                      CAT_TRACE if record.traced else CAT_PIPELINE,
                      EV_TRACE_REPLAY if record.traced else EV_OP_ANALYZE,
                      t_start, dur, op=name, seq=record.op.seq,
                      points=len(record.point_tasks),
                      fences=len(record.fences))
        m = prof.metrics
        m.count("pipeline.ops")
        m.count("pipeline.points", len(record.point_tasks))
        if record.traced:
            m.count("pipeline.traced_ops")
            m.count("pipeline.scans_saved", record.scans_saved)

    def _analyze_fresh(self, op: Operation) -> OpRecord:
        prof = self.profiler
        profiling = prof.enabled
        if profiling:
            shard_scans_before = dict(self.fine.result.scans_per_shard)
            t_fine = 0.0
        scans_before = self.coarse.result.users_scanned
        elided_before = self.coarse.result.fences_elided
        fine_scans_before = sum(self.fine.result.scans_per_shard.values())
        deps, fences = self.coarse.analyze(op)
        if profiling:
            t_fine = prof.now_us()
        point_tasks = self.fine.analyze(op)
        record = OpRecord(
            op=op,
            coarse_deps=deps,
            fences=fences,
            point_tasks=point_tasks,
            coarse_scans=self.coarse.result.users_scanned - scans_before,
            fences_elided=self.coarse.result.fences_elided - elided_before,
            fine_scans=(sum(self.fine.result.scans_per_shard.values())
                        - fine_scans_before),
        )
        record.in_edges = list(self.fine.last_op_edges)
        self.stats.fences_elided += record.fences_elided
        if profiling:
            self._profile_fine_shares(record, shard_scans_before, t_fine)
        return record

    def _profile_fine_shares(self, record: OpRecord,
                             before: Dict[int, int], t_fine: float) -> None:
        """Attribute the fine stage's measured time to shards by their
        epoch-scan share — the per-shard cost the simulator charges —
        falling back to an even split over point owners when no scans ran."""
        prof = self.profiler
        dur = prof.now_us() - t_fine
        after = self.fine.result.scans_per_shard
        deltas = {s: after.get(s, 0) - before.get(s, 0) for s in after
                  if after.get(s, 0) != before.get(s, 0)}
        owners: Dict[int, int] = {}
        for t in record.point_tasks:
            owners[t.shard] = owners.get(t.shard, 0) + 1
        weights = deltas or {s: float(n) for s, n in owners.items()}
        total = sum(weights.values())
        name = record.op.name or record.op.kind
        for shard, w in sorted(weights.items()):
            share = dur * w / total if total else 0.0
            prof.complete(shard, CAT_FINE, EV_FINE_POINTS, t_fine, share,
                          op=name, scans=deltas.get(shard, 0),
                          points=owners.get(shard, 0))
            prof.metrics.count(f"fine.scans.shard{shard}",
                               deltas.get(shard, 0))
        prof.metrics.count("fine.ops")

    def _integrate_replay(self, record: OpRecord) -> None:
        """Fold a trace-replayed record into the global analysis results."""
        self.stats.traced_ops += 1
        # Replayed elisions are credited from the recording so the
        # tracing x elision ablation attributes them to every iteration,
        # and the skipped epoch scans are surfaced as savings.
        self.stats.fences_elided += record.fences_elided
        self.stats.scans_saved += record.scans_saved
        # Replayed fences and deps still join the coarse result so the
        # fence-coverage invariant can be checked uniformly, and traced
        # point tasks join the global precise graph so the functional
        # execution sees a complete ordering.  Integration dedupes: a fence
        # already present (e.g. the recorded scope of the op carrying the
        # replay's global entry fence) is one physical all-gather, and the
        # record is rebound to the fences actually inserted so
        # ``stats.fences`` and the simulator's collective charges count
        # each fence exactly once — identical to an untraced run.
        record.fences = [f for f in record.fences
                         if self.coarse.result.fences.add(f)]
        self.coarse.result.deps |= record.coarse_deps
        # Fold the replay into both stages' epoch state so operations
        # issued *after* the trace see the replayed work (without this,
        # post-trace launches silently miss dependences on it).
        self.coarse.register_replayed(record.op)
        self.fine.register_replayed(record.op, record.point_tasks)
        self.fine.result.graph.add_tasks(record.point_tasks)
        for t in record.point_tasks:
            self.fine.result.points_per_shard[t.shard] = \
                self.fine.result.points_per_shard.get(t.shard, 0) + 1
        for prev, nxt in record.in_edges:
            self.fine.result.graph.add_dep(prev, nxt)
            if prev.shard == nxt.shard:
                self.fine.result.local_edges.add((prev, nxt))
            else:
                self.fine.result.cross_edges.add((prev, nxt))

    def run_program(self, ops: Sequence[Operation]) -> List[OpRecord]:
        return [self.analyze(op) for op in ops]

    # -- tracing -----------------------------------------------------------------

    def begin_trace(self, trace_id: int) -> bool:
        """Start a trace; returns True when a replay is available."""
        if self._recording is not None:
            raise RuntimeError("traces do not nest")
        if self._auto is not None:
            self._auto.suspend(self._traces)
        self._explicit_trace = True
        if self._traces.begin(trace_id):
            return True
        # Nothing recorded yet: the fragment is analyzed fresh and its
        # records become the recording at end_trace.
        self._recording = (trace_id, len(self.records))
        return False

    def end_trace(self) -> None:
        self._explicit_trace = False
        traces = self._traces
        if self._recording is not None:
            trace_id, start = self._recording
            self._recording = None
            traces.record(trace_id, self.records[start:])
        elif traces.active == TraceCache.REPLAYING \
                and not traces.replay_done:
            # Short replay: the program left the trace early.  The served
            # prefix is sound; evict the stale recording and move on
            # instead of raising through the application (safe fallback).
            traces.abort_replay(evict=True)
            self.stats.trace_fallbacks += 1
        else:
            traces.end()

    def note_external_fence(self) -> None:
        """An out-of-band ordering event (e.g. an execution fence) occupies
        a program-order slot without flowing through :meth:`analyze`: any
        automatic replay stands down and the repeat detector forgets its
        history so no identified fragment ever spans the event."""
        if self._auto is not None:
            self._auto.suspend(self._traces)

    # -- results -----------------------------------------------------------------

    @property
    def coarse_result(self) -> CoarseResult:
        return self.coarse.result

    @property
    def fine_result(self) -> FineResult:
        return self.fine.result

    def validate(self) -> None:
        """Check the fence-soundness invariant; raises on violation."""
        bad = self.fine.uncovered_cross_edges(self.coarse.result)
        if bad:
            raise AssertionError(
                f"{len(bad)} cross-shard dependences not covered by any "
                f"fence; first: {bad[0]}")
