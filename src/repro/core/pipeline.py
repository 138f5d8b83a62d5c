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
dependence structure served from the cache — per operation a signature, a
cursor step, point tasks built from the recorded ones and the recorded
edges rebound.  A replay reads no epoch state, so what the served ops leave
in the epochs is folded *per run* of back-to-back replays, in
:meth:`settle`, before anything reads it.  A divergence never raises out
of :meth:`analyze`: the pipeline aborts the replay, evicts the stale
recording, and falls back to fresh analysis of the offending op
(``stats.trace_fallbacks`` counts these) — Legion's safe-fallback
semantics; the served prefix is settled op by op before that analysis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.events import (CAT_FINE, CAT_PIPELINE, CAT_TRACE, CONTROL_SHARD,
                          EV_FINE_POINTS, EV_OP_ANALYZE, EV_TRACE_REPLAY,
                          EV_TRACE_SETTLE)
from ..obs.profiler import Profiler, get_profiler
from .coarse import CoarseAnalysis, CoarseResult, Fence
from .epochs import entries_of
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
        # Records served by back-to-back replays of one recording (the
        # object ``_run_rec``) that :meth:`settle` has not folded yet.
        self._run: List[OpRecord] = []
        self._run_rec = None
        self._next_seq = 0

    @property
    def trace_cache(self) -> TraceCache:
        return self._traces

    # -- main entry --------------------------------------------------------------

    def analyze(self, op: Operation) -> OpRecord:
        """Analyze one operation; returns its record."""
        prof = self.profiler
        t_start = prof.now_us() if prof.enabled else 0.0
        op.seq = self._next_seq
        served = None
        traces = self._traces
        # Explicit traces are application-managed: the tracer stands down.
        auto = None if self._explicit_trace else self._auto
        signature = None
        if auto is not None or traces.active == TraceCache.REPLAYING:
            signature = _op_signature(op)
            if auto is not None:
                auto.step(traces, signature)
            try:
                served = traces.try_replay(op, signature)
            except TraceMismatch:
                # Safe fallback (Legion): abandon the replay, evict the
                # stale recording so the next occurrence re-records, and
                # analyze this op freshly.  The served prefix stays sound —
                # it is settled into the epochs before that analysis.
                if auto is not None:
                    auto.forget(traces.current_trace)
                traces.abort_replay(evict=True)
                self.stats.trace_fallbacks += 1
        if served is not None:
            record = self._integrate_replay(op, *served)
        else:
            if self._run:
                self.settle()
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

    def _integrate_replay(self, op: Operation, entry, tasks, edges, fences,
                          coarse_deps) -> OpRecord:
        """Join one replayed op's products to the global analysis results.

        Only *results* are produced here; the op's effect on the epoch
        state waits in ``_run`` for :meth:`settle`."""
        traces = self._traces
        rec = traces.recording
        if self._run and (rec is not self._run_rec or (
                traces.served == 1 and len(self._run) % len(rec.entries))):
            # A different recording, or a new fragment after a partial one:
            # what is waiting is not a prefix of this run.
            self.settle()
        self._run_rec = rec
        coarse, fine = self.coarse.result, self.fine.result
        # Replayed fences and deps still join the coarse result so the
        # fence-coverage invariant can be checked uniformly, and traced
        # point tasks join the global precise graph so the functional
        # execution sees a complete ordering.  Integration dedupes: a fence
        # already present (e.g. the recorded scope of the op carrying the
        # replay's global entry fence) is one physical all-gather, and the
        # record holds the fences actually inserted so ``stats.fences`` and
        # the simulator's collective charges count each fence exactly once
        # — identical to an untraced run.
        record = OpRecord(
            op=op, coarse_deps=coarse_deps,
            fences=[f for f in fences if coarse.fences.add(f)],
            point_tasks=tasks, coarse_scans=0, traced=True,
            # Replayed elisions are credited from the recording so the
            # tracing x elision ablation attributes them to every
            # iteration, and the skipped epoch scans surface as savings.
            fences_elided=entry.fences_elided,
            scans_saved=entry.coarse_scans + entry.fine_scans,
            in_edges=edges)
        self._run.append(record)
        self.stats.traced_ops += 1
        self.stats.fences_elided += record.fences_elided
        self.stats.scans_saved += record.scans_saved
        coarse.deps |= coarse_deps
        coarse.ops_analyzed += 1
        fine.graph.add_tasks(tasks)
        points = fine.points_per_shard
        for shard, n in entry.shard_points.items():
            points[shard] = points.get(shard, 0) + n
        fine.graph.add_deps(edges)
        for edge in edges:
            if edge[0].shard == edge[1].shard:
                fine.local_edges.add(edge)
            else:
                fine.cross_edges.add(edge)
        return record

    def settle(self) -> None:
        """Fold the waiting run of replays into both stages' epoch state.

        Operations issued after a trace must find the replayed writers and
        readers in the epochs.  An epoch entry's fate depends only on its
        own region and on the bounds retired after it, and every full
        fragment of a run retires the same bounds ``R``: of a fragment
        that another full one follows, exactly ``carry`` — its live-out
        less ``R`` — survives, whatever came before.  So the first two
        fragments a recording ever settles are folded op by op and the
        carry is read off the first; later ones enter their carry, and the
        last full fragment and any partial one (mismatch fallback,
        ``suspend``, short explicit replay) are folded op by op through
        ``register_replayed`` — the ``_update`` fresh analysis ends in,
        which retires ``R`` from everything entered before.
        """
        run, rec = self._run, self._run_rec
        if not run:
            return
        prof = self.profiler
        t_start = prof.now_us() if prof.enabled else 0.0
        self._run, self._run_rec = [], None
        n = len(rec.entries)
        full = len(run) // n
        first = 0 if rec.carry is not None else 2
        entered = 0
        for i in range(-(-len(run) // n)):
            frag = run[i * n:(i + 1) * n]
            if first <= i < full - 1:
                entered += self._enter_carry(rec.carry, frag)
                continue
            for r in frag:
                self.coarse.register_replayed(r.op)
                self.fine.register_replayed(r.op, r.point_tasks)
            if i == 1 and rec.carry is None and full >= 2:
                rec.carry = self._carry_of(run[:n])
        if prof.enabled:
            prof.complete(CONTROL_SHARD, CAT_TRACE, EV_TRACE_SETTLE, t_start,
                          prof.now_us() - t_start, fragments=full,
                          entries=entered, partial_ops=len(run) - full * n)
            prof.metrics.count("trace.settles")
            prof.metrics.count("trace.entries_folded", entered)

    def _carry_of(self, frag: List[OpRecord]) -> List[Tuple]:
        """What is left of ``frag`` in the epochs now that the fragment
        after it is folded too, as ``(field state, op offset, task index,
        requirement index, region)`` — positions any occurrence can be
        read through — in each epoch's insertion order.  The task index is
        None for the coarse stage, whose user is the op itself."""
        offsets = {id(r.op): i for i, r in enumerate(frag)}
        carry = []
        for stage in (self.coarse, self.fine):
            for state, op, user, req, region in entries_of(stage._state,
                                                           offsets):
                off = offsets[id(op)]
                if user is op:
                    where = None, op.coarse_reqs.index(req)
                else:
                    where = (frag[off].point_tasks.index(user),
                             user.requirements.index(req))
                carry.append((state, off, *where, region))
        return carry

    @staticmethod
    def _enter_carry(carry: List[Tuple], frag: List[OpRecord]) -> int:
        for state, off, index, k, region in carry:
            op = frag[off].op
            if index is None:
                user, req = op, op.coarse_reqs[k]
            else:
                user = frag[off].point_tasks[index]
                req = user.requirements[k]
            state.update(op, user, req, region, retire=False)
        return len(carry)

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
        self.settle()
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
        self.settle()

    # -- results -----------------------------------------------------------------

    @property
    def coarse_result(self) -> CoarseResult:
        return self.coarse.result

    @property
    def fine_result(self) -> FineResult:
        return self.fine.result

    def validate(self) -> None:
        """Check the fence-soundness invariant; raises on violation."""
        self.settle()
        bad = self.fine.uncovered_cross_edges(self.coarse.result)
        if bad:
            raise AssertionError(
                f"{len(bad)} cross-shard dependences not covered by any "
                f"fence; first: {bad[0]}")
