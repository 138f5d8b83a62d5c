"""Trace capture and replay: memoized dependence analysis.

Legion's dynamic tracing (Lee et al., "Dynamic Tracing: Memoization of Task
Graphs for Dynamic Task-based Runtimes", SC'18) lets the runtime skip the
dependence analysis for a repeated fragment of the operation stream — e.g.
the body of a time-step loop — by recording the analysis products on first
execution and replaying them on subsequent, *signature-identical*
executions.  Fig. 21 of the DCR paper evaluates the interaction of tracing
with the control-determinism checks; `repro.models.dcr` charges a much
smaller per-op cost for replayed operations.

Replay is sound under two conditions, both enforced here:

* the replayed stream must match the recording operation-for-operation
  (kind, launch domain, sharding/projection functions, partitions, fields,
  privileges) — checked via signatures, raising :class:`TraceMismatch`;
* dependences that leave the trace (into operations issued before it) are
  not recorded; instead the replay's first operation carries a *global
  entry fence* ordering everything prior — strictly conservative, exactly
  like Legion's trace preconditions.

Two usage modes over one mechanism:

* **explicit** — the application brackets the repeated fragment with
  ``begin_trace``/``end_trace`` (Legion's classic API);
* **automatic** — :class:`AutoTracer` watches the stream of operation
  signatures, identifies recurring fragments with a sliding-window matcher
  (:class:`TraceIdentifier`) and transparently replays subsequent
  occurrences — the approach of "Automatic Tracing in Task-Based Runtime
  Systems" (Yadav et al.) and "Execution Templates" (Mashayekhi et al.).

Either way a recording is cut from records the pipeline has *already
analysed* (:meth:`TraceCache.record` — at ``end_trace`` for an explicit
fragment, at the detector's hit for an automatic one) and served by one
cursor (:meth:`TraceCache.try_replay`).  A mid-replay divergence is
survivable: the pipeline aborts the replay via
:meth:`TraceCache.abort_replay`, evicts the stale recording, and falls back
to fresh analysis of the offending operation (Legion's behavior) — the
prefix already served remains sound because the pipeline folds it into the
epoch state (:meth:`DCRPipeline.settle`) before that operation is analysed.

A replay costs, per operation, one signature, one cursor step, the point
tasks built from the recorded ones (same point, shard and requirement
objects — the signature pins every field of them), each with its recorded
predecessors rebound by position.  What a *run* of replays leaves in the
epochs is folded once per run, by the pipeline.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import (Deque, Dict, Hashable, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from ..obs.events import (CAT_FAULT, CAT_TRACE, CONTROL_SHARD,
                          EV_FAULT_INJECT, EV_TRACE_FALLBACK,
                          EV_TRACE_RECORD, EV_TRACE_REPLAY)
from ..obs.profiler import Profiler, get_profiler
from .coarse import Fence
from .epochs import sorted_fids
from .operation import Operation, PointTask

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector

__all__ = ["TraceMismatch", "TraceCache", "AutoTraceConfig",
           "TraceIdentifier", "AutoTracer", "auto_replay_flags"]


class TraceMismatch(RuntimeError):
    """The replayed operation stream diverged from the recording."""


def _trace_label(trace_id: Hashable) -> str:
    """A short, stable display label for a trace id (auto ids are long)."""
    if isinstance(trace_id, tuple) and trace_id and trace_id[0] == "auto":
        return f"auto[{len(trace_id[1])} sigs]"
    return repr(trace_id)[:60]


def _requirement_signature(cr) -> Tuple:
    """What a coarse requirement contributes to its op's signature,
    computed once per (frozen) requirement object."""
    from ..regions import Partition

    sig = getattr(cr, "_signature", None)
    if sig is None:
        sig = (
            cr.upper.uid,
            isinstance(cr.upper, Partition),
            sorted_fids(cr),
            cr.privilege.kind.value,
            cr.privilege.redop,
            # None is a sentinel for "no projection function": it must not
            # collide with IDENTITY_PROJECTION, whose real pid is 0.
            cr.projection.pid if cr.projection is not None else None,
        )
        object.__setattr__(cr, "_signature", sig)
    return sig


def _op_signature(op: Operation) -> Tuple:
    reqs = []
    for cr in op.coarse_reqs:
        # the cached signature, read inline (a Context reuses requirements)
        sig = getattr(cr, "_signature", None)
        reqs.append(sig if sig is not None else _requirement_signature(cr))
    dom = op.launch_domain
    return (
        op.kind,
        dom,
        op.sharding.sid if op.sharding else None,
        op.owner_shard if dom is None else None,
        tuple(reqs),
    )


@dataclass
class _TraceEntry:
    """Recorded analysis products for one op of the trace, as templates."""

    signature: Tuple
    fence_scopes: List[Tuple[object, frozenset]] = field(default_factory=list)
    # Point templates: the recorded tasks' points, shards and (frozen)
    # requirements, which every occurrence's tasks share.
    points: Tuple = ()
    shards: Tuple[int, ...] = ()
    requirements: Tuple[Tuple, ...] = ()
    shard_points: Dict[int, int] = field(default_factory=dict)
    # Per recorded task, its predecessors inside the fragment as (source op
    # offset within trace, source task index) pairs, in ``preds`` order.
    task_preds: List[Tuple[Tuple[int, int], ...]] = field(
        default_factory=list)
    coarse_dep_offsets: List[int] = field(default_factory=list)
    # Cost-accounting templates: what the recorded analysis did, so replays
    # can credit the same elisions and report the work they saved.
    fences_elided: int = 0
    coarse_scans: int = 0
    fine_scans: int = 0


@dataclass
class _Recording:
    entries: List[_TraceEntry] = field(default_factory=list)
    # What one occurrence leaves in the epochs once the next occurrence has
    # been folded over it; the pipeline reads it off its first such fold.
    carry: Optional[List] = None


class TraceCache:
    """Per-pipeline store of trace recordings plus the one replay cursor."""

    IDLE, REPLAYING = "idle", "replaying"

    def __init__(self, profiler: Optional[Profiler] = None,
                 injector: Optional["FaultInjector"] = None) -> None:
        self.profiler = profiler if profiler is not None else get_profiler()
        self.injector = injector
        self._traces: Dict[Hashable, _Recording] = {}
        self.active = self.IDLE       # IDLE or REPLAYING; read-only outside
        self._tid: Optional[Hashable] = None
        self._rec: Optional[_Recording] = None
        self._index = 0
        self._replay_ops: List[Operation] = []
        self._replay_tasks: List[List[PointTask]] = []   # per served op
        self.replays = 0
        self.recordings = 0
        self.aborts = 0

    # -- control ------------------------------------------------------------------

    def begin(self, trace_id: Hashable) -> bool:
        """Start replaying ``trace_id``; False when nothing is recorded."""
        if self.active != self.IDLE:
            raise RuntimeError("traces do not nest")
        if trace_id not in self._traces:
            return False
        self.active = self.REPLAYING
        self._tid = trace_id
        self._rec = self._traces[trace_id]
        self._index = 0
        self._replay_ops = []
        self._replay_tasks = []
        self.replays += 1
        prof = self.profiler
        if prof.enabled:
            prof.instant(CONTROL_SHARD, CAT_TRACE, EV_TRACE_REPLAY,
                         trace=_trace_label(trace_id))
            prof.count("trace.replays")
        return True

    def _maybe_corrupt(self, trace_id: Hashable) -> None:
        """``trace_corrupt`` fault site: damage one entry of a recording.

        Mangles the stored signature of a deterministic victim entry, so
        the *next* replay of this trace hits a signature mismatch and takes
        the safe fallback path (abort + evict + fresh analysis) — the same
        machinery that guards against genuinely stale recordings.
        """
        inj = self.injector
        if inj is None or not inj.enabled:
            return
        rec = self._traces.get(trace_id)
        if rec is None:
            return
        victim = inj.corrupt_recording(self.recordings - 1, len(rec.entries))
        if victim is None:
            return
        entry = rec.entries[victim]
        entry.signature = ("__corrupted__",) + tuple(entry.signature)
        prof = self.profiler
        if prof.enabled:
            prof.instant(CONTROL_SHARD, CAT_FAULT, EV_FAULT_INJECT,
                         site="trace_corrupt", trace=_trace_label(trace_id),
                         entry=victim)
            prof.count("faults.trace_corruptions")

    def end(self) -> None:
        """Leave a replay; raises when it served fewer ops than recorded."""
        try:
            if self.active == self.REPLAYING \
                    and self._index != len(self._rec.entries):
                raise TraceMismatch(
                    f"trace {self._tid} replay ended after {self._index} "
                    f"of {len(self._rec.entries)} operations")
        finally:
            # Never leave the cache wedged in REPLAYING: even when the
            # mismatch is raised, the state resets so the caller can fall
            # back to fresh analysis.
            self.active = self.IDLE
            self._tid = self._rec = None
            self._index = 0

    def abort_replay(self, evict: bool = True) -> int:
        """Abandon an in-progress replay and reset to IDLE (safe fallback).

        The ops already served remain sound — the pipeline folds them into
        its epoch state before it analyses anything fresh — so abandoning
        mid-replay only means the *rest* of the fragment gets fresh
        analysis.  Returns the number of ops that were served.
        With ``evict`` the stale recording is dropped so the next occurrence
        re-records instead of diverging again.
        """
        if self.active != self.REPLAYING:
            return 0
        served = self._index
        tid = self._tid
        self.active = self.IDLE
        self._tid = self._rec = None
        self._index = 0
        self._replay_ops = []
        self._replay_tasks = []
        self.aborts += 1
        if evict:
            self._traces.pop(tid, None)
        prof = self.profiler
        if prof.enabled:
            prof.instant(CONTROL_SHARD, CAT_TRACE, EV_TRACE_FALLBACK,
                         trace=_trace_label(tid), served=served,
                         evicted=evict)
            prof.count("trace.fallbacks")
        return served

    def has_trace(self, trace_id: Hashable) -> bool:
        return trace_id in self._traces

    @property
    def current_trace(self) -> Optional[Hashable]:
        return self._tid

    @property
    def recording(self) -> Optional[_Recording]:
        """The recording being replayed (the object, which an evict plus
        re-record under the same trace id replaces)."""
        return self._rec

    @property
    def served(self) -> int:
        """How many ops the active replay has served."""
        return self._index

    @property
    def replay_done(self) -> bool:
        """True when an active replay has served every recorded op."""
        return self.active == self.REPLAYING \
            and self._index >= len(self._rec.entries)

    # -- recording ------------------------------------------------------------------

    def record(self, trace_id: Hashable, records: Sequence) -> None:
        """Build a recording from already-analyzed records.

        The pipeline keeps each fresh record's fences, coarse deps and
        point tasks with their ``preds``, so a fragment is turned into a
        trace *after the fact* — at ``end_trace`` or when the repeat
        detector fires — with no second warm-up execution.  The cost
        model's streams have no analysis products: it hands in
        signature-only entries, kept as is.
        """
        if self.active != self.IDLE:
            raise RuntimeError("cannot record while replaying")
        if records and isinstance(records[0], _TraceEntry):
            entries = list(records)
        else:
            offset_of = {id(r.op): i for i, r in enumerate(records)}
            index_of = {id(t): i for r in records
                        for i, t in enumerate(r.point_tasks)}
            entries = [self._entry_for(r, offset_of, index_of)
                       for r in records]
        self._traces[trace_id] = _Recording(entries)
        self.recordings += 1
        prof = self.profiler
        if prof.enabled:
            prof.instant(CONTROL_SHARD, CAT_TRACE, EV_TRACE_RECORD,
                         trace=_trace_label(trace_id), ops=len(records))
            prof.count("trace.recordings")
        self._maybe_corrupt(trace_id)

    @staticmethod
    def _entry_for(record, offset_of: Dict[int, int],
                   index_of: Dict[int, int]) -> _TraceEntry:
        entry = _TraceEntry(
            signature=_op_signature(record.op),
            points=tuple([t.point for t in record.point_tasks]),
            shards=tuple([t.shard for t in record.point_tasks]),
            requirements=tuple([t.requirements for t in record.point_tasks]),
            shard_points=Counter(t.shard for t in record.point_tasks),
            fences_elided=record.fences_elided,
            coarse_scans=record.coarse_scans,
            fine_scans=record.fine_scans)
        for f in record.fences:
            entry.fence_scopes.append((f.region, f.fields))
        op = record.op
        for task in record.point_tasks:
            preds = []
            for prev in task.preds:
                src = offset_of.get(id(prev.op))
                if src is None or prev.op is op:
                    continue  # external edge: covered by the entry fence
                preds.append((src, index_of[id(prev)]))
            entry.task_preds.append(tuple(preds))
        for (prev_op, _op) in record.coarse_deps:
            src = offset_of.get(id(prev_op))
            if src is not None:
                entry.coarse_dep_offsets.append(src)
        return entry

    # -- replay -------------------------------------------------------------------------

    def match(self, signature: Tuple) -> Optional[_TraceEntry]:
        """Advance the replay cursor over ``signature``; None when idle.

        Raises :class:`TraceMismatch` when the stream diverges; the caller
        is expected to recover via :meth:`abort_replay` and fresh analysis
        — no partial replay state survives a mismatch.
        """
        if self.active != self.REPLAYING:
            return None
        rec = self._rec
        if self._index >= len(rec.entries):
            raise TraceMismatch(
                f"trace {self._tid} replay received more operations than "
                f"were recorded ({len(rec.entries)})")
        entry = rec.entries[self._index]
        if entry.signature != signature:
            raise TraceMismatch(
                f"trace {self._tid} op #{self._index} does not match the "
                f"recording")
        self._index += 1
        return entry

    def try_replay(self, op: Operation, signature: Tuple):
        """Serve one op from the active replay, or return None.

        Returns ``(entry, point tasks, fences, coarse deps, recording,
        ops served)`` for this occurrence, each task's ``preds`` written
        from the recording; the caller builds its own record from them.  ``op.seq`` is already
        assigned; :meth:`match` may raise :class:`TraceMismatch`.
        """
        entry = self.match(signature)
        if entry is None:
            return None
        seq = op.seq
        ops, served = self._replay_ops, self._replay_tasks
        tasks = PointTask.launch(op, entry.points, entry.shards,
                                 entry.requirements)
        for task, preds in zip(tasks, entry.task_preds):
            if preds:
                found = []
                for off, i in preds:
                    found.append(served[off][i])
                task.preds = tuple(found)
        if not ops:
            # Global entry fence: orders everything before the trace.  It
            # subsumes any recorded scoped fence at this position (a global
            # fence at seq p covers strictly more cross edges than a scoped
            # one at p), so replaying the recorded scopes here would only
            # double-charge collectives the entry fence already performs.
            fences = [Fence(at_seq=seq, region=None, fields=frozenset())]
        else:
            fences = []
            for region, fields in entry.fence_scopes:
                fences.append(Fence(at_seq=seq, region=region, fields=fields))
        coarse_deps = set()
        for off in entry.coarse_dep_offsets:
            coarse_deps.add((ops[off], op))
        ops.append(op)
        served.append(tasks)
        return entry, tasks, fences, coarse_deps, self._rec, self._index


# ---------------------------------------------------------------------------
# Automatic trace identification
# ---------------------------------------------------------------------------

@dataclass
class AutoTraceConfig:
    """Knobs of the automatic trace identifier.

    ``min_length``/``max_length`` bound the fragment periods considered.
    """

    min_length: int = 2
    max_length: int = 64

    def __post_init__(self) -> None:
        if self.min_length < 1:
            raise ValueError("min_length must be >= 1")
        if self.max_length < self.min_length:
            raise ValueError("max_length must be >= min_length")


class TraceIdentifier:
    """Sliding-window repeat detector over a stream of signature ids.

    :meth:`push` returns the smallest period W for which the last 2W ids
    form two consecutive copies of one fragment — the signal that the
    stream has entered a repeating (time-step-loop) phase.  A period can
    only match when the id W back equals the new one, so one int compare
    filters the candidates and a slice compare confirms the survivors.
    """

    def __init__(self, config: Optional[AutoTraceConfig] = None) -> None:
        self.config = config or AutoTraceConfig()
        self._sids: List[int] = []

    def reset(self) -> None:
        self._sids = []

    def push(self, sid: int) -> Optional[int]:
        """Feed one signature id; returns the repeat period when found."""
        cfg = self.config
        sids = self._sids
        if len(sids) >= 4 * cfg.max_length:
            # Only the last 2 * max_length ids can witness a repeat.
            del sids[:-2 * cfg.max_length]
        sids.append(sid)
        n = len(sids)
        for w in range(cfg.min_length, min(cfg.max_length, n // 2) + 1):
            if sids[n - 1 - w] == sid \
                    and sids[n - w:] == sids[n - 2 * w:n - w]:
                return w
        return None


class AutoTracer:
    """Transparent record/replay without application annotations.

    The identify/record/replay *policy* over a :class:`TraceCache`: interns
    each op signature to a small int (a table this tracer owns, so it dies
    with its pipeline), feeds the ids of freshly analyzed ops to a
    :class:`TraceIdentifier`, cuts a recording from the fresh records it
    has been watching when a fragment repeats, and enters the replay of a
    known fragment when its first signature comes round again.  The caller
    owns the cursor step and the fallback (``cache.try_replay`` /
    ``cache.match`` under the one ``except TraceMismatch``).
    """

    def __init__(self, config: Optional[AutoTraceConfig] = None) -> None:
        self.config = config or AutoTraceConfig()
        self._ident = TraceIdentifier(self.config)
        self._sids: Dict[Tuple, int] = {}
        # First-signature-of-fragment -> trace id, for replay entry probes.
        self._heads: Dict[int, Hashable] = {}
        # (sid, record) of the fresh ops analyzed back to back since the
        # last replay, fence or fallback — what a fragment may be cut from.
        self._run: Deque[Tuple[int, object]] = deque(
            maxlen=self.config.max_length)

    def _reset(self) -> None:
        self._ident.reset()
        self._run.clear()

    def step(self, cache: TraceCache, signature: Tuple) -> None:
        """Called before an op is analyzed: finish a fully served replay
        and, when idle, enter the recording this signature heads."""
        if cache.replay_done:
            cache.end()     # one full fragment served; ready for the next
        if cache.active == TraceCache.IDLE:
            tid = self._heads.get(self._sids.get(signature))
            if tid is not None and cache.has_trace(tid):
                cache.begin(tid)
                self._run.clear()

    def after_fresh(self, cache: TraceCache, signature: Tuple,
                    record) -> bool:
        """Called after a fresh op was analyzed; True when it completed a
        fragment that was not recorded before."""
        sid = self._sids.setdefault(signature, len(self._sids))
        self._run.append((sid, record))
        w = self._ident.push(sid)
        if w is None or w > len(self._run):
            # No repeat — or its last occurrence straddles a replay, so it
            # is not one contiguous piece of fresh analysis.
            return False
        frag = list(self._run)[-w:]
        sids = tuple(s for s, _ in frag)
        tid: Hashable = ("auto", sids)
        new = not cache.has_trace(tid)
        if new:
            cache.record(tid, [r for _, r in frag])
        self._heads[sids[0]] = tid
        self._reset()
        return new

    def suspend(self, cache: TraceCache) -> None:
        """Stand down: finish or abandon any active auto replay.

        Called when an explicit trace begins or an out-of-band ordering
        event (execution fence) occurs.  A partial replay is abandoned
        *without* eviction — the served prefix is sound and the recording
        itself is not stale.
        """
        if cache.active == TraceCache.REPLAYING:
            if cache.replay_done:
                cache.end()
            else:
                cache.abort_replay(evict=False)
        self._reset()

    def forget(self, tid: Optional[Hashable]) -> None:
        """The replay of ``tid`` diverged and was evicted: stop probing for
        it and start watching afresh."""
        for head, known in list(self._heads.items()):
            if known == tid:
                del self._heads[head]
        self._reset()


def auto_replay_flags(signatures: Sequence[Tuple],
                      config: Optional[AutoTraceConfig] = None) -> List[bool]:
    """Which positions of a signature stream an AutoTracer would replay.

    Drives the same :class:`AutoTracer` and :class:`TraceCache` the
    pipeline does, with signature-only entries for records — used by the
    performance model (`repro.models.dcr`) to derive trace-replay charges
    for a simulated program with **zero** application annotations: a
    fragment is identified after two consecutive occurrences and replayed
    while the stream keeps matching; divergence evicts and resumes watching.
    """
    # A private, disabled profiler: a simulated stream is not a runtime event.
    cache, tracer = TraceCache(profiler=Profiler()), AutoTracer(config)
    flags: List[bool] = []
    for sig in signatures:
        tracer.step(cache, sig)
        try:
            replayed = cache.match(sig) is not None
        except TraceMismatch:
            replayed = False
            tracer.forget(cache.current_trace)
            cache.abort_replay(evict=True)
        if not replayed:
            tracer.after_fresh(cache, sig, _TraceEntry(signature=sig))
        flags.append(replayed)
    return flags
