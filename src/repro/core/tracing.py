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

Two usage modes:

* **explicit** — the application brackets the repeated fragment with
  ``begin_trace``/``end_trace`` (Legion's classic API);
* **automatic** — :class:`AutoTracer` watches the stream of hash-consed
  operation signatures, identifies recurring fragments with a
  sliding-window/rolling-hash matcher (:class:`TraceIdentifier`), records
  them *retroactively* from the pipeline's already-computed records, and
  transparently replays subsequent occurrences — the approach of
  "Automatic Tracing in Task-Based Runtime Systems" (Yadav et al.) and
  "Execution Templates" (Mashayekhi et al.).

In both modes a mid-replay divergence is survivable: the pipeline aborts
the replay via :meth:`TraceCache.abort_replay`, evicts the stale recording,
and falls back to fresh analysis of the offending operation (Legion's
behavior) — the prefix already served remains sound because each replayed
op's products were folded into the epoch state as it was served.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Hashable, List, Optional, Sequence, Set, Tuple,
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
    from .pipeline import DCRPipeline, OpRecord

__all__ = ["TraceMismatch", "TraceCache", "AutoTraceConfig",
           "TraceIdentifier", "AutoTracer", "auto_replay_flags",
           "intern_signature", "rolling_hash"]


class TraceMismatch(RuntimeError):
    """The replayed operation stream diverged from the recording."""


def _trace_label(trace_id: Hashable) -> str:
    """A short, stable display label for a trace id (auto ids are long)."""
    if isinstance(trace_id, tuple) and trace_id and trace_id[0] == "auto":
        return f"auto[{len(trace_id[1])} sigs]"
    return repr(trace_id)[:60]


def _op_signature(op: Operation) -> Tuple:
    from ..regions import Partition

    reqs = tuple(
        (
            cr.upper.uid,
            isinstance(cr.upper, Partition),
            sorted_fids(cr),
            cr.privilege.kind.value,
            cr.privilege.redop,
            # None is a sentinel for "no projection function": it must not
            # collide with IDENTITY_PROJECTION, whose real pid is 0.
            cr.projection.pid if cr.projection is not None else None,
        )
        for cr in op.coarse_reqs
    )
    return (
        op.kind,
        op.launch_domain,
        op.sharding.sid if op.sharding else None,
        op.owner_shard if not op.is_group else None,
        reqs,
    )


# Hash-consing of signatures: the repeat detector compares small ints, not
# structured tuples, so a window comparison is O(W) integer equality.
_sig_intern: Dict[Tuple, int] = {}

#: Polynomial rolling-hash parameters shared by the incremental prefix
#: hashes :class:`TraceIdentifier` maintains and the one-shot
#: :func:`rolling_hash` fold (template keys must agree with the detector).
_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 1_000_003


def intern_signature(sig: Tuple) -> int:
    """Map a structured signature to a small stable int (hash-consing)."""
    sid = _sig_intern.get(sig)
    if sid is None:
        sid = len(_sig_intern)
        _sig_intern[sig] = sid
    return sid


def rolling_hash(sids: Sequence[int]) -> int:
    """The auto-tracer's polynomial hash of a signature-id stream, one-shot.

    Exactly the fold :class:`TraceIdentifier` maintains incrementally over
    its window (same base and modulus), exposed as a pure function so other
    identification machinery — notably the service's analysis-template keys
    (*Execution Templates*, Mashayekhi et al.) — keys program shapes with
    the identical hash the repeat detector computes.
    """
    acc = 0
    for s in sids:
        acc = (acc * _HASH_BASE + s + 1) % _HASH_MOD
    return acc


@dataclass
class _TraceEntry:
    """Recorded analysis products for one op of the trace, as templates."""

    signature: Tuple
    fence_scopes: List[Tuple[object, frozenset]] = field(default_factory=list)
    # (source op offset within trace, source point, destination point)
    internal_edges: List[Tuple[int, Hashable, Hashable]] = field(default_factory=list)
    coarse_dep_offsets: List[int] = field(default_factory=list)
    # Cost-accounting templates: what the recorded analysis did, so replays
    # can credit the same elisions and report the work they saved.
    fences_elided: int = 0
    coarse_scans: int = 0
    fine_scans: int = 0


@dataclass
class _Recording:
    entries: List[_TraceEntry] = field(default_factory=list)


class TraceCache:
    """Per-pipeline store of trace recordings with record/replay state."""

    IDLE, RECORDING, REPLAYING = "idle", "recording", "replaying"

    def __init__(self, profiler: Optional[Profiler] = None,
                 injector: Optional["FaultInjector"] = None) -> None:
        self.profiler = profiler if profiler is not None else get_profiler()
        self.injector = injector
        self._traces: Dict[Hashable, _Recording] = {}
        self._state = self.IDLE
        self._tid: Optional[Hashable] = None
        self._index = 0
        self._rec_ops: List[Operation] = []
        self._rec_tasks: Dict[Tuple[int, Hashable], PointTask] = {}
        self._replay_ops: List[Operation] = []
        self._replay_tasks: Dict[Tuple[int, Hashable], PointTask] = {}
        self._replay_edges: Dict[int, List[Tuple[PointTask, PointTask]]] = {}
        self.replays = 0
        self.recordings = 0
        self.aborts = 0

    # -- control ------------------------------------------------------------------

    def begin(self, trace_id: Hashable) -> bool:
        """Enter record or replay mode; True when a replay will be served."""
        if self._state != self.IDLE:
            raise RuntimeError("traces do not nest")
        self._tid = trace_id
        self._index = 0
        prof = self.profiler
        if trace_id in self._traces:
            self._state = self.REPLAYING
            self._replay_ops = []
            self._replay_tasks = {}
            self._replay_edges = {}
            self.replays += 1
            if prof.enabled:
                prof.instant(CONTROL_SHARD, CAT_TRACE, EV_TRACE_REPLAY,
                             trace=_trace_label(trace_id))
                prof.count("trace.replays")
            return True
        self._state = self.RECORDING
        self._traces[trace_id] = _Recording()
        self._rec_ops = []
        self._rec_tasks = {}
        self.recordings += 1
        if prof.enabled:
            prof.count("trace.recordings")
        return False

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
        prof = self.profiler
        if prof.enabled and self._state == self.RECORDING:
            prof.instant(CONTROL_SHARD, CAT_TRACE, EV_TRACE_RECORD,
                         trace=_trace_label(self._tid), ops=self._index)
        if self._state == self.RECORDING:
            self._maybe_corrupt(self._tid)
        try:
            if self._state == self.REPLAYING:
                rec = self._traces[self._tid]  # type: ignore[index]
                if self._index != len(rec.entries):
                    raise TraceMismatch(
                        f"trace {self._tid} replay ended after {self._index} "
                        f"of {len(rec.entries)} operations")
        finally:
            # Never leave the cache wedged in REPLAYING: even when the
            # mismatch is raised, the state resets so the caller can fall
            # back to fresh analysis.
            self._state = self.IDLE
            self._tid = None
            self._index = 0

    def abort_replay(self, evict: bool = True) -> int:
        """Abandon an in-progress replay and reset to IDLE (safe fallback).

        The ops already served remain sound — their analysis products were
        folded into the pipeline's epoch state as they were replayed — so
        abandoning mid-replay only means the *rest* of the fragment gets
        fresh analysis.  Returns the number of ops that were served.
        With ``evict`` the stale recording is dropped so the next occurrence
        re-records instead of diverging again.
        """
        if self._state != self.REPLAYING:
            return 0
        served = self._index
        tid = self._tid
        self._state = self.IDLE
        self._tid = None
        self._index = 0
        self._replay_ops = []
        self._replay_tasks = {}
        self._replay_edges = {}
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

    def evict(self, trace_id: Hashable) -> None:
        self._traces.pop(trace_id, None)

    def has_trace(self, trace_id: Hashable) -> bool:
        return trace_id in self._traces

    @property
    def active(self) -> str:
        return self._state

    @property
    def current_trace(self) -> Optional[Hashable]:
        return self._tid

    @property
    def replay_done(self) -> bool:
        """True when an active replay has served every recorded op."""
        if self._state != self.REPLAYING:
            return False
        rec = self._traces[self._tid]  # type: ignore[index]
        return self._index >= len(rec.entries)

    # -- recording ------------------------------------------------------------------

    def observe(self, record) -> None:
        """Called by the pipeline for every freshly analyzed op record."""
        if self._state != self.RECORDING:
            return
        entry = self._entry_for(record,
                                {id(o): i for i, o in enumerate(self._rec_ops)})
        self._traces[self._tid].entries.append(entry)  # type: ignore[index]
        for t in record.point_tasks:
            self._rec_tasks[(len(self._rec_ops), t.point)] = t
        self._rec_ops.append(record.op)
        self._index += 1

    def record_retroactive(self, trace_id: Hashable,
                           records: Sequence["OpRecord"]) -> None:
        """Build a recording from already-analyzed records (auto-tracing).

        The pipeline keeps each fresh record's fences, coarse deps and
        precise in-edges, so an identified fragment can be turned into a
        trace *after the fact* — no second warm-up execution needed.
        """
        if self._state != self.IDLE:
            raise RuntimeError("cannot record retroactively while tracing")
        offset_of = {id(r.op): i for i, r in enumerate(records)}
        rec = _Recording()
        for r in records:
            rec.entries.append(self._entry_for(r, offset_of))
        self._traces[trace_id] = rec
        self.recordings += 1
        prof = self.profiler
        if prof.enabled:
            prof.instant(CONTROL_SHARD, CAT_TRACE, EV_TRACE_RECORD,
                         trace=_trace_label(trace_id), ops=len(rec.entries),
                         retroactive=True)
            prof.count("trace.recordings")
        self._maybe_corrupt(trace_id)

    @staticmethod
    def _entry_for(record, offset_of: Dict[int, int]) -> _TraceEntry:
        entry = _TraceEntry(
            signature=_op_signature(record.op),
            fences_elided=getattr(record, "fences_elided", 0),
            coarse_scans=record.coarse_scans,
            fine_scans=getattr(record, "fine_scans", 0))
        for f in record.fences:
            entry.fence_scopes.append((f.region, f.fields))
        dests: Set[PointTask] = set(record.point_tasks)
        for prev, nxt in record.in_edges:
            if nxt not in dests:
                continue
            src = offset_of.get(id(prev.op))
            if src is None or prev.op is record.op:
                continue  # external edge: covered by the replay entry fence
            entry.internal_edges.append((src, prev.point, nxt.point))
        for (prev_op, _op) in record.coarse_deps:
            src = offset_of.get(id(prev_op))
            if src is not None:
                entry.coarse_dep_offsets.append(src)
        return entry

    # -- replay -------------------------------------------------------------------------

    def try_replay(self, op: Operation, seq: int, num_shards: int):
        """Serve one op from the active replay, or return None.

        Raises :class:`TraceMismatch` when the stream diverges; the caller
        (the pipeline) is expected to recover via :meth:`abort_replay` and
        fresh analysis — no partial replay state survives a mismatch.
        """
        if self._state != self.REPLAYING:
            return None
        from .pipeline import OpRecord  # local import avoids a cycle

        rec = self._traces[self._tid]  # type: ignore[index]
        if self._index >= len(rec.entries):
            raise TraceMismatch(
                f"trace {self._tid} replay received more operations than "
                f"were recorded ({len(rec.entries)})")
        entry = rec.entries[self._index]
        if entry.signature != _op_signature(op):
            raise TraceMismatch(
                f"trace {self._tid} op #{self._index} signature mismatch: "
                f"{op.name} does not match the recording")
        op.seq = seq
        point_tasks = [
            PointTask(op, p, op.shard_of(p, num_shards)) for p in op.points()]
        offset = len(self._replay_ops)
        for t in point_tasks:
            self._replay_tasks[(offset, t.point)] = t
        fences: List[Fence] = []
        if offset == 0:
            # Global entry fence: orders everything before the trace.  It
            # subsumes any recorded scoped fence at this position (a global
            # fence at seq p covers strictly more cross edges than a scoped
            # one at p), so replaying the recorded scopes here would only
            # double-charge collectives the entry fence already performs.
            fences.append(Fence(at_seq=seq, region=None,
                                fields=frozenset()))
        else:
            for scope_region, scope_fields in entry.fence_scopes:
                fences.append(Fence(at_seq=seq, region=scope_region,
                                    fields=scope_fields))
        edges: List[Tuple[PointTask, PointTask]] = []
        by_point = {t.point: t for t in point_tasks}
        for src_off, src_point, dst_point in entry.internal_edges:
            src = self._replay_tasks.get((src_off, src_point))
            dst = by_point.get(dst_point)
            if src is not None and dst is not None:
                edges.append((src, dst))
        coarse_deps = {
            (self._replay_ops[off], op) for off in entry.coarse_dep_offsets
            if off < len(self._replay_ops)
        }
        self._replay_ops.append(op)
        record = OpRecord(
            op=op, coarse_deps=coarse_deps, fences=fences,
            point_tasks=point_tasks, coarse_scans=0, traced=True,
            fences_elided=entry.fences_elided,
            scans_saved=entry.coarse_scans + entry.fine_scans)
        self._replay_edges[id(record)] = edges
        self._index += 1
        return record

    def internal_edges_for(self, record) -> List[Tuple[PointTask, PointTask]]:
        return self._replay_edges.get(id(record), [])


# ---------------------------------------------------------------------------
# Automatic trace identification
# ---------------------------------------------------------------------------

@dataclass
class AutoTraceConfig:
    """Knobs of the automatic trace identifier.

    ``min_length``/``max_length`` bound the fragment periods considered;
    ``history`` caps how many signatures the detector retains (it is
    clamped to at least ``2 * max_length`` so a full double occurrence of
    the longest fragment always fits).
    """

    min_length: int = 2
    max_length: int = 64
    history: int = 256

    def __post_init__(self) -> None:
        if self.min_length < 1:
            raise ValueError("min_length must be >= 1")
        if self.max_length < self.min_length:
            raise ValueError("max_length must be >= min_length")
        self.history = max(self.history, 2 * self.max_length)


class TraceIdentifier:
    """Sliding-window repeat detector over an interned signature stream.

    Maintains polynomial rolling (prefix) hashes of the recent signature
    ids so that "do the last W entries equal the W before them?" is an O(1)
    hash probe per candidate period W, confirmed by a direct comparison on
    a hash hit.  :meth:`push` returns the smallest period W for which the
    last 2W entries form two consecutive copies of one fragment — the
    signal that the stream has entered a repeating (time-step-loop) phase.
    """

    _MOD = _HASH_MOD
    _BASE = _HASH_BASE

    def __init__(self, config: Optional[AutoTraceConfig] = None) -> None:
        self.config = config or AutoTraceConfig()
        self._sids: List[int] = []
        self._prefix: List[int] = [0]
        self._pows: List[int] = [1]

    def reset(self) -> None:
        self._sids = []
        self._prefix = [0]

    def _window_hash(self, i: int, j: int) -> int:
        """Rolling hash of sids[i:j] in O(1)."""
        while len(self._pows) < len(self._prefix):
            self._pows.append(self._pows[-1] * self._BASE % self._MOD)
        return (self._prefix[j]
                - self._prefix[i] * self._pows[j - i]) % self._MOD

    def push(self, sid: int) -> Optional[int]:
        """Feed one signature id; returns the repeat period when found."""
        cfg = self.config
        if len(self._sids) >= cfg.history:
            # Keep the most recent window that can still witness a repeat
            # of the longest fragment; rebuild the prefix hashes.
            keep = 2 * cfg.max_length
            self._sids = self._sids[-keep:]
            self._prefix = [0]
            for s in self._sids:
                self._prefix.append(
                    (self._prefix[-1] * self._BASE + s + 1) % self._MOD)
        self._sids.append(sid)
        self._prefix.append(
            (self._prefix[-1] * self._BASE + sid + 1) % self._MOD)
        n = len(self._sids)
        for w in range(cfg.min_length, cfg.max_length + 1):
            if 2 * w > n:
                break
            if (self._window_hash(n - w, n) == self._window_hash(n - 2 * w,
                                                                 n - w)
                    and self._sids[n - w:] == self._sids[n - 2 * w:n - w]):
                return w
        return None


class AutoTracer:
    """Transparent record/replay without application annotations.

    Watches the hash-consed signature stream of freshly analyzed ops,
    identifies repeated fragments via :class:`TraceIdentifier`, records the
    fragment retroactively from the pipeline's existing records, and serves
    subsequent occurrences from the :class:`TraceCache` — falling back to
    fresh analysis on any divergence.
    """

    def __init__(self, config: Optional[AutoTraceConfig] = None) -> None:
        self.config = config or AutoTraceConfig()
        self._ident = TraceIdentifier(self.config)
        # First-signature-of-fragment -> trace id, for replay entry probes.
        self._heads: Dict[int, Hashable] = {}
        self.identified = 0
        self.fallbacks = 0

    # -- pipeline hooks -----------------------------------------------------------

    def step(self, pipe: "DCRPipeline", op: Operation):
        """Called before fresh analysis of ``op``; may serve a replay."""
        cache = pipe._traces
        if cache.active == TraceCache.REPLAYING and cache.replay_done:
            cache.end()     # one full fragment served; ready for the next
        sig = _op_signature(op)
        sid = intern_signature(sig)
        if cache.active == TraceCache.IDLE:
            tid = self._heads.get(sid)
            if tid is not None and cache.has_trace(tid):
                cache.begin(tid)
        if cache.active != TraceCache.REPLAYING:
            return None
        try:
            return cache.try_replay(op, op.seq, pipe.num_shards)
        except TraceMismatch:
            # Safe fallback (Legion): abandon the replay, evict the stale
            # recording, analyze the offending op freshly.  The served
            # prefix stays sound — its products are already in the epochs.
            tid = cache.current_trace
            cache.abort_replay(evict=True)
            self._forget(tid)
            self._ident.reset()
            self.fallbacks += 1
            pipe.stats.trace_fallbacks += 1
            return None

    def after_fresh(self, pipe: "DCRPipeline", record: "OpRecord") -> None:
        """Called after a fresh op was analyzed and appended to records."""
        if pipe._traces.active != TraceCache.IDLE:
            # An explicit trace is recording: stand down so auto fragments
            # never overlap application-managed traces.
            self._ident.reset()
            return
        sid = intern_signature(_op_signature(record.op))
        w = self._ident.push(sid)
        if w is None:
            return
        frag = pipe.records[-w:]
        if len(frag) < w or any(r.traced for r in frag):
            return
        # Fragments must be contiguous in program order: an out-of-band
        # event (e.g. an execution fence) between two ops leaves a seq gap
        # the replay templates could not reproduce.
        if any(b.op.seq != a.op.seq + 1 for a, b in zip(frag, frag[1:])):
            self._ident.reset()
            return
        sids = tuple(intern_signature(_op_signature(r.op)) for r in frag)
        tid: Hashable = ("auto", sids)
        if not pipe._traces.has_trace(tid):
            pipe._traces.record_retroactive(tid, frag)
            self.identified += 1
            pipe.stats.auto_traces += 1
        self._heads[sids[0]] = tid
        self._ident.reset()

    def suspend(self, pipe: "DCRPipeline") -> None:
        """Stand down: finish or abandon any active auto replay.

        Called when an explicit trace begins or an out-of-band ordering
        event (execution fence) occurs.  A partial replay is abandoned
        *without* eviction — the served prefix is sound and the recording
        itself is not stale.
        """
        cache = pipe._traces
        if cache.active == TraceCache.REPLAYING:
            if cache.replay_done:
                cache.end()
            else:
                cache.abort_replay(evict=False)
        self._ident.reset()

    def _forget(self, tid: Optional[Hashable]) -> None:
        for head, known in list(self._heads.items()):
            if known == tid:
                del self._heads[head]


def auto_replay_flags(signatures: Sequence[Tuple],
                      config: Optional[AutoTraceConfig] = None) -> List[bool]:
    """Which positions of a signature stream an AutoTracer would replay.

    A pure (stateless-in, stateless-out) driver of the identify/record/
    replay state machine over a complete signature stream — used by the
    performance model (`repro.models.dcr`) to derive trace-replay charges
    for a simulated program with **zero** application annotations, matching
    the functional :class:`AutoTracer` policy: a fragment is identified
    after two consecutive occurrences, recorded retroactively, and replayed
    while the stream keeps matching; divergence evicts and resumes watching.
    """
    cfg = config or AutoTraceConfig()
    sids = [intern_signature(s) for s in signatures]
    n = len(sids)
    flags = [False] * n
    ident = TraceIdentifier(cfg)
    heads: Dict[int, Tuple[int, ...]] = {}
    replay: Optional[Tuple[Tuple[int, ...], int]] = None
    i = 0
    while i < n:
        sid = sids[i]
        if replay is not None:
            frag, pos = replay
            if sid == frag[pos]:
                flags[i] = True
                pos += 1
                replay = (frag, pos) if pos < len(frag) else None
                i += 1
                continue
            # Mid-replay divergence: evict and fall back to watching.
            heads = {h: f for h, f in heads.items() if f is not frag}
            ident = TraceIdentifier(cfg)
            replay = None
        frag = heads.get(sid)
        if frag is not None:
            replay = (frag, 0)
            continue    # reprocess this op as the replay head
        w = ident.push(sid)
        if w is not None and i + 1 >= 2 * w:
            fragment = tuple(sids[i - w + 1:i + 1])
            heads[fragment[0]] = fragment
            ident = TraceIdentifier(cfg)
        i += 1
    return flags
