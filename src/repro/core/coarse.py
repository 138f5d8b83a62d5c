"""Coarse-stage dependence analysis (paper §4.1, Fig. 9 top).

Every shard runs this stage over **all** operations, in program order.  The
stage discovers dependences at *task-group granularity* without enumerating
group points: each group is represented by its region-tree upper bound (the
partition named in the launch), and a field-epoch state machine per
(region tree, field) finds the prior operations a new one conflicts with.
Its cost is therefore independent of machine size — the property that makes
DCR scale.

For each discovered group-level dependence the stage decides whether a
*cross-shard fence* is needed (``requires_shard_fence`` in Fig. 9):

* trivially elided when only one shard exists, or when both operations are
  individual operations owned by the same shard (fine stages analyze their
  local stream in program order);
* **symbolically elided** for the common data-parallel case: two group
  launches over the same launch domain with the same sharding function where
  every conflicting requirement pair names the *same disjoint partition*
  through the *same projection function* — then every point-level dependence
  is provably shard-local (§4.1 observation 2);
* otherwise a fence scoped to the conflicting region and fields is inserted
  at the later operation's position, implemented at run time as a no-payload
  all-gather (§4.2).

Scaling notes.  Program order here is append-only, so every order question
is answered from plain integers:

* the :class:`FenceStore` projects fences onto *channels* — one global
  channel plus one per (scope region, field) — each a :class:`SeqStamps`
  holding a **dense rank array indexed by ``op.seq``**.  ``covers`` is one
  rank comparison per channel the query can touch, independent of how many
  fences exist;
* the field-epoch state machine is the shared index of
  :mod:`repro.core.epochs`, instantiated here with the coarse class key
  ``(privilege, bound-region uid)`` and the decision ``privileges conflict
  and bounds may alias``.  Matches come back per bucket and are merged by
  the epoch's insertion counter, so dependence pairs appear in exactly the
  order the naive scan would have produced them (the fence scope starts
  from ``pairs[0]``, so order is observable).

The indexed implementation is *observationally identical* to the naive
per-entry scan — same dependences in the same order, same fences, same
``users_scanned`` counts — a property pinned by the differential tests
(tests/core/test_indexed_equivalence.py against the reference
implementations in tests/helpers.py).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs.events import (CAT_COARSE, CONTROL_SHARD, EV_COARSE_GROUP,
                          EV_FENCE_ELIDE, EV_FENCE_INSERT)
from ..obs.profiler import Profiler, get_profiler
from ..regions import (LogicalRegion, Partition, cached_may_alias,
                       cached_region_contains)
from .epochs import ClassTable, FieldState, sorted_fids
from .operation import CoarseRequirement, Operation

__all__ = ["Fence", "SeqStamps", "FenceStore", "CoarseResult",
           "CoarseAnalysis"]


@dataclass(frozen=True)
class Fence:
    """A scoped cross-shard fence inserted before operation ``at_seq``.

    Orders the fine-stage analysis of all prior operations touching
    ``region``/``fields`` (on every shard) before any later one.  A fence
    with ``region is None`` is a *global* analysis fence covering every
    region tree (used as the entry precondition of trace replays, and as
    the sound scope when one dependence spans multiple region trees).
    """

    at_seq: int
    region: Optional[LogicalRegion]
    fields: frozenset


class SeqStamps:
    """Dense fence ranks over program positions for one channel.

    A *channel* is one reason a fence might order two program points (the
    global channel, or one (scope-region, field) pair).  ``note(at_seq)``
    records a fence position; ``fine_at(seq)`` returns the rank — how many
    channel positions are at or before ``seq``.  A fence separates
    ``earlier`` from ``later`` on this channel iff ``fine_at(later) >
    fine_at(earlier)``: one comparison, independent of how many fences
    exist (the flat-scaling property the fence-population benchmark sweep
    guards).

    Ranks are stored in a dense array indexed by ``seq`` and extended
    lazily toward the largest queried position, so both inserts (which in
    analysis order arrive with non-decreasing ``at_seq``) and queries are
    amortized O(1).  An out-of-order insert (constructor-style bulk loads,
    replay rebinding in adversarial tests) truncates the stale suffix and
    rebuilds it on the next query.
    """

    __slots__ = ("_positions", "_ranks")

    def __init__(self) -> None:
        self._positions: List[int] = []        # sorted fence at_seqs
        self._ranks: List[int] = []            # _ranks[s] = rank at seq s

    def note(self, at_seq: int) -> None:
        """Record a fence at ``at_seq``.  Monotone appends are O(1); an
        out-of-order insert pays a bisect plus a suffix truncation."""
        if at_seq < 0:
            raise ValueError("fence positions are non-negative sequences")
        pos = self._positions
        if not pos or at_seq >= pos[-1]:
            pos.append(at_seq)
        else:
            pos.insert(bisect_right(pos, at_seq), at_seq)
        if at_seq < len(self._ranks):
            del self._ranks[at_seq:]

    def fine_at(self, seq: int) -> int:
        """Rank of the latest channel position at or before ``seq``.  O(1)
        once the dense array covers ``seq``; extending it is amortized
        O(1) per program position."""
        if seq < 0:
            return 0
        ranks = self._ranks
        if seq < len(ranks):
            return ranks[seq]
        self._extend(seq)
        return self._ranks[seq]

    def covers(self, earlier_seq: int, later_seq: int) -> bool:
        """Any channel position in ``(earlier_seq, later_seq]``?  Two
        O(1) rank lookups (:meth:`fine_at`, read inline) and one
        comparison."""
        ranks = self._ranks
        top = later_seq if later_seq > earlier_seq else earlier_seq
        if top >= len(ranks):
            self._extend(top)
        later = ranks[later_seq] if later_seq >= 0 else 0
        return later > (ranks[earlier_seq] if earlier_seq >= 0 else 0)

    def _extend(self, seq: int) -> None:
        pos = self._positions
        ranks = self._ranks
        start = len(ranks)
        i = bisect_right(pos, start - 1) if start else 0
        npos = len(pos)
        for s in range(start, seq + 1):
            while i < npos and pos[i] <= s:
                i += 1
            ranks.append(i)

    def __len__(self) -> int:
        return len(self._positions)

    def positions(self) -> List[int]:
        return list(self._positions)

    def check_invariants(self) -> None:
        """Positions sorted; rank array consistent with them."""
        pos = self._positions
        assert all(a <= b for a, b in zip(pos, pos[1:])), \
            "channel positions out of order"
        for s, r in enumerate(self._ranks):
            assert r == bisect_right(pos, s), f"stale rank at seq {s}"


class _Channel:
    """One scoped fence channel: all fences sharing a scope region,
    projected per field onto rank stamps."""

    __slots__ = ("uid", "region", "by_fid")

    def __init__(self, region: LogicalRegion) -> None:
        self.uid = region.uid
        self.region = region
        self.by_fid: Dict[int, SeqStamps] = {}


class FenceStore:
    """Deduplicated, insertion-ordered fence set with O(1) order queries.

    Presents the ``List[Fence]`` API the rest of the system grew up with
    (``append``/``extend``/``clear``/iteration/``len``/``==`` against
    lists), while maintaining:

    * a set for O(1) dedupe and membership (``add`` returns whether the
      fence was new — the pipeline's replay integration relies on this);
    * **channels** with dense rank stamps: one global channel plus one per
      (scope region, field id).  A fence registers its position on the
      channels it can order; ``covers`` compares two ranks per reachable
      channel instead of walking or bisecting the fence list, so its cost
      is flat in the number of fences (the fence-population scaling sweep
      in benchmarks/bench_headline.py guards exactly this).

    Soundness of the index: a fence is immutable and its position never
    changes, so insertion-time channel registration is final — which is
    also why trace-replay rebinding via :meth:`add` needs no fix-up.
    """

    __slots__ = ("_fences", "_set", "_global", "_scoped", "_alias_memo")

    def __init__(self, fences: Sequence[Fence] = ()) -> None:
        self._fences: List[Fence] = []
        self._set: Set[Fence] = set()
        self._global = SeqStamps()
        self._scoped: Dict[int, Dict[int, _Channel]] = {}  # tree -> uid -> ch
        self._alias_memo: Dict[Tuple[int, int], bool] = {}
        for f in fences:
            self.add(f)

    # -- mutation -----------------------------------------------------------------

    def add(self, fence: Fence) -> bool:
        """Insert unless an identical fence exists; True when inserted.

        Analysis inserts fences in program order (an O(1) append on each
        channel); out-of-order inserts — bulk loads, tests — are absorbed
        by the channels' suffix truncation.
        """
        if fence in self._set:
            return False
        self._set.add(fence)
        self._fences.append(fence)
        region = fence.region
        if region is None:
            self._global.note(fence.at_seq)
        else:
            chans = self._scoped.setdefault(region.tree_id, {})
            chan = chans.get(region.uid)
            if chan is None:
                chan = _Channel(region)
                chans[region.uid] = chan
            by_fid = chan.by_fid
            for fl in fence.fields:
                ss = by_fid.get(fl.fid)
                if ss is None:
                    ss = SeqStamps()
                    by_fid[fl.fid] = ss
                ss.note(fence.at_seq)
        return True

    def append(self, fence: Fence) -> None:
        self.add(fence)

    def extend(self, fences: Sequence[Fence]) -> None:
        for f in fences:
            self.add(f)

    def clear(self) -> None:
        self._fences.clear()
        self._set.clear()
        self._global = SeqStamps()
        self._scoped.clear()
        self._alias_memo.clear()

    # -- queries ------------------------------------------------------------------

    def covers(self, earlier_seq: int, later_seq: int,
               region: LogicalRegion, fields: frozenset) -> bool:
        """Any fence in (earlier_seq, later_seq] whose scope orders the
        given data?  :meth:`covers_fids` over the fields' sorted ids."""
        return self.covers_fids(earlier_seq, later_seq, region,
                                sorted([fl.fid for fl in fields]))

    def covers_fids(self, earlier_seq: int, later_seq: int,
                    region: LogicalRegion, fids: Sequence[int]) -> bool:
        """:meth:`covers` for the fields whose ids are ``fids``, in
        ascending order.  One rank comparison on the global channel, then
        one per (aliasing scope, query field) channel — O(1) per probe and
        flat in the total fence population.  The fields are probed in fid
        order, so the probes (and the rank arrays they extend) depend on
        the program alone, not on how a set of fields happens to iterate.

        Equivalent to the naive walk: a fence covers the edge iff it is
        global, or some field in ``f.fields & fields`` exists and
        ``may_alias(f.region, region)`` — i.e. iff the fence registered a
        position on a channel this query can reach.
        """
        if self._global.covers(earlier_seq, later_seq):
            return True
        chans = self._scoped.get(region.tree_id)
        if not chans:
            return False
        memo = self._alias_memo
        ruid = region.uid
        for chan in chans.values():
            mkey = (chan.uid, ruid)
            hit = memo.get(mkey)
            if hit is None:
                hit = cached_may_alias(chan.region, region)
                memo[mkey] = hit
            if not hit:
                continue
            by_fid = chan.by_fid
            for fid in fids:
                ss = by_fid.get(fid)
                if ss is not None and ss.covers(earlier_seq, later_seq):
                    return True
        return False

    def positions(self) -> List[int]:
        return sorted({f.at_seq for f in self._fences})

    def check_invariants(self) -> None:
        """Channel consistency (test hook)."""
        self._global.check_invariants()
        for chans in self._scoped.values():
            for chan in chans.values():
                for ss in chan.by_fid.values():
                    ss.check_invariants()

    # -- list-compatible protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Fence]:
        return iter(self._fences)

    def __len__(self) -> int:
        return len(self._fences)

    def __bool__(self) -> bool:
        return bool(self._fences)

    def __contains__(self, fence: object) -> bool:
        return fence in self._set

    def __getitem__(self, index):
        return self._fences[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FenceStore):
            return self._fences == other._fences
        if isinstance(other, (list, tuple)):
            return self._fences == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover
        return f"FenceStore({self._fences!r})"


@dataclass
class CoarseResult:
    """Everything the coarse stage produced for one program."""

    deps: Set[Tuple[Operation, Operation]] = field(default_factory=set)
    fences: FenceStore = field(default_factory=FenceStore)
    fences_elided: int = 0
    users_scanned: int = 0          # pairwise upper-bound tests performed
    ops_analyzed: int = 0

    def fence_positions(self) -> List[int]:
        return sorted({f.at_seq for f in self.fences})

    def covers_cross_edge(self, earlier_seq: int, later_seq: int,
                          region: LogicalRegion, fields: frozenset) -> bool:
        """Is a cross-shard point dependence (earlier -> later) on the given
        data ordered by some fence?  A fence at position p orders all fine
        analysis of ops with seq < p before ops with seq >= p for data
        aliasing its scope (each shard's fine stage runs in program order and
        the fence is a global all-gather at position p).
        """
        return self.fences.covers(earlier_seq, later_seq, region, fields)


def _class_key(req: CoarseRequirement, bound: LogicalRegion) -> Tuple:
    return (req.privilege, bound.uid)


def _classes_conflict(breq: CoarseRequirement, bbound: LogicalRegion,
                      qreq: CoarseRequirement, qbound: LogicalRegion) -> bool:
    return breq.privilege.conflicts_with(qreq.privilege) \
        and cached_may_alias(bbound, qbound)


class CoarseAnalysis:
    """Incremental coarse-stage analysis (one instance per DCR context).

    ``analyze(op)`` assigns the op its program-order ``seq`` and returns the
    newly discovered dependences and fences.  The same object on every shard
    would compute the same result; we run it once and charge its cost to all
    shards in the simulator.
    """

    def __init__(self, num_shards: int,
                 profiler: Optional[Profiler] = None):
        self.num_shards = num_shards
        self.profiler = profiler if profiler is not None else get_profiler()
        self.result = CoarseResult()
        # A coarse scan's per-bucket decision depends only on (privilege,
        # bound region) of both sides: that pair is the requirement class.
        self._classes = ClassTable("_coarse_cid", _class_key,
                                   _classes_conflict)
        self._state: Dict[Tuple[int, int], FieldState] = {}

    # -- entry point -----------------------------------------------------------

    def analyze(self, op: Operation) -> Tuple[Set[Tuple[Operation, Operation]],
                                              List[Fence]]:
        if op.seq < 0:
            raise ValueError("pipeline must assign op.seq before analysis")
        prof = self.profiler
        profiling = prof.enabled
        if profiling:
            t0 = prof.now_us()
            scans0 = self.result.users_scanned
            elided0 = self.result.fences_elided
        self.result.ops_analyzed += 1

        dep_ops: Dict[Operation, List[Tuple[CoarseRequirement,
                                            CoarseRequirement]]] = {}
        launch = self._launch(op)
        for req, bound, lcid in launch:
            for fid in sorted_fids(req):
                state = self._state.get((bound.tree_id, fid))
                if state is not None:
                    self._scan(op, req, lcid, state, dep_ops)
        self._update(op, launch)

        new_deps: Set[Tuple[Operation, Operation]] = set()
        new_fences: List[Fence] = []
        for prev, pairs in dep_ops.items():
            new_deps.add((prev, op))
            fence = self._fence_for(prev, op, pairs)
            if fence is None:
                self.result.fences_elided += 1
            else:
                new_fences.append(fence)
        # Dedupe fences at the same position with identical scope: one
        # all-gather at a position orders everything its scope covers, so
        # duplicates are the same physical fence.  The *deduped* list is
        # what gets returned (and therefore recorded by tracing), so replay
        # integration and PipelineStats count exactly the fences that exist.
        inserted = [f for f in new_fences if self.result.fences.add(f)]
        self.result.deps |= new_deps
        if profiling:
            self._profile_op(op, inserted, t0, scans0, elided0)
        return new_deps, inserted

    def _profile_op(self, op: Operation, fences: List[Fence], t0: float,
                    scans0: int, elided0: int) -> None:
        """Emit the coarse-group span and fence events (profiling only).

        The coarse stage runs identically on *every* shard (that is what
        makes its cost machine-size independent), so its span is charged to
        each shard's timeline, exactly as the simulator charges its cost.
        """
        prof = self.profiler
        dur = prof.now_us() - t0
        scans = self.result.users_scanned - scans0
        elided = self.result.fences_elided - elided0
        name = op.name or op.kind
        for shard in range(self.num_shards):
            prof.complete(shard, CAT_COARSE, EV_COARSE_GROUP, t0, dur,
                          op=name, seq=op.seq, scans=scans)
        for f in fences:
            region = f.region.name if f.region is not None else "<global>"
            prof.instant(CONTROL_SHARD, CAT_COARSE, EV_FENCE_INSERT,
                         at_seq=f.at_seq, region=region,
                         fields=len(f.fields))
            prof.metrics.count(f"coarse.fences.{region}")
        if elided:
            prof.instant(CONTROL_SHARD, CAT_COARSE, EV_FENCE_ELIDE,
                         op=name, seq=op.seq, count=elided)
        m = prof.metrics
        m.count("coarse.ops")
        m.count("coarse.scans", scans)
        m.count("coarse.fences_inserted", len(fences))
        m.count("coarse.fences_elided", elided)

    def register_replayed(self, op: Operation) -> None:
        """Fold a trace-replayed op into the epoch state without scanning.

        Replays skip the dependence scan (their structure comes from the
        recording), but their *effects on the epoch state* must still be
        applied — otherwise operations issued after the trace would compare
        against pre-trace state and miss dependences on replayed work.
        """
        self._update(op, self._launch(op))

    # -- scanning ------------------------------------------------------------------

    def _launch(self, op: Operation
                ) -> List[Tuple[CoarseRequirement, LogicalRegion, int]]:
        """Each requirement of ``op`` with its bound and the launch class
        of its width-1 entry."""
        single = self._classes.single
        launch = []
        for req in op.coarse_reqs:
            bound = req.bound_region()
            launch.append((req, bound, single(req, bound)))
        return launch

    def _scan(self, op: Operation, req: CoarseRequirement, lcid: int,
              state: FieldState,
              dep_ops: Dict[Operation, List[Tuple[CoarseRequirement,
                                                  CoarseRequirement]]]) -> None:
        scanned, found = state.scan(op, lcid, req.privilege)
        self.result.users_scanned += scanned
        for hits in found:
            # Every entry is one op (width 1), so a bucket that hits is a
            # bucket whose entries all conflict.  Insertion order within the
            # epoch: a single bucket already is; several merge by the
            # entries' leading insertion index.
            entries = hits[0][0] if len(hits) == 1 else \
                sorted(e for entries, _pairs in hits for e in entries)
            for _index, prev_op, _users, prev_reqs in entries:
                dep_ops.setdefault(prev_op, []).append((prev_reqs[0], req))

    def _update(self, op: Operation,
                launch: List[Tuple[CoarseRequirement, LogicalRegion, int]]
                ) -> None:
        users = (op,)
        for req, bound, lcid in launch:
            for fid in sorted_fids(req):
                key = (bound.tree_id, fid)
                state = self._state.get(key)
                if state is None:
                    state = self._state[key] = FieldState(self._classes)
                state.update(op, users, (req,), lcid, bound)

    # -- fence insertion / elision ----------------------------------------------------

    def _fence_for(self, prev: Operation, op: Operation,
                   pairs: Sequence[Tuple[CoarseRequirement, CoarseRequirement]]
                   ) -> Optional[Fence]:
        if self.num_shards == 1:
            return None
        if self._provably_shard_local(prev, op, pairs):
            return None
        # Scope the fence to the least upper bound of the conflicting data.
        # Both sides of every pair must be covered: the fence orders the
        # *earlier* op's fine analysis (preq's data) against the later one's
        # (nreq's data), so a scope containing only the later bounds would
        # under-synchronize.  A dependence spanning region trees has no
        # common ancestor at all — only a global fence is sound there.
        preq, nreq = pairs[0]
        scope_region: Optional[LogicalRegion] = preq.bound_region()
        scope_fields: frozenset = frozenset()
        for preq, nreq in pairs:
            scope_fields |= (preq.fields | nreq.fields)
            if scope_region is None:
                continue
            for b in (preq.bound_region(), nreq.bound_region()):
                if b.tree_id != scope_region.tree_id:
                    scope_region = None
                    break
                if not cached_region_contains(scope_region, b):
                    # Fall back to the common root, always a sound scope
                    # within one tree.
                    scope_region = scope_region.root()
        return Fence(at_seq=op.seq, region=scope_region, fields=scope_fields)

    def _provably_shard_local(
        self, prev: Operation, op: Operation,
        pairs: Sequence[Tuple[CoarseRequirement, CoarseRequirement]]) -> bool:
        """The symbolic proof of §4.1 observation 2."""
        if not prev.is_group and not op.is_group:
            return prev.owner_shard % self.num_shards == \
                op.owner_shard % self.num_shards
        if not (prev.is_group and op.is_group):
            return False
        if prev.launch_domain != op.launch_domain:
            return False
        assert prev.sharding is not None and op.sharding is not None
        if prev.sharding.sid != op.sharding.sid:
            return False
        for preq, nreq in pairs:
            if not (isinstance(preq.upper, Partition)
                    and isinstance(nreq.upper, Partition)):
                return False
            if preq.upper.uid != nreq.upper.uid:
                return False
            if not preq.upper.disjoint:
                return False
            pproj = preq.projection.pid if preq.projection else 0
            nproj = nreq.projection.pid if nreq.projection else 0
            if pproj != nproj:
                return False
        return True
