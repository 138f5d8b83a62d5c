"""The implicitly parallel runtime with dynamic control replication.

This is the functional (really-executes) layer of the reproduction: a
Legion-like tasking runtime whose top-level control program can be
*dynamically control replicated*.  ``Runtime.execute(control)`` runs the
control function once per shard:

* **shard 0** drives the real work — it alone allocates storage, and
  every launch flows through the two-stage DCR analysis pipeline
  (:mod:`repro.core.pipeline`) and joins the runtime's queue; the queue
  runs its point tasks when control code needs a result
  (:meth:`Runtime.drain`), in program order or, under a
  ``FaultPlan(reorder=True)``, in a seeded random order of the point
  graph — so a dependence the analysis missed changes the bytes;
* **every shard** builds its own handles, each named by how the program
  built it, and reads a launch's value and a field's data from the driver
  by that name; every runtime API call is hashed and checked by the
  control-determinism monitor (§3).  A shard that launches different
  work, in a different order, or branches differently raises
  :class:`~repro.core.determinism.ControlDeterminismViolation`.

The division of labor with the simulator layer is deliberate (DESIGN.md
§2): this layer proves the algorithms (graph equivalence, fence soundness,
determinism checking, deferred deletions); the simulator reproduces the
paper's scaling numbers.
"""

from __future__ import annotations

import contextlib
import random
from bisect import bisect_right
from functools import partial
from itertools import groupby
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..core import (Collectives, DCRPipeline, DeferredOpManager,
                    DeterminismMonitor, Operation, PointTask)
from ..core.determinism import ControlDeterminismViolation, stream_digest
from ..core.rng import CounterRNG
from ..faults.injector import CollectiveTimeout, FaultInjector, ShardCrash
from ..obs.events import (CAT_CONTROL, CAT_EXEC, CAT_FAULT, EV_CONTROL_REPLAY,
                          EV_EXEC_POINT, EV_SHARD_CRASH)
from ..obs.profiler import Profiler, get_profiler
from ..oracle import RegionRequirement, WRITE_DISCARD
from ..regions import (Field, FieldSpace, IndexSpace, LogicalRegion,
                       Partition, Rect)
from .frontdoor import FrontDoor
from .future import Failed, Future, FutureMap
from .mapper import DefaultMapper, Mapper
from .store import FieldAccessor, RegionStore

__all__ = ["Runtime", "Context", "RegionArg"]

#: One shared deadline for every replica of a gang backend to report.
REPLICA_TIMEOUT_S = 120.0


def _as_hashed(values: Sequence[Any]) -> Sequence[Any]:
    """A launch's ``args`` or ``future_args`` as the call hashes them: a
    tuple as it is, so one the caller hands over again is encoded from the
    hasher's skeleton, anything else as a list of its items.  Both encode
    as ``T(...)``, so the digest does not depend on which was given."""
    return values if type(values) is tuple else list(values)


class RegionArg:
    """What a task body receives for one region requirement.

    The driver builds one per point requirement and keeps it on the
    requirement, so it lives exactly as long as the requirement does.  It
    builds each field's accessor once; an accessor reads its array from
    the store at each use, so neither pins a deleted field's storage."""

    def __init__(self, store: RegionStore, req: RegionRequirement):
        self._store = store
        self.req = req
        self.region = req.region
        self.privilege = req.privilege
        self._accessors: Dict[str, FieldAccessor] = {}

    def __getitem__(self, field_name: str) -> FieldAccessor:
        acc = self._accessors.get(field_name)
        if acc is None:
            f = self.region.field_space[field_name]
            acc = self._accessors[field_name] = \
                self._store.accessor(self.req, f)
        return acc

    def fields(self) -> Tuple[Field, ...]:
        """The requirement's fields, in stable fid order."""
        return tuple(sorted(self.req.fields, key=lambda f: f.fid))


class Runtime:
    """Owner of storage, analysis pipeline, and the launch values."""

    def __init__(self, num_shards: int = 1, mapper: Optional[Mapper] = None,
                 safe_checks: bool = True, check_batch: int = 32,
                 timing_oracle: Optional[Callable[[int, Future], bool]] = None,
                 auto_trace: bool = False,
                 profiler: Optional[Profiler] = None,
                 injector: Optional[FaultInjector] = None,
                 backend: str = "inprocess"):
        from ..dist.transport import PROCESS_BACKENDS
        if backend not in ("inprocess", "loopback") + PROCESS_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected "
                             f"'inprocess', 'loopback' or one of "
                             f"{PROCESS_BACKENDS}")
        self.backend = backend
        self.num_shards = num_shards
        self.mapper = mapper or DefaultMapper()
        self.store = RegionStore()
        self.store.before_read = self.drain
        # One profiler spans analysis, collectives, determinism checks and
        # execution; it is the disabled global no-op unless a live one is
        # passed (or the global one is enabled), and never perturbs results.
        self.profiler = profiler if profiler is not None else get_profiler()
        # Fault injection: only what the caller passes in, None by default
        # — the same zero-perturbation discipline as the profiler.
        self.injector = injector
        # Launches analysed but not yet run, in program order: (driver
        # context, op, point tasks, name — None for a fill); see drain().
        self._pending: List[Tuple[Context, Operation, List[PointTask],
                                  Optional[int]]] = []
        # Every launch's value by its name, once its points have run.
        self._values: Dict[Hashable, Any] = {}
        # The queue's random order under FaultPlan(reorder=True), or None
        # for program order.
        self._reorder =(random.Random(injector.plan.seed)
                         if injector is not None and injector.plan.reorder
                         else None)
        self._safe_checks = safe_checks
        self._check_batch = check_batch
        # One collectives instance spans the determinism checks and their
        # localization, so CollectiveStats accounts for the whole run.
        self.collectives = Collectives(num_shards, profiler=self.profiler)
        # auto_trace turns on transparent trace identification: repeated
        # fragments of the launch stream are memoized and replayed without
        # any begin_trace/end_trace calls in the control program.
        self.pipeline = DCRPipeline(num_shards, auto_trace=auto_trace,
                                    profiler=self.profiler,
                                    injector=self.injector)
        self.monitor = DeterminismMonitor(
            num_shards, batch=check_batch, enabled=safe_checks,
            collectives=self.collectives, profiler=self.profiler,
            injector=self.injector)
        self.deferred = DeferredOpManager(num_shards)
        self.timing_oracle = timing_oracle
        self._deferred_keys: Dict[Hashable, Tuple] = {}
        self._task_keys: Dict[str, List[Any]] = {}     # see FrontDoor.lower
        self.executed_points: int = 0
        self._result: Any = None
        # Gang backends: per-replica verification summaries and (forked
        # replicas) profiler snapshots, shipped back over the channels.
        self.replica_reports: List[Dict[str, Any]] = []
        self.replica_profiles: List[Dict[str, Any]] = []
        self.dist_checks: int = 0
        # Callbacks run before deferred-deletion draining (frontends hook
        # their own GC-deferred frees here, e.g. the legate field manager).
        self._drain_hooks: List[Callable[[], None]] = []

    # -- replicated execution ------------------------------------------------------

    def execute(self, control: Callable[..., Any], *args: Any) -> Any:
        """Run ``control(ctx, *args)`` replicated across all shards.

        Returns shard 0's return value.  A run detects and localizes
        failures, it does not heal them: if any shard diverges it raises
        :class:`ControlDeterminismViolation`, whose ``diagnosis`` names the
        first divergent call and the culprit shard(s), and a shard killed
        by an injected fault raises :class:`~repro.faults.ShardCrash` —
        the same two errors on every backend.  Healing is a serving gang's
        job (:class:`~repro.service.DCRService` rebuilds and retries).
        """
        if getattr(self, "_executed", False):
            raise RuntimeError(
                "Runtime instances are single-use: the launch values, "
                "storage and analysis state belong to one replicated "
                "execution — create a fresh Runtime for another run")
        self._executed = True
        if self.backend != "inprocess":
            return self._execute_gang(control, args)
        return self._execute_replicated(control, args)

    def _execute_replicated(self, control: Callable[..., Any],
                            args: Tuple[Any, ...]) -> Any:
        """Every shard in turn in this thread, then the final check."""
        for shard in range(self.num_shards):
            self._run_shard(shard, control, args)
        self.monitor.flush()
        self._drain_deferred()
        self.pipeline.validate()
        return self._result

    def _run_shard(self, shard: int, control: Callable[..., Any],
                   args: Tuple[Any, ...],
                   monitor: Optional[DeterminismMonitor] = None) -> None:
        prof = self.profiler
        ctx = Context(self, shard, monitor=monitor)
        if prof.enabled:
            prof.begin(shard, CAT_CONTROL, EV_CONTROL_REPLAY)
        try:
            ret = control(ctx, *args)
            ctx._finish()
        except ShardCrash as crash:
            if prof.enabled:
                prof.instant(shard, CAT_FAULT, EV_SHARD_CRASH,
                             seq=crash.seq, reason=crash.reason)
                prof.count("faults.crashes")
            raise
        finally:
            if prof.enabled:
                prof.end(shard, CAT_CONTROL, EV_CONTROL_REPLAY)
        if shard == 0:
            self._result = ret

    # -- gang backends (loopback / shm / tcp) --------------------------------

    def _execute_gang(self, control: Callable[..., Any],
                      args: Tuple[Any, ...]) -> Any:
        """Replicated execution with each replica a rank of a gang.

        Phase 1 runs the driver, shard 0, in the calling thread exactly as
        the in-process backend does — effects, analysis, storage and the
        launch values all live here, and the driver's API calls accumulate
        in its hasher (``self.monitor`` hosts every shard, so it never
        closes a window while the other hashers are empty).  Phase 2 starts
        one replica per remaining shard on a :class:`~repro.dist.gang.Gang`
        — a thread over the queue mesh for ``loopback``, a forked process
        over the backend's fabric otherwise; each runs the control program
        on handles it builds itself, reads launch values and stored data
        by structural name (shared, or inherited across the fork), with
        its own rank-local
        :class:`~repro.core.determinism.DeterminismMonitor`, while the
        caller participates as the driver rank by feeding its
        pre-recorded digest stream through the same windowed all-reduce —
        so hash checking, divergence localization, and the final count
        comparison all run over the real transport.
        """
        from ..dist.gang import Gang

        self._run_shard(0, control, args)
        if self.num_shards == 1:
            self._drain_deferred()
            self.pipeline.validate()
            return self._result
        gang = Gang(self.backend, self.num_shards, name="repro-replica")
        failure: Optional[Exception] = None
        try:
            for shard in range(1, self.num_shards):
                gang.spawn(shard, _replica_main, self, control, args,
                           gang.forks)
            gang.release_parent(keep=0)
            try:
                self._drive_dist_check(gang.fabric.transport(0))
            except (ControlDeterminismViolation, CollectiveTimeout) as exc:
                # Every rank observes a divergence in the same collective
                # (the replicas raise too), and a replica that crashed
                # takes the check down with it; keep the driver's error
                # and decide what to raise once the gang is reaped.
                failure = exc
            # A crashed replica reported before it closed: once the check
            # has timed out, waiting on the rest of the gang buys nothing.
            payloads, failures = gang.collect(
                0.0 if isinstance(failure, CollectiveTimeout)
                else REPLICA_TIMEOUT_S)
        finally:
            gang.terminate()
        if isinstance(failure, ControlDeterminismViolation):
            raise failure
        for shard in sorted(payloads):
            if "crash" in payloads[shard]:
                raise ShardCrash(shard, *payloads[shard]["crash"])
        if failure is not None:
            raise failure
        if failures:
            raise RuntimeError(
                f"{self.backend} replicas failed: " + "; ".join(failures))
        for shard in sorted(payloads):
            payload = payloads[shard]
            # Forked replicas announced their finalizer deletions in their
            # own copies of the manager; repeat them here, where the
            # consensus is decided.
            for key in payload.pop("announced"):
                self.deferred.announce(shard, key)
            profile = payload.pop("profile", None)
            if profile is not None:
                self.replica_profiles.append(profile)
            self.replica_reports.append(payload)
        self._drain_deferred()
        self.pipeline.validate()
        return self._result

    def _dist_monitor(self, transport: Any,
                      injector: Optional[FaultInjector] = None
                      ) -> DeterminismMonitor:
        """The determinism monitor of one gang rank — driver and replicas
        alike, so every rank runs the identical collective schedule.  A
        lone rank cannot inspect its peers' streams, so LOCALIZE is on."""
        from ..dist.collectives import DistCollectives

        return DeterminismMonitor(
            self.num_shards, batch=self._check_batch,
            enabled=self._safe_checks,
            collectives=DistCollectives(transport, profiler=self.profiler),
            profiler=self.profiler, injector=injector)

    def _drive_dist_check(self, transport: Any) -> None:
        """Driver-side determinism participation, from the recorded stream.

        Feeds the driver's already-computed call digests through a
        rank-local monitor at the same window cadence the replicas use
        (record → maybe-check per call, one final flush).
        """
        recorded = self.monitor.hasher(0)
        try:
            monitor = self._dist_monitor(transport)
            hasher = monitor.hasher(0)
            for digest, descr in zip(recorded.calls, recorded.descriptions):
                hasher.calls.append(digest)
                hasher.descriptions.append(descr)
                monitor.maybe_check()
            monitor.flush()
            self.dist_checks = monitor.checks_performed
        finally:
            transport.close()

    def add_drain_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback run at every deferred-deletion drain."""
        self._drain_hooks.append(hook)

    def determinism_digests(self) -> List[int]:
        """Per-shard digests of the full hashed call streams, shard order.

        The canonical cross-backend determinism witness: the same control
        program must produce the identical digest vector on every backend
        (the fuzz tier asserts exactly this).
        """
        if self.backend == "inprocess":
            return [stream_digest(self.monitor.hasher(s).calls)
                    for s in range(self.num_shards)]
        digests = {0: stream_digest(self.monitor.hasher(0).calls)}
        for rep in self.replica_reports:
            digests[rep["shard"]] = rep["stream_digest"]
        return [digests[s] for s in sorted(digests)]

    def _drain_deferred(self) -> None:
        """Apply the finalizer-deferred deletions every active shard has
        announced (§4.3); the rest stay pending in ``self.deferred``."""
        for hook in self._drain_hooks:
            hook()
        for key in self.deferred.poll():
            self._apply_deletion(*self._deferred_keys.pop(key))

    def _apply_deletion(self, region: LogicalRegion,
                        field: Optional[Field]) -> None:
        """Free ``field`` of ``region``'s tree, or all its fields."""
        self.drain()
        for f in region.field_space.fields if field is None else (field,):
            self.store.deallocate_field(region, f)
        if field is not None and field.name in region.field_space:
            region.field_space.remove_field(field.name)

    # -- the executor ------------------------------------------------------------------

    def drain(self) -> None:
        """Run every queued launch's points, then file its value under its
        name (a dict of point values for an index launch).

        A launch joins the queue once it is analysed; the queue runs when
        control code needs a result — a future's value, a store read, a
        deletion, the end of a shard's program.  It runs in program order,
        one topological order of the point graph, or under a
        ``FaultPlan(reorder=True)`` in a seeded random one.  A kernel that
        raises ends the run and propagates: its launch and any launch only
        some of whose points ran hold the error, which every shard's future
        re-raises, and the launches none of whose points ran go back to
        the queue in program order."""
        batch = self._pending
        if not batch:
            return
        self._pending = []
        points = [(ctx, op, t) for ctx, op, tasks, _ in batch for t in tasks]
        if self._reorder is not None:
            points = self._reordered(points)
        values: Dict[int, Any] = {}
        try:
            for ctx, op, task in points:
                if op.kind == "fill":
                    for req in task.requirements:
                        for f in req.fields:
                            self.store.fill(req.region, f, op.fill_value)
                    values[id(task)] = None
                else:
                    values[id(task)] = ctx._execute_point(op, task,
                                                          op.body_args)
        except Exception as error:
            values[id(task)] = failed = Failed(error)
            done = []
            for entry in batch:
                ran = [values[id(t)] for t in entry[2] if id(t) in values]
                if not ran:
                    self._pending.append(entry)
                elif len(ran) == len(entry[2]) \
                        and all(v is not failed for v in ran):
                    done.append(entry)
                elif entry[3] is not None:
                    self._values[entry[3]] = failed
            self._file(done, values)
            raise
        self._file(batch, values)

    def _file(self, batch: List[Tuple], values: Dict[int, Any]) -> None:
        for _, op, tasks, name in batch:
            if name is not None:
                self._values[name] = values[id(tasks[0])] \
                    if op.launch_domain is None \
                    else {pt.point: values[id(pt)] for pt in tasks}

    def _reordered(self, points: List[Tuple]) -> List[Tuple]:
        """``points``, in program order, in a seeded random topological one.

        A point waits for its ``preds`` inside the batch (the rest ran in an
        earlier batch).  A global fence is a barrier: the analysis summarises
        the dependences entering a trace replay by one instead of by edges.
        Reductions into one (tree, field) keep program order, so their
        floating-point sums do not change with the order."""
        barriers = sorted(f.at_seq for f in self.pipeline.coarse_result.fences
                          if f.region is None)
        order: List[Tuple] = []
        for _, era in groupby(points,
                              key=lambda e: bisect_right(barriers, e[1].seq)):
            era = list(era)
            index = {id(t): i for i, (_, _, t) in enumerate(era)}
            waits, succs, last = [0] * len(era), [[] for _ in era], {}
            for i, (_, _, task) in enumerate(era):
                before = {index[id(p)] for p in task.preds if id(p) in index}
                for req in task.requirements:
                    if req.privilege.is_reduce:
                        for f in req.fields:
                            key = (req.region.tree_id, f.fid)
                            before.add(last.get(key, i))
                            last[key] = i
                before.discard(i)
                waits[i] = len(before)
                for j in before:
                    succs[j].append(i)
            ready = [i for i, n in enumerate(waits) if not n]
            while ready:
                i = ready.pop(self._reorder.randrange(len(ready)))
                order.append(era[i])
                for j in succs[i]:
                    waits[j] -= 1
                    if not waits[j]:
                        ready.append(j)
            if any(waits):
                raise RuntimeError("task graph contains a cycle — the "
                                   "analysis produced an unexecutable "
                                   "schedule")
        return order

    # -- task graph accessors ----------------------------------------------------------

    def task_graph(self):
        """The precise point-task graph the analysis produced."""
        return self.pipeline.fine_result.graph

    def coarse_result(self):
        """The coarse-stage products: group deps and fences."""
        return self.pipeline.coarse_result


def _replica_main(transport: Any, channel: Any, runtime: Runtime,
                  control: Callable[..., Any], args: Tuple[Any, ...],
                  ship_profile: bool) -> None:
    """One replica rank: run its shard, checking over the transport.

    The replica builds its own handles and reads the driver's launch
    values and stored data by structural name (shared between threads,
    inherited across a fork), exactly as the in-process replicas do; only
    the determinism checking changes transport.  ``ship_profile`` is set for
    forked replicas, whose profiler the driver cannot otherwise read.
    """
    monitor = runtime._dist_monitor(transport, injector=runtime.injector)
    try:
        runtime._run_shard(transport.rank, control, args, monitor=monitor)
    except ShardCrash as crash:
        # Reported, not raised, so the driver raises this crash rather
        # than the PeerGone its own check saw when this rank closed.
        channel.send(("ok", {"shard": transport.rank,
                             "crash": (crash.seq, crash.reason)}))
        return
    monitor.flush()
    calls = monitor.hasher(transport.rank).calls
    payload: Dict[str, Any] = {
        "shard": transport.rank,
        "calls": len(calls),
        "checks": monitor.checks_performed,
        "stream_digest": stream_digest(calls),
        "announced": runtime.deferred.announced_by(transport.rank),
        "frames_sent": transport.frames_sent,
        "frames_received": transport.frames_received,
    }
    if ship_profile and runtime.profiler.enabled:
        payload["profile"] = runtime.profiler.snapshot()
    channel.send(("ok", payload))


class Context:
    """Per-shard view of the runtime: the API control programs call.

    Every method hashes itself into the determinism monitor, and every
    shard builds its own handles, named by the call that made them.
    Shard 0 performs effects; the other shards read its launch values and
    stored data by those names.
    """

    def __init__(self, runtime: Runtime, shard: int,
                 monitor: Optional[DeterminismMonitor] = None):
        self.runtime = runtime
        self.shard = shard
        # Whether this shard performs effects: shard 0 allocates storage,
        # analyses and runs every launch; the other shards read its values.
        self.is_driver = shard == 0
        self.num_shards = runtime.num_shards
        # A gang replica brings its own rank-local monitor; in-process
        # shards share the runtime's.
        self._monitor = monitor if monitor is not None else runtime.monitor
        self._hasher = self._monitor.hasher(shard)
        # The timing oracle, asked on this shard (Fig. 5).
        oracle = runtime.timing_oracle
        self._oracle = None if oracle is None else partial(oracle, shard)
        self._in_finalizer = False
        self._door = FrontDoor(runtime._task_keys)

    # -- internal plumbing ------------------------------------------------------------

    def _record(self, call: str, *args: Any) -> None:
        self._hasher.record(call, *args)
        self._monitor.maybe_check()

    def _named(self, obj: Any) -> Any:
        """Key a root or a space by its creating call's index in the hashed
        stream, as a launch is keyed; a partition is keyed below its
        region."""
        obj.structural_key = len(self._hasher.calls) - 1
        return obj

    def _finish(self) -> None:
        self.runtime.drain()
        self._door.finish()
        self._record("task_complete", True)

    # -- resource creation ----------------------------------------------------------------

    def create_field_space(self, fields: Iterable[Tuple[str, object]],
                           name: str = "") -> FieldSpace:
        """Allocate a field space from (name, dtype) pairs."""
        fields = list(fields)
        self._record("create_field_space",
                     [(n, str(np.dtype(d))) for n, d in fields], name)
        return self._named(FieldSpace(fields, name=name))

    def create_index_space(self, extent: Union[int, Tuple[int, ...]],
                           name: str = "") -> IndexSpace:
        """Allocate a dense 0-based index space of the given extents."""
        ext = (extent,) if isinstance(extent, int) else tuple(extent)
        self._record("create_index_space", list(ext), name)
        return self._named(IndexSpace.from_extent(*ext, name=name))

    def create_region(self, ispace: IndexSpace, fspace: FieldSpace,
                      name: str = "") -> LogicalRegion:
        """Create a root region (and its backing storage)."""
        self._record("create_region", ispace, fspace, name)
        region = self._named(LogicalRegion(ispace, fspace, name=name))
        if self.is_driver:
            self.runtime.store.allocate(region)
        self._door.created(region)
        return region

    def partition_equal(self, region: LogicalRegion, pieces: int,
                        dim: int = 0, name: str = "") -> Partition:
        """Disjoint, complete blockwise partition along one dimension."""
        self._door.check_live("partition_equal", region)
        self._record("partition_equal", region, pieces, dim, name)
        return region.partition_equal(pieces, dim=dim, name=name)

    def partition_tiles(self, region: LogicalRegion, tiles: Tuple[int, ...],
                        name: str = "") -> Partition:
        """Disjoint, complete n-D tiling of a region."""
        self._door.check_live("partition_tiles", region)
        self._record("partition_tiles", region, list(tiles), name)
        return region.partition_tiles(tiles, name=name)

    def partition_ghost(self, region: LogicalRegion, base: Partition,
                        halo: int, dim: Optional[int] = None,
                        name: str = "") -> Partition:
        """Aliased ghost partition: each base piece grown by ``halo``."""
        self._door.check_live("partition_ghost", region, base)
        self._record("partition_ghost", region, base, halo,
                     -1 if dim is None else dim, name)
        return region.partition_ghost(base, halo, dim=dim, name=name)

    def partition_by_field(self, region: LogicalRegion,
                           colors: Sequence[Hashable],
                           color_of: Callable, name: str = "") -> Partition:
        """Dependent partitioning: piece = per-point color (OOPSLA'13).

        ``color_of`` must be control deterministic; its evaluation over the
        region is folded into the call hash, and the partition is built
        from the same evaluation (one call per point).
        """
        from ..regions import partition_by_field
        self._door.check_live("partition_by_field", region)
        color = {p: color_of(p) for p in region.index_space}
        self._record("partition_by_field", region,
                     [(list(p), str(c)) for p, c in color.items()], name)
        return partition_by_field(region, colors, color.__getitem__,
                                  name=name)

    def partition_by_image(self, dest: LogicalRegion, source: Partition,
                           pointer: Callable, name: str = "") -> Partition:
        """Dependent partitioning: image of a pointer field (OOPSLA'16).
        ``pointer`` is called once per point, as in
        :meth:`partition_by_field`."""
        from ..regions import partition_by_image
        self._door.check_live("partition_by_image", dest, source)
        points = [p for sub in source for p in sub.index_space]
        targets = {p: list(pointer(p)) for p in dict.fromkeys(points)}
        arrows = [(list(p), sorted(map(str, targets[p]))) for p in points]
        self._record("partition_by_image", dest, source, arrows, name)
        return partition_by_image(dest, source, targets.__getitem__,
                                  name=name)

    def partition_by_preimage(self, dest: LogicalRegion, target: Partition,
                              pointer: Callable, name: str = "") -> Partition:
        """Dependent partitioning: preimage of a pointer field.
        ``pointer`` is called once per point, as in
        :meth:`partition_by_field`."""
        from ..regions import partition_by_preimage
        self._door.check_live("partition_by_preimage", dest, target)
        targets = {p: list(pointer(p)) for p in dest.index_space}
        self._record("partition_by_preimage", dest, target,
                     [(list(p), sorted(map(str, t)))
                      for p, t in targets.items()], name)
        return partition_by_preimage(dest, target, targets.__getitem__,
                                     name=name)

    def partition_by_points(self, region: LogicalRegion,
                            pieces: Dict[Hashable, Sequence],
                            disjoint: Optional[bool] = None,
                            name: str = "") -> Partition:
        """Arbitrary (possibly dynamic) partition from explicit point lists —
        the circuit app's dynamically computed graph partition."""
        self._door.check_live("partition_by_points", region)
        norm = {
            color: tuple(sorted((p,) if isinstance(p, int) else tuple(p)
                                for p in pts))
            for color, pts in pieces.items()
        }
        self._record("partition_by_points", region,
                     sorted((str(c), list(map(list, pts)))
                            for c, pts in norm.items()),
                     name)
        spaces = {
            color: IndexSpace(points=pts, name=f"{name}[{color}]")
            for color, pts in norm.items()
        }
        return region.partition_by_spaces(spaces, disjoint=disjoint,
                                          name=name)

    def partition_rects(self, region: LogicalRegion,
                        rects: Sequence[Tuple[Sequence[int], Sequence[int]]],
                        disjoint: Optional[bool] = None,
                        complete: Optional[bool] = None,
                        name: str = "") -> Partition:
        """Partition from explicit inclusive (lo, hi) rectangles.

        The workhorse of the deferred-array frontend: a view's logical
        tiling maps to one rect per color over the base region.  Rects are
        dense, so (unlike :meth:`partition_by_points`) the call hashes and
        builds in O(pieces), independent of element count.  Colors are the
        rect list positions.
        """
        self._door.check_live("partition_rects", region)
        norm = tuple((tuple(int(x) for x in lo), tuple(int(x) for x in hi))
                     for lo, hi in rects)
        self._record("partition_rects", region,
                     [[list(lo), list(hi)] for lo, hi in norm],
                     -1 if disjoint is None else int(disjoint),
                     -1 if complete is None else int(complete), name)
        spaces = {
            i: IndexSpace(rect=Rect(lo, hi), name=f"{name}[{i}]")
            for i, (lo, hi) in enumerate(norm)
        }
        return region.partition_by_spaces(spaces, disjoint=disjoint,
                                          complete=complete, name=name)

    # -- data operations --------------------------------------------------------------------

    def fill(self, region: LogicalRegion,
             fields: Union[str, Iterable[str]], value) -> None:
        """Fill the named fields of a region with one value (an operation)."""
        names, req = self._door.region_req("fill", region, fields,
                                           WRITE_DISCARD)
        self._record("fill", region, names, float(value))
        if self.is_driver:
            # only the driver analyses, so only it builds the operation
            op = Operation("fill", [req], name=f"fill({region.name})")
            op.fill_value = value
            record = self.runtime.pipeline.analyze(op)
            self.runtime._pending.append(
                (self, op, record.point_tasks, None))

    # -- task launches -------------------------------------------------------------------------

    def launch(self, fn: Callable[..., Any], reqs: Sequence[Tuple],
               args: Sequence[Any] = (), owner_shard: int = 0,
               future_args: Sequence[Future] = (),
               cost: float = 0.0) -> Future:
        """Launch one individual task; returns its future.

        ``future_args`` pass other tasks' results into this task without the
        control program reading them — the §3-safe alternative to branching
        on a value (Fig. 5's ``launch_task1(precondition=future)``): the
        future is resolved by the time the task body runs, and the argument
        is hashed by *handle*, not value, so shards stay deterministic.
        ``args`` and ``future_args`` are hashed as given: a tuple as it is,
        so a caller that hands over the same tuple again has its bytes
        reused by the hasher's skeleton, anything else as a list.
        """
        key, coarse_reqs, desc, _ = self._door.lower(fn, reqs, False)
        self._record("launch", key, desc, _as_hashed(args),
                     _as_hashed(future_args), owner_shard)
        name = self._launched("launch")
        if self.is_driver:
            op = Operation(
                "task",
                coarse_reqs,
                owner_shard=owner_shard % self.num_shards,
                name=fn.__name__, body=fn, cost=cost)
            op.body_args = tuple(args) + tuple(f.get() for f in future_args)
            record = self.runtime.pipeline.analyze(op)
            self.runtime._pending.append((self, op, record.point_tasks, name))
        return Future(name, self.runtime._values, self.runtime.drain,
                      self._oracle)

    def index_launch(self, fn: Callable[..., Any], domain: Sequence[Hashable],
                     reqs: Sequence[Tuple], args: Sequence[Any] = (),
                     future_args: Sequence[Future] = (),
                     cost: float = 0.0) -> FutureMap:
        """Launch a group (index) task over ``domain``; returns the map of
        its point values (indexing a point makes that point's future).

        This is the Regent-transformed form ``t(p[f(i)])`` (§4) that makes
        the coarse analysis cost independent of the number of points.
        ``future_args`` behave as in :meth:`launch`.  A tuple domain is
        hashed as it is (a frontend hands the same one over and over);
        any other is hashed as a list of its points.  ``args`` and
        ``future_args`` are hashed the same way.
        """
        key, coarse_reqs, desc, domain = self._door.index_launch(
            fn, domain, reqs)
        sharding = self.runtime.mapper.select_sharding("task", fn.__name__)
        self._record("index_launch", key, domain, desc, _as_hashed(args),
                     _as_hashed(future_args), sharding.sid)
        name = self._launched("index_launch")
        if self.is_driver:
            op = Operation(
                "task",
                coarse_reqs,
                launch_domain=domain,
                sharding=sharding,
                name=fn.__name__, body=fn, cost=cost)
            op.body_args = tuple(args) + tuple(f.get() for f in future_args)
            record = self.runtime.pipeline.analyze(op)
            self.runtime._pending.append((self, op, record.point_tasks, name))
        return FutureMap(name, self.runtime._values, self.runtime.drain,
                         self._oracle)

    def _execute_point(self, op: Operation, pt: PointTask,
                       args: Sequence[Any]) -> Any:
        self.runtime.executed_points += 1
        assert op.body is not None
        store = self.runtime.store
        region_args = []
        for req in pt.requirements:
            # the RegionArg kept on the point requirement (see RegionArg)
            arg = getattr(req, "_region_arg", None)
            if arg is None or arg._store is not store:
                arg = RegionArg(store, req)
                object.__setattr__(req, "_region_arg", arg)
            region_args.append(arg)
        prof = self.runtime.profiler
        group = op.launch_domain is not None
        if not prof.enabled:
            if group:
                return op.body(pt.point, *region_args, *args)
            return op.body(*region_args, *args)
        # Profiled path: the span lands on the *owning* shard's timeline
        # even though the functional executor runs everything on shard 0.
        t0 = prof.now_us()
        if group:
            value = op.body(pt.point, *region_args, *args)
        else:
            value = op.body(*region_args, *args)
        prof.complete(pt.shard, CAT_EXEC, EV_EXEC_POINT, t0,
                      prof.now_us() - t0, op=op.name, point=str(pt.point))
        prof.count("exec.points")
        return value

    def _launched(self, call: str) -> int:
        """The name of the launch just hashed: its call's index.  The
        driver has run by the time a replica does, so a name missing from
        its values is a launch the driver never made."""
        name = len(self._hasher.calls) - 1
        if not self.is_driver and name not in self.runtime._values:
            raise ControlDeterminismViolation(
                name, [f"shard {self.shard} issued an extra {call}"],
                shard_ids=[self.shard])
        return name

    # -- futures & control helpers ------------------------------------------------------------

    def get_value(self, future: Future) -> Any:
        """Block for a future's value; identical on every shard (hashed)."""
        if not isinstance(future, Future):
            raise TypeError(
                f"get_value takes a Future, not {type(future).__name__}"
                f" (index a FutureMap by point for one point's Future)")
        self._record("future_get", future)
        return future.get()

    def rng(self, seed: int, stream: int = 0) -> CounterRNG:
        """A shard-safe counter-based generator (§3, Fig. 4 remedy)."""
        self._record("create_rng", seed, stream)
        return CounterRNG(seed, stream)

    def execution_fence(self) -> None:
        """A global ordering point: everything issued before the fence is
        ordered before everything after it (Legion's execution fence).

        Implemented as a global analysis fence occupying one program-order
        slot, so fence-coverage checks and the spy validator see it, and
        the queue treats it as a barrier in any order it runs
        (:meth:`Runtime._reordered`).
        """
        self._record("execution_fence")
        if not self.is_driver:
            return
        from ..core.coarse import Fence
        pipe = self.runtime.pipeline
        pipe.note_external_fence()
        pipe.coarse.result.fences.append(
            Fence(at_seq=pipe._next_seq, region=None, fields=frozenset()))
        pipe._next_seq += 1

    # -- tracing -----------------------------------------------------------------------------------

    def begin_trace(self, trace_id: int) -> None:
        """Start capturing (or replaying) a trace of the following launches."""
        self._record("begin_trace", trace_id)
        self._door.begin_trace(trace_id)
        if self.is_driver:
            self.runtime.pipeline.begin_trace(trace_id)

    def end_trace(self) -> None:
        """Finish the current trace capture/replay."""
        self._door.end_trace()
        self._record("end_trace")
        if self.is_driver:
            self.runtime.pipeline.end_trace()

    # -- deletions & finalizers (§4.3) ----------------------------------------------------------

    @contextlib.contextmanager
    def finalizer(self):
        """Model a garbage-collector finalizer running at an arbitrary,
        shard-dependent point: deletions inside are deferred, not hashed."""
        self._in_finalizer = True
        try:
            yield
        finally:
            self._in_finalizer = False

    def delete_region(self, region: LogicalRegion) -> None:
        """Delete a region's storage (deferred when inside a finalizer)."""
        if self._in_finalizer:
            return self._defer(region.structural_key, region, None)
        self._door.delete_region(region)
        self._record("delete_region", region)
        if self.is_driver:
            self.runtime._apply_deletion(region, None)

    def delete_field(self, region: LogicalRegion, field_name: str) -> None:
        """Delete one field (deferred when inside a finalizer)."""
        if self._in_finalizer:
            return self._defer(("field", region.structural_key, field_name),
                               region, region.field_space[field_name])
        f = self._door.delete_field(region, field_name)
        self._record("delete_field", region, field_name)
        if self.is_driver:     # removes the field once its queue has run
            self.runtime._apply_deletion(region, f)
        else:
            region.field_space.remove_field(field_name)

    def _defer(self, key: Hashable, region: LogicalRegion,
               field: Optional[Field]) -> None:
        """Announce a finalizer's deletion under a structural key; the
        driver's handles are the ones it applies to."""
        if self.is_driver:
            self.runtime._deferred_keys[key] = (region, field)
        self.runtime.deferred.announce(self.shard, key)
