"""The implicitly parallel runtime with dynamic control replication.

This is the functional (really-executes) layer of the reproduction: a
Legion-like tasking runtime whose top-level control program can be
*dynamically control replicated*.  ``Runtime.execute(control)`` runs the
control function once per shard:

* **shard 0** drives the real work — every launch flows through the
  two-stage DCR analysis pipeline (:mod:`repro.core.pipeline`) and executes
  its point tasks synchronously (program order is a legal topological order
  of the precise task graph, so results equal a sequential execution);
* **shards 1..N-1** replay the control program against the shard-0 resource
  and future logs: resources are interned by creation order, so all shards
  hold identical handles, and every runtime API call is hashed and checked
  by the control-determinism monitor (§3).  A shard that launches different
  work, in a different order, or branches differently raises
  :class:`~repro.core.determinism.ControlDeterminismViolation`.

The division of labor with the simulator layer is deliberate (DESIGN.md
§2): this layer proves the algorithms (graph equivalence, fence soundness,
determinism checking, deferred deletions); the simulator reproduces the
paper's scaling numbers.
"""

from __future__ import annotations

import contextlib
from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..core import (CoarseRequirement, Collectives, DCRPipeline,
                    DeferredOpManager, DeterminismMonitor,
                    IDENTITY_PROJECTION, Operation, PointTask,
                    ProjectionFunction)
from ..core.determinism import ControlDeterminismViolation, stream_digest
from ..core.rng import CounterRNG
from ..faults.injector import FaultInjector, ShardCrash
from ..obs.events import (CAT_CONTROL, CAT_EXEC, CAT_FAULT, CAT_RESILIENCE,
                          CONTROL_SHARD, EV_CONTROL_REPLAY, EV_EXEC_POINT,
                          EV_QUARANTINE, EV_RECOVERY, EV_SHARD_CRASH)
from ..obs.profiler import Profiler, get_profiler
from ..resilience import (RecoveryPolicy, RecoveryReport, ResilienceConfig,
                          diagnosis_to_dict, identify_culprits)
from ..core.sharding import ShardingFunction
from ..oracle import (Privilege, READ_ONLY, READ_WRITE, RegionRequirement,
                      WRITE_DISCARD, reduce_priv)
from ..regions import (Field, FieldSpace, IndexSpace, LogicalRegion,
                       Partition, Rect)
from .future import Future, FutureMap
from .mapper import DefaultMapper, Mapper
from .store import FieldAccessor, RegionStore

__all__ = ["Runtime", "Context", "RegionArg", "PRIVILEGES"]

#: One shared deadline for every replica of a gang backend to report.
REPLICA_TIMEOUT_S = 120.0

PRIVILEGES = {
    "ro": READ_ONLY,
    "rw": READ_WRITE,
    "wd": WRITE_DISCARD,
}


def _privilege(spec: Union[str, Privilege]) -> Privilege:
    if isinstance(spec, Privilege):
        return spec
    if spec in PRIVILEGES:
        return PRIVILEGES[spec]
    if spec.startswith("red"):
        return reduce_priv(spec[len("red"):].strip("<>") or "+")
    raise ValueError(f"unknown privilege spec {spec!r}")


class RegionArg:
    """What a task body receives for one region requirement."""

    def __init__(self, store: RegionStore, req: RegionRequirement):
        self._store = store
        self.req = req
        self.region = req.region
        self.privilege = req.privilege

    def __getitem__(self, field_name: str) -> FieldAccessor:
        f = self.region.field_space[field_name]
        return self._store.accessor(self.req, f)

    def fields(self) -> Tuple[Field, ...]:
        """The requirement's fields, in stable fid order."""
        return tuple(sorted(self.req.fields, key=lambda f: f.fid))


class Runtime:
    """Owner of storage, analysis pipeline, and the shard logs."""

    def __init__(self, num_shards: int = 1, mapper: Optional[Mapper] = None,
                 safe_checks: bool = True, check_batch: int = 32,
                 timing_oracle: Optional[Callable[[int, Future], bool]] = None,
                 auto_trace: bool = False,
                 profiler: Optional[Profiler] = None,
                 injector: Optional[FaultInjector] = None,
                 resilience: Optional[ResilienceConfig] = None,
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
        # One profiler spans analysis, collectives, determinism checks and
        # execution; it is the disabled global no-op unless a live one is
        # passed (or the global one is enabled), and never perturbs results.
        self.profiler = profiler if profiler is not None else get_profiler()
        # Fault injection + recovery: both default to the environment
        # (REPRO_FAULT_SEED / REPRO_FAULT_POLICY) and are None in normal
        # runs — the same zero-perturbation discipline as the profiler.
        self.injector = injector if injector is not None \
            else FaultInjector.from_env()
        self.resilience = resilience if resilience is not None \
            else ResilienceConfig.from_env()
        if backend != "inprocess" and self.resilience is not None:
            # Recovery re-runs shards inside one process against shared
            # logs; forked/threaded replicas cannot be restarted in place.
            raise ValueError(
                f"the {backend} backend does not support recovery "
                "policies; drop resilience= (or REPRO_FAULT_POLICY) or "
                "use backend='inprocess'")
        if backend == "loopback" and timing_oracle is not None:
            # The oracle dispatches on runtime._current_shard, which
            # concurrent replica threads race on.
            raise ValueError("the loopback backend does not support a "
                             "timing_oracle; use backend='inprocess'")
        self._safe_checks = safe_checks
        self._check_batch = check_batch
        self._auto_trace = auto_trace
        # The driver shard performs effects; replicas replay against its
        # logs.  Normally shard 0 — recovery re-elects min(active) when the
        # driver itself is quarantined.
        self.driver_shard = 0
        self.quarantined: set = set()
        self.reports: List[RecoveryReport] = []
        self._recoveries = 0
        self._prefix_expectation: Optional[Tuple[int, int, int]] = None
        self._sharding_cache: Dict[Tuple[int, frozenset], ShardingFunction] \
            = {}
        # One collectives instance spans determinism checks and recovery
        # localization, so CollectiveStats accumulates retransmission and
        # backoff accounting across the whole run (including retries).
        self.collectives = Collectives(num_shards, profiler=self.profiler,
                                       injector=self.injector)
        # auto_trace turns on transparent trace identification: repeated
        # fragments of the launch stream are memoized and replayed without
        # any begin_trace/end_trace calls in the control program.
        self.pipeline = DCRPipeline(num_shards, auto_trace=auto_trace,
                                    profiler=self.profiler,
                                    injector=self.injector)
        self.monitor = self._make_monitor()
        self.deferred = DeferredOpManager(num_shards)
        self.timing_oracle = timing_oracle
        # Driver logs replayed by the other shards, keyed by call order.
        self._resources: List[Any] = []
        self._futures: List[Union[Future, FutureMap]] = []
        self._deferred_keys: Dict[int, Any] = {}
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

    def _make_monitor(self) -> DeterminismMonitor:
        policy = self.resilience.policy if self.resilience is not None \
            else None
        monitor = DeterminismMonitor(
            self.num_shards, batch=self._check_batch,
            enabled=self._safe_checks, collectives=self.collectives,
            profiler=self.profiler, injector=self.injector,
            localize=policy is not None and policy is not
            RecoveryPolicy.ABORT)
        for s in self.quarantined:
            monitor.quarantine(s)
        return monitor

    # -- replicated execution ------------------------------------------------------

    def execute(self, control: Callable[..., Any], *args: Any) -> Any:
        """Run ``control(ctx, *args)`` replicated across all shards.

        Returns the driver shard's return value.  Raises
        :class:`ControlDeterminismViolation` if any shard diverges —
        unless a :class:`~repro.resilience.ResilienceConfig` with a
        recovering policy (DEGRADE/RESTART) is attached, in which case the
        runtime quarantines or restarts the failed shard and completes the
        program on the survivors (Theorem 1 guarantees the identical task
        graph).
        """
        if getattr(self, "_executed", False):
            raise RuntimeError(
                "Runtime instances are single-use: the resource/future logs "
                "and analysis state belong to one replicated execution — "
                "create a fresh Runtime for another run")
        self._executed = True
        if self.backend != "inprocess":
            return self._execute_gang(control, args)
        if self.resilience is None:
            return self._execute_replicated(control, args)
        while True:
            try:
                result = self._execute_replicated(control, args)
            except (ControlDeterminismViolation, ShardCrash) as failure:
                self._handle_failure(failure)
                continue
            self._verify_recovered_prefix()
            return result

    def _execute_replicated(self, control: Callable[..., Any],
                            args: Tuple[Any, ...]) -> Any:
        """One replicated execution epoch over the active shard set."""
        res = self.resilience
        prof = self.profiler
        self._result = None
        for shard in range(self.num_shards):
            if shard in self.quarantined:
                continue
            try:
                self._run_shard(shard, control, args)
            except ShardCrash as crash:
                if prof.enabled:
                    prof.instant(shard, CAT_FAULT, EV_SHARD_CRASH,
                                 seq=crash.seq, reason=crash.reason)
                    prof.count("faults.crashes")
                if (res is not None
                        and res.policy is RecoveryPolicy.RESTART
                        and shard != self.driver_shard
                        and self._recoveries < res.max_recoveries):
                    # A crashed *replica* can rejoin in place: it performs
                    # no effects, so a fresh hasher and a re-run of its
                    # replay are all it needs — it rejoins determinism
                    # checking at the next batch boundary.
                    self._recoveries += 1
                    self._restart_replica(shard, crash, control, args)
                else:
                    raise
        self.monitor.flush()
        self._drain_deferred()
        self.pipeline.validate()
        return self._result

    def _run_shard(self, shard: int, control: Callable[..., Any],
                   args: Tuple[Any, ...],
                   monitor: Optional[DeterminismMonitor] = None) -> None:
        prof = self.profiler
        self._current_shard = shard
        ctx = Context(self, shard, monitor=monitor)
        if prof.enabled:
            prof.begin(shard, CAT_CONTROL, EV_CONTROL_REPLAY)
        try:
            ret = control(ctx, *args)
            ctx._finish()
        finally:
            if prof.enabled:
                prof.end(shard, CAT_CONTROL, EV_CONTROL_REPLAY)
        if shard == self.driver_shard:
            self._result = ret

    # -- gang backends (loopback / shm / tcp) --------------------------------

    def _execute_gang(self, control: Callable[..., Any],
                      args: Tuple[Any, ...]) -> Any:
        """Replicated execution with each replica a rank of a gang.

        Phase 1 runs the driver shard in the calling thread exactly as
        the in-process backend does — effects, analysis, and the
        resource/future logs all live here, and the driver's API calls
        accumulate in its hasher (``self.monitor`` hosts every shard, so it
        never closes a window while the other hashers are empty).  Phase 2 starts one
        replica per remaining shard on a :class:`~repro.dist.gang.Gang`
        — a thread over the queue mesh for ``loopback``, a forked process
        over the backend's fabric otherwise; each replays the control
        program against the driver's logs (shared, or inherited across
        the fork) with its own rank-local
        :class:`~repro.core.determinism.DeterminismMonitor`, while the
        caller participates as the driver rank by feeding its
        pre-recorded digest stream through the same windowed all-reduce —
        so hash checking, divergence localization, and the final count
        comparison all run over the real transport.
        """
        from ..dist.gang import Gang

        driver = self.driver_shard
        self._run_shard(driver, control, args)
        if self.num_shards == 1:
            self._drain_deferred()
            self.pipeline.validate()
            return self._result
        gang = Gang(self.backend, self.num_shards, name="repro-replica")
        violation: Optional[ControlDeterminismViolation] = None
        try:
            for shard in range(self.num_shards):
                if shard != driver:
                    gang.spawn(shard, _replica_main, self, control, args,
                               gang.forks)
            gang.release_parent(keep=driver)
            try:
                self._drive_dist_check(gang.fabric.transport(driver))
            except ControlDeterminismViolation as exc:
                # Every rank observes the divergence in the same collective
                # (the replicas raise too); keep the driver's diagnosis and
                # re-raise it once the gang is reaped.
                violation = exc
            payloads, failures = gang.collect(REPLICA_TIMEOUT_S)
        finally:
            gang.terminate()
        if violation is not None:
            raise violation
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
            profiler=self.profiler, injector=injector, localize=True)

    def _drive_dist_check(self, transport: Any) -> None:
        """Driver-side determinism participation, from the recorded stream.

        Feeds the driver's already-computed call digests through a
        rank-local monitor at the same window cadence the replicas use
        (record → maybe-check per call, one final flush).
        """
        recorded = self.monitor.hasher(self.driver_shard)
        try:
            monitor = self._dist_monitor(transport)
            hasher = monitor.hasher(self.driver_shard)
            for digest, descr in zip(recorded.calls, recorded.descriptions):
                hasher.calls.append(digest)
                hasher.descriptions.append(descr)
                monitor.maybe_check()
            monitor.flush()
            self.dist_checks = monitor.checks_performed
        finally:
            transport.close()

    # -- recovery ------------------------------------------------------------

    def _report(self, action: str, failure: BaseException,
                culprits: Sequence[int], **details: Any) -> RecoveryReport:
        res = self.resilience
        rep = RecoveryReport(
            policy=res.policy.value if res is not None else "none",
            action=action,
            failure=str(failure),
            culprit_shards=list(culprits),
            seq=getattr(failure, "seq", None),
            attempt=self._recoveries,
            diagnosis=diagnosis_to_dict(getattr(failure, "diagnosis", None)),
            injected=[[str(x) for x in key]
                      for key in (self.injector.injected
                                  if self.injector is not None else [])],
            details=dict(details),
        )
        self.reports.append(rep)
        if res is not None and res.report_dir:
            rep.write(res.report_dir, len(self.reports))
        return rep

    def _handle_failure(self, failure: BaseException) -> None:
        """Apply the configured policy; raises unless a retry should run."""
        res = self.resilience
        assert res is not None
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        culprits = identify_culprits(failure)
        self._recoveries += 1
        policy = res.policy
        if policy is RecoveryPolicy.ABORT:
            self._report("abort", failure, culprits)
            raise failure
        if policy is RecoveryPolicy.LOCALIZE:
            # Detection already ran the localization protocol (the monitor
            # was built with localize=True); the violation carries the
            # diagnosis — report it and surface the structured error.
            self._report("localize", failure, culprits)
            raise failure
        if self._recoveries > res.max_recoveries:
            self._report("exhausted", failure, culprits,
                         max_recoveries=res.max_recoveries)
            raise failure
        if policy is RecoveryPolicy.DEGRADE:
            if not culprits:
                self._report("abort", failure, culprits,
                             reason="no culprit shard identified")
                raise failure
            survivors = [s for s in range(self.num_shards)
                         if s not in self.quarantined and s not in culprits]
            if not survivors:
                self._report("abort", failure, culprits,
                             reason="quarantine would leave no survivors")
                raise failure
            self._capture_prefix_expectation(exclude=set(culprits))
            for s in culprits:
                self._quarantine(s)
            self._report("quarantine", failure, culprits,
                         quarantined=sorted(self.quarantined),
                         driver_shard=self.driver_shard)
            self._reset_epoch()
        else:  # RESTART: re-execute the epoch with the full shard set.
            self._capture_prefix_expectation(exclude=set())
            self._report("restart", failure, culprits)
            self._reset_epoch()
        if prof.enabled:
            prof.complete(CONTROL_SHARD, CAT_RESILIENCE, EV_RECOVERY, t0,
                          prof.now_us() - t0, action=policy.value,
                          shards=list(culprits), attempt=self._recoveries)
            prof.count("resilience.recoveries")

    def _quarantine(self, shard: int) -> None:
        self.quarantined.add(shard)
        if self.driver_shard in self.quarantined:
            self.driver_shard = min(
                s for s in range(self.num_shards)
                if s not in self.quarantined)
        prof = self.profiler
        if prof.enabled:
            prof.instant(shard, CAT_RESILIENCE, EV_QUARANTINE,
                         new_driver=self.driver_shard)
            prof.count("resilience.quarantined")

    def _reset_epoch(self) -> None:
        """Fresh analysis/storage state for a clean re-execution.

        Theorem 1 (DEP_rep ≡ DEP_seq) licenses this: any active shard
        subset recomputes the identical task graph from the same control
        program, so recovery re-analysis converges to the fault-free
        result.  Cumulative accounting (collectives stats, injector log,
        recovery reports, executed-point counter) survives the reset.
        """
        self.store = RegionStore()
        self.pipeline = DCRPipeline(
            self.num_shards, auto_trace=self._auto_trace,
            profiler=self.profiler, injector=self.injector)
        self.monitor = self._make_monitor()
        self.deferred = DeferredOpManager(self.num_shards)
        for s in self.quarantined:
            self.deferred.quarantine(s)
        self._resources = []
        self._futures = []
        self._deferred_keys = {}
        self._result = None

    def _restart_replica(self, shard: int, crash: ShardCrash,
                         control: Callable[..., Any],
                         args: Tuple[Any, ...]) -> None:
        """RESTART a crashed replica in place: the driver's effects are
        intact and a replica has none, so nothing is rolled back."""
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        self._report("restart-replica", crash, [shard])
        self.monitor.reset_shard(shard)
        if prof.enabled:
            prof.complete(shard, CAT_RESILIENCE, EV_RECOVERY, t0,
                          prof.now_us() - t0, action="restart-replica",
                          shards=[shard], attempt=self._recoveries)
            prof.count("resilience.recoveries")
        self._run_shard(shard, control, args)

    def _capture_prefix_expectation(self, exclude: set) -> None:
        """Remember a survivor's digest of the verified call prefix.

        After recovery re-executes, the new run's stream over the same
        prefix must hash identically — the observable form of the ISSUE's
        "replay the unverified suffix" guarantee (the verified prefix is
        re-derived bit-identically; only the unverified suffix was ever in
        doubt).
        """
        m = self.monitor
        verified = m.verified
        if verified <= 0:
            self._prefix_expectation = None
            return
        witness = next(
            (s for s in m.active_shards
             if s not in exclude and len(m.hasher(s).calls) >= verified),
            None)
        if witness is None:
            self._prefix_expectation = None
            return
        self._prefix_expectation = (
            m.window_digest(witness, 0, verified), verified, witness)

    def _verify_recovered_prefix(self) -> None:
        exp = self._prefix_expectation
        if exp is None:
            return
        self._prefix_expectation = None
        digest, verified, witness = exp
        m = self.monitor
        for s in m.active_shards:
            if len(m.hasher(s).calls) >= verified:
                got = m.window_digest(s, 0, verified)
                if got != digest:
                    raise RuntimeError(
                        f"recovery diverged from the verified prefix: "
                        f"shard {s}'s first {verified} calls hash "
                        f"{got:032x}, original shard {witness} hashed "
                        f"{digest:032x}")
                return

    # -- quarantine-aware placement -------------------------------------------

    def _effective_sharding(self, base: ShardingFunction) -> ShardingFunction:
        """The sharding actually applied: remapped around quarantined shards.

        The *base* function (what the mapper selected) is what every shard
        hashes — the quarantine remap is a pure, shared function of the
        quarantine set, so hashing the base keeps recovered runs' call
        streams bit-identical to the original (prefix verification relies
        on this).
        """
        if not self.quarantined:
            return base
        key = (base.sid, frozenset(self.quarantined))
        derived = self._sharding_cache.get(key)
        if derived is None:
            derived = base.with_quarantine(self.quarantined)
            self._sharding_cache[key] = derived
        return derived

    def _effective_owner(self, owner_shard: int) -> int:
        """Individual-launch owner, remapped off quarantined shards."""
        owner = owner_shard % self.num_shards
        if owner not in self.quarantined:
            return owner
        survivors = [s for s in range(self.num_shards)
                     if s not in self.quarantined]
        return survivors[owner % len(survivors)]

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
                    for s in range(self.num_shards)
                    if s not in self.quarantined]
        digests = {self.driver_shard: stream_digest(
            self.monitor.hasher(self.driver_shard).calls)}
        for rep in self.replica_reports:
            digests[rep["shard"]] = rep["stream_digest"]
        return [digests[s] for s in sorted(digests)]

    def _drain_deferred(self) -> None:
        """Apply the finalizer-deferred deletions every active shard has
        announced (§4.3); the rest stay pending in ``self.deferred``."""
        for hook in self._drain_hooks:
            hook()
        for key in self.deferred.poll():
            self._apply_deletion(self._deferred_keys.pop(key))

    def _apply_deletion(self, target: Any) -> None:
        if isinstance(target, tuple) and target[0] == "field":
            _tag, region, field = target
            self.store.deallocate_field(region.tree_id, field)
            if field.name in region.field_space:
                region.field_space.remove_field(field.name)
        elif isinstance(target, LogicalRegion):
            for f in target.field_space.fields:
                self.store.deallocate_field(target.tree_id, f)

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
    """One replica rank: replay its shard, checking over the transport.

    The replica sees the driver's resource/future logs (shared between
    threads, inherited across a fork), so the replay resolves every
    handle and future exactly as the in-process replicas do; only the
    determinism checking changes transport.  ``ship_profile`` is set for
    forked replicas, whose profiler the driver cannot otherwise read.
    """
    monitor = runtime._dist_monitor(transport, injector=runtime.injector)
    runtime._run_shard(transport.rank, control, args, monitor=monitor)
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

    Every method hashes itself into the determinism monitor.  Shard 0
    performs effects; other shards replay against the logs.
    """

    def __init__(self, runtime: Runtime, shard: int,
                 monitor: Optional[DeterminismMonitor] = None):
        self.runtime = runtime
        self.shard = shard
        self.num_shards = runtime.num_shards
        # A gang replica brings its own rank-local monitor; in-process
        # shards share the runtime's.
        self._monitor = monitor if monitor is not None else runtime.monitor
        self._hasher = self._monitor.hasher(shard)
        self._res_cursor = 0
        self._fut_cursor = 0
        self._in_finalizer = False

    @property
    def is_driver(self) -> bool:
        """Whether this shard performs effects (normally shard 0; recovery
        re-elects the lowest surviving shard when 0 is quarantined)."""
        return self.shard == self.runtime.driver_shard

    # -- internal plumbing ------------------------------------------------------------

    def _record(self, call: str, *args: Any) -> None:
        self._hasher.record(call, *args)
        self._monitor.maybe_check()

    def _intern_resource(self, call: str, factory: Callable[[], Any]) -> Any:
        """Create on the driver, replay by creation order on other shards."""
        log = self.runtime._resources
        if self.is_driver:
            obj = factory()
            log.append(obj)
        else:
            if self._res_cursor >= len(log):
                raise ControlDeterminismViolation(
                    self._res_cursor,
                    [f"shard {self.shard} issued extra {call}"],
                    shard_ids=[self.shard])
            obj = log[self._res_cursor]
        self._res_cursor += 1
        return obj

    def _intern_future(self, factory: Callable[[], Union[Future, FutureMap]]
                       ) -> Union[Future, FutureMap]:
        log = self.runtime._futures
        if self.is_driver:
            fut = factory()
            log.append(fut)
        else:
            if self._fut_cursor >= len(log):
                raise ControlDeterminismViolation(
                    self._fut_cursor,
                    [f"shard {self.shard} issued an extra launch"],
                    shard_ids=[self.shard])
            fut = log[self._fut_cursor]
        self._fut_cursor += 1
        return fut

    def _finish(self) -> None:
        self._record("task_complete", self.shard >= -1)

    # -- resource creation ----------------------------------------------------------------

    def create_field_space(self, fields: Iterable[Tuple[str, object]],
                           name: str = "") -> FieldSpace:
        """Allocate a field space from (name, dtype) pairs."""
        fields = list(fields)
        self._record("create_field_space",
                     [(n, str(np.dtype(d))) for n, d in fields], name)
        return self._intern_resource(
            "create_field_space", lambda: FieldSpace(fields, name=name))

    def create_index_space(self, extent: Union[int, Tuple[int, ...]],
                           name: str = "") -> IndexSpace:
        """Allocate a dense 0-based index space of the given extents."""
        ext = (extent,) if isinstance(extent, int) else tuple(extent)
        self._record("create_index_space", list(ext), name)
        return self._intern_resource(
            "create_index_space",
            lambda: IndexSpace.from_extent(*ext, name=name))

    def create_region(self, ispace: IndexSpace, fspace: FieldSpace,
                      name: str = "") -> LogicalRegion:
        """Create a root region (and its backing storage)."""
        self._record("create_region", ispace, fspace, name)
        def make() -> LogicalRegion:
            region = LogicalRegion(ispace, fspace, name=name)
            self.runtime.store.allocate(region)
            return region
        return self._intern_resource("create_region", make)

    def partition_equal(self, region: LogicalRegion, pieces: int,
                        dim: int = 0, name: str = "") -> Partition:
        """Disjoint, complete blockwise partition along one dimension."""
        self._record("partition_equal", region, pieces, dim, name)
        return self._intern_resource(
            "partition_equal",
            lambda: region.partition_equal(pieces, dim=dim, name=name))

    def partition_tiles(self, region: LogicalRegion, tiles: Tuple[int, ...],
                        name: str = "") -> Partition:
        """Disjoint, complete n-D tiling of a region."""
        self._record("partition_tiles", region, list(tiles), name)
        return self._intern_resource(
            "partition_tiles", lambda: region.partition_tiles(tiles, name=name))

    def partition_ghost(self, region: LogicalRegion, base: Partition,
                        halo: int, dim: Optional[int] = None,
                        name: str = "") -> Partition:
        """Aliased ghost partition: each base piece grown by ``halo``."""
        self._record("partition_ghost", region, base, halo,
                     -1 if dim is None else dim, name)
        return self._intern_resource(
            "partition_ghost",
            lambda: region.partition_ghost(base, halo, dim=dim, name=name))

    def partition_by_field(self, region: LogicalRegion,
                           colors: Sequence[Hashable],
                           color_of: Callable, name: str = "") -> Partition:
        """Dependent partitioning: piece = per-point color (OOPSLA'13).

        ``color_of`` must be control deterministic; its evaluation over the
        region is folded into the call hash.
        """
        from ..regions import partition_by_field
        assignment = [(list(p), str(color_of(p)))
                      for p in region.index_space]
        self._record("partition_by_field", region, assignment, name)
        return self._intern_resource(
            "partition_by_field",
            lambda: partition_by_field(region, colors, color_of, name=name))

    def partition_by_image(self, dest: LogicalRegion, source: Partition,
                           pointer: Callable, name: str = "") -> Partition:
        """Dependent partitioning: image of a pointer field (OOPSLA'16)."""
        from ..regions import partition_by_image
        arrows = [(list(p), sorted(map(str, pointer(p))))
                  for sub in source for p in sub.index_space]
        self._record("partition_by_image", dest, source, arrows, name)
        return self._intern_resource(
            "partition_by_image",
            lambda: partition_by_image(dest, source, pointer, name=name))

    def partition_by_preimage(self, dest: LogicalRegion, target: Partition,
                              pointer: Callable, name: str = "") -> Partition:
        """Dependent partitioning: preimage of a pointer field."""
        from ..regions import partition_by_preimage
        arrows = [(list(p), sorted(map(str, pointer(p))))
                  for p in dest.index_space]
        self._record("partition_by_preimage", dest, target, arrows, name)
        return self._intern_resource(
            "partition_by_preimage",
            lambda: partition_by_preimage(dest, target, pointer, name=name))

    def partition_by_points(self, region: LogicalRegion,
                            pieces: Dict[Hashable, Sequence],
                            disjoint: Optional[bool] = None,
                            name: str = "") -> Partition:
        """Arbitrary (possibly dynamic) partition from explicit point lists —
        the circuit app's dynamically computed graph partition."""
        norm = {
            color: tuple(sorted((p,) if isinstance(p, int) else tuple(p)
                                for p in pts))
            for color, pts in pieces.items()
        }
        self._record("partition_by_points", region,
                     sorted((str(c), list(map(list, pts)))
                            for c, pts in norm.items()),
                     name)
        def make() -> Partition:
            spaces = {
                color: IndexSpace(points=pts, name=f"{name}[{color}]")
                for color, pts in norm.items()
            }
            return region.partition_by_spaces(spaces, disjoint=disjoint,
                                              name=name)
        return self._intern_resource("partition_by_points", make)

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
        norm = tuple((tuple(int(x) for x in lo), tuple(int(x) for x in hi))
                     for lo, hi in rects)
        self._record("partition_rects", region,
                     [[list(lo), list(hi)] for lo, hi in norm],
                     -1 if disjoint is None else int(disjoint),
                     -1 if complete is None else int(complete), name)
        def make() -> Partition:
            spaces = {
                i: IndexSpace(rect=Rect(lo, hi), name=f"{name}[{i}]")
                for i, (lo, hi) in enumerate(norm)
            }
            return region.partition_by_spaces(spaces, disjoint=disjoint,
                                              complete=complete, name=name)
        return self._intern_resource("partition_rects", make)

    # -- data operations --------------------------------------------------------------------

    def fill(self, region: LogicalRegion,
             fields: Union[str, Iterable[str]], value) -> None:
        """Fill the named fields of a region with one value (an operation)."""
        names = [fields] if isinstance(fields, str) else sorted(fields)
        self._record("fill", region, names, float(value))
        fobjs = frozenset(region.field_space[n] for n in names)
        op = Operation(
            "fill",
            [CoarseRequirement(region, fobjs, WRITE_DISCARD)],
            owner_shard=self.runtime._effective_owner(0),
            name=f"fill({region.name})")
        op.fill_value = value
        if self.is_driver:
            self.runtime.pipeline.analyze(op)
            for n in names:
                self.runtime.store.fill(region, region.field_space[n], value)

    # -- task launches -------------------------------------------------------------------------

    def _normalize_reqs(
        self, reqs: Sequence[Tuple]
    ) -> List[Tuple[Union[LogicalRegion, Partition], frozenset, Privilege,
                    Optional[ProjectionFunction]]]:
        out = []
        for spec in reqs:
            target, fields, priv = spec[0], spec[1], _privilege(spec[2])
            proj = spec[3] if len(spec) > 3 else IDENTITY_PROJECTION
            fspace = (target.parent_region.field_space
                      if isinstance(target, Partition)
                      else target.field_space)
            names = [fields] if isinstance(fields, str) else sorted(fields)
            fobjs = frozenset(fspace[n] for n in names)
            out.append((target, fobjs, priv,
                        proj if isinstance(target, Partition) else None))
        return out

    @staticmethod
    def _task_key(fn: Callable) -> str:
        """A stable identity for a task function, equal across shards.

        ``__name__`` alone is not enough: two different lambdas both hash as
        "<lambda>" and a divergent branch between them would go unnoticed.
        The defining module and line pin down the code object.
        """
        code = getattr(fn, "__code__", None)
        if code is None:
            return fn.__qualname__
        return f"{fn.__module__}:{fn.__qualname__}:{code.co_firstlineno}"

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
        """
        norm = self._normalize_reqs(reqs)
        self._record("launch", self._task_key(fn),
                     [(t, sorted(f.name for f in fl), p.kind.value)
                      for t, fl, p, _ in norm],
                     list(args), list(future_args), owner_shard)
        def do() -> Future:
            op = Operation(
                "task",
                [CoarseRequirement(t, fl, p, pr) for t, fl, p, pr in norm],
                owner_shard=self.runtime._effective_owner(owner_shard),
                name=fn.__name__, body=fn, cost=cost)
            op.body_args = tuple(args) + tuple(f.get() for f in future_args)
            record = self.runtime.pipeline.analyze(op)
            value = self._execute_point(op, record.point_tasks[0],
                                        op.body_args)
            fut = Future(self._oracle_binding())
            fut.resolve(value)
            return fut
        return self._intern_future(do)  # type: ignore[return-value]

    def index_launch(self, fn: Callable[..., Any], domain: Sequence[Hashable],
                     reqs: Sequence[Tuple], args: Sequence[Any] = (),
                     future_args: Sequence[Future] = (),
                     cost: float = 0.0) -> FutureMap:
        """Launch a group (index) task over ``domain``; one future per point.

        This is the Regent-transformed form ``t(p[f(i)])`` (§4) that makes
        the coarse analysis cost independent of the number of points.
        ``future_args`` behave as in :meth:`launch`.
        """
        norm = self._normalize_reqs(reqs)
        domain = list(domain)
        if not domain:
            raise ValueError(
                f"index_launch of {fn.__name__} over an empty domain — "
                f"launch at least one point (or skip the launch)")
        sharding = self.runtime.mapper.select_sharding("task", fn.__name__)
        self._record("index_launch", self._task_key(fn), domain,
                     [(t, sorted(f.name for f in fl), p.kind.value,
                       pr.pid if pr else -1)
                      for t, fl, p, pr in norm],
                     list(args), list(future_args), sharding.sid)
        def do() -> FutureMap:
            op = Operation(
                "task",
                [CoarseRequirement(t, fl, p, pr) for t, fl, p, pr in norm],
                launch_domain=domain,
                sharding=self.runtime._effective_sharding(sharding),
                name=fn.__name__, body=fn, cost=cost)
            op.body_args = tuple(args) + tuple(f.get() for f in future_args)
            record = self.runtime.pipeline.analyze(op)
            futures: Dict[Hashable, Future] = {}
            for pt in record.point_tasks:
                value = self._execute_point(op, pt, op.body_args)
                f = Future(self._oracle_binding())
                f.resolve(value)
                futures[pt.point] = f
            return FutureMap(futures)
        return self._intern_future(do)  # type: ignore[return-value]

    def _execute_point(self, op: Operation, pt: PointTask,
                       args: Sequence[Any]) -> Any:
        if not self.is_driver:  # pragma: no cover - only the driver executes
            return None
        self.runtime.executed_points += 1
        assert op.body is not None
        region_args = [RegionArg(self.runtime.store, req)
                       for req in pt.requirements]
        prof = self.runtime.profiler
        if not prof.enabled:
            if op.is_group:
                return op.body(pt.point, *region_args, *args)
            return op.body(*region_args, *args)
        # Profiled path: the span lands on the *owning* shard's timeline
        # even though the functional executor runs everything on shard 0.
        t0 = prof.now_us()
        if op.is_group:
            value = op.body(pt.point, *region_args, *args)
        else:
            value = op.body(*region_args, *args)
        prof.complete(pt.shard, CAT_EXEC, EV_EXEC_POINT, t0,
                      prof.now_us() - t0, op=op.name, point=str(pt.point))
        prof.count("exec.points")
        return value

    def _oracle_binding(self):
        """Bind ``is_ready`` to the *currently replaying* shard.

        Futures are interned (all shards share one object), so the timing
        oracle must look up which shard is asking at call time — that is
        what lets tests model per-shard timing skew (Fig. 5).
        """
        oracle = self.runtime.timing_oracle
        runtime = self.runtime
        if oracle is None:
            return None
        return lambda fut: oracle(getattr(runtime, "_current_shard", 0), fut)

    # -- futures & control helpers ------------------------------------------------------------

    def get_value(self, future: Future) -> Any:
        """Block for a future's value; identical on every shard (hashed)."""
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
        slot, so fence-coverage checks, the spy validator, and the event
        replayer's barrier eras all see it; the synchronous executor
        already honors program order.
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
        if self.is_driver:
            self.runtime.pipeline.begin_trace(trace_id)

    def end_trace(self) -> None:
        """Finish the current trace capture/replay."""
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
            self.runtime._deferred_keys[region.uid] = region
            self.runtime.deferred.announce(self.shard, region.uid)
            return
        self._record("delete_region", region)
        if self.is_driver:
            self.runtime._apply_deletion(region)

    def delete_field(self, region: LogicalRegion, field_name: str) -> None:
        """Delete one field (deferred when inside a finalizer)."""
        f = region.field_space[field_name]
        if self._in_finalizer:
            key = ("field", region.uid, f.fid)
            self.runtime._deferred_keys[key] = ("field", region, f)
            self.runtime.deferred.announce(self.shard, key)
            return
        self._record("delete_field", region, field_name)
        if self.is_driver:
            self.runtime._apply_deletion(("field", region, f))
