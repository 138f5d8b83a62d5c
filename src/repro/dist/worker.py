"""One shard replica: what each rank of a gang runs.

A :class:`ShardWorker` owns everything one replica of the control program
needs — a :class:`~repro.dist.collectives.DistCollectives` over its
transport and, per program, a :class:`~repro.core.pipeline.DCRPipeline`
and a rank-local :class:`~repro.core.determinism.DeterminismMonitor` — and
replays
each :class:`~repro.dist.programs.ProgramSpec` it is handed exactly the
way dynamic control replication prescribes: every shard re-derives and
analyzes the *entire* operation stream, hashing each control decision
into the determinism monitor, and executes one wire barrier per
runtime-inserted cross-shard fence.

The replay helpers (:func:`op_signature`, :func:`replay`) are shared with
the serial in-process reference in :mod:`repro.dist.runner`, so both
backends hash byte-identical call streams by construction — the whole
point of the conformance property.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, List, Optional

from ..core.determinism import DeterminismMonitor
from ..core.operation import Operation
from ..core.pipeline import DCRPipeline
from ..faults.injector import FaultInjector
from ..obs.events import CAT_SERVICE, EV_JOB_DISPATCH
from ..obs.profiler import Profiler
from .collectives import DistCollectives
from .programs import ProgramSpec, build_field, build_operations
from .report import ShardReport
from .transport import Transport

__all__ = ["ShardWorker", "op_signature", "replay", "replay_spec"]


def op_signature(op: Operation) -> tuple:
    """Canonical, process-independent description of one operation.

    Region/partition objects are passed through for the hasher to intern
    by first-use order; everything else is plain data (sharding *ids*, not
    objects, mirroring how the coarse stage reasons symbolically).
    """
    return (
        op.kind,
        op.name,
        -1 if op.launch_domain is None else len(op.launch_domain),
        -1 if op.sharding is None else op.sharding.sid,
        op.owner_shard,
        # Fields are passed as *objects* (sorted by fid, i.e. creation
        # order, which every replica shares) so the hasher interns them by
        # first use — raw fids are process-global counters and differ.
        tuple((req.upper,
               tuple(sorted(req.fields, key=lambda f: f.fid)),
               req.privilege.kind.value,
               req.privilege.redop or "",
               req.projection.pid if req.projection is not None else -1)
              for req in op.coarse_reqs),
    )


def replay(pipeline: DCRPipeline, ops: List[Operation],
           record: Callable[..., Any],
           on_fence: Callable[[], Any]) -> int:
    """Drive the pipeline over ``ops``, the same way on every backend.

    For each operation: hash its signature into ``record`` (the control
    determinism stream), analyze it, then run ``on_fence`` once per fence
    the coarse stage inserted — over the wire that is a real barrier
    collective, the cross-shard fence of paper §2.3.  Returns the number
    of fences executed.
    """
    fences = 0
    for op in ops:
        record("analyze", *op_signature(op))
        rec = pipeline.analyze(op)
        for _ in rec.fences:
            on_fence()
            fences += 1
    return fences


def replay_spec(spec: ProgramSpec, pipeline: DCRPipeline,
                record: Callable[..., Any],
                on_fence: Callable[[], Any]) -> int:
    """Expand ``spec`` for ``pipeline``'s shard count and :func:`replay` it.

    The program description itself is a control decision: it is hashed
    first, so replicas expanding different specs diverge on call 0.
    """
    ops = build_operations(spec, pipeline.num_shards, build_field(spec))
    record("program", *spec.signature())
    return replay(pipeline, ops, record, on_fence)


class ShardWorker:
    """One shard replica: one transport, any number of programs.

    The worker keeps its transport and :class:`DistCollectives` alive
    across an open-ended stream of jobs (the collective operation ordinal
    keeps climbing, so consecutive jobs can never collide on a ``(kind,
    op, round)`` wire tag) while giving every job a **fresh**
    :class:`DCRPipeline` and :class:`DeterminismMonitor` — per-job
    analysis state is fully reset, so a program's conformance artifacts
    are identical whether it ran first or thousandth on the gang.  A
    one-shot :class:`~repro.dist.runner.DistRunner` run is the one-job
    case: it calls :meth:`run_job` once and exits.
    """

    def __init__(self, transport: Transport, backend: str, batch: int = 64,
                 profiler: Optional[Profiler] = None,
                 profile_dir: Optional[str] = None):
        self.transport = transport
        self.rank = transport.rank
        self.num_shards = transport.num_shards
        self.backend = backend
        self.batch = batch
        self.profile_dir = profile_dir
        self.profiler = profiler if profiler is not None else Profiler(
            enabled=profile_dir is not None)
        self.collectives = DistCollectives(transport,
                                           profiler=self.profiler)
        self.jobs_run = 0

    def rebind(self, transport: Transport) -> None:
        """Wire this replica into a replacement fabric (live rejoin).

        After a peer dies mid-collective, the survivors' transports are
        poisoned state: aborted ranks stopped at *different* collective
        ordinals, so their ``(kind, op, round)`` wire tags would never
        match again.  Rejoin therefore replaces the whole fabric and
        every rank — survivor and replacement alike — rebinds to a fresh
        transport with a fresh :class:`DistCollectives`, resetting the
        operation ordinal to zero on all ranks simultaneously.
        """
        try:
            self.transport.close()
        except Exception:  # noqa: BLE001 - old fabric may be half dead
            pass
        self.transport = transport
        self.collectives = DistCollectives(transport,
                                           profiler=self.profiler)

    def run_job(self, spec: ProgramSpec, program_id: str = "",
                session: str = "", capture_digests: bool = False,
                injector: Optional[FaultInjector] = None) -> ShardReport:
        """Replay one program on this replica; report conformance.

        ``capture_digests`` additionally returns the per-call determinism
        digests (the raw material of an analysis template).  ``injector``
        scopes injected faults to this job only — the shared plan fires on
        whichever rank it names, the other replicas run clean.
        """
        t0 = time.perf_counter()
        prof = self.profiler
        span0 = prof.now_us() if prof.enabled else 0.0
        monitor = DeterminismMonitor(
            self.num_shards, batch=self.batch, collectives=self.collectives,
            profiler=prof, injector=injector, localize=True)
        hasher = monitor.hasher(self.rank)

        def record(api_call: str, *args: Any) -> None:
            hasher.record(api_call, *args)
            monitor.maybe_check()

        pipeline = DCRPipeline(self.num_shards, profiler=prof)
        replay_spec(spec, pipeline, record, self.collectives.barrier)
        monitor.flush()
        self.jobs_run += 1
        if prof.enabled:
            prof.complete(self.rank, CAT_SERVICE, EV_JOB_DISPATCH, span0,
                          prof.now_us() - span0, program_id=program_id,
                          session=session, job=self.jobs_run)
        stats = self.collectives.stats
        return ShardReport.from_replay(
            self.rank, self.backend, pipeline, hasher.calls, t0,
            checks=monitor.checks_performed,
            collectives=dict(stats.by_kind),
            coll_rounds=stats.rounds,
            coll_messages=stats.messages,
            frames_sent=self.transport.frames_sent,
            frames_received=self.transport.frames_received,
            duplicates_dropped=self.transport.duplicates_dropped,
            out_of_order=self.transport.out_of_order,
            program_id=program_id,
            session=session,
            call_digests=tuple(hasher.calls) if capture_digests else ())

    def save_profile(self) -> str:
        """Persist the worker's whole-lifetime profile; returns its path
        (empty when not profiling)."""
        if self.profile_dir is None or not self.profiler.enabled:
            return ""
        os.makedirs(self.profile_dir, exist_ok=True)
        path = os.path.join(self.profile_dir,
                            f"shard{self.rank}.profile.json")
        self.profiler.save(path)
        return path
