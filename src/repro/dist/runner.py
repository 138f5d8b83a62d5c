"""Launch, supervise, and merge an N-shard replicated run.

Two ways to run the same :class:`~repro.dist.programs.ProgramSpec`:

* :func:`run_reference` — the serial in-process reference.  No transport
  at all: each shard replica is replayed one after another with a plain
  :class:`~repro.core.determinism.ShardHasher`, producing the conformance
  artifacts the other backends must match byte-for-byte.
* :class:`DistRunner` — one rank per shard on a
  :class:`~repro.dist.gang.Gang`: threads over the in-process queue mesh
  for ``backend="loopback"`` (real collective schedules, real frames, one
  process; what the unit tests use), forked OS processes sharing nothing
  but the fabric for the rest (the paper's actual deployment shape).
  Each rank is a :class:`~repro.dist.worker.ShardWorker` that takes one
  job — the same worker a serving gang feeds a stream of them.

Supervision (one shared deadline, silence is a failure, no orphaned
workers on any exit path) is the launcher's; see ``docs/dist.md``,
"Gang lifecycle".
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, List, Optional

from ..core.determinism import ShardHasher
from ..core.pipeline import DCRPipeline
from .gang import Channel, Gang
from .programs import ProgramSpec
from .report import MergedReport, ShardReport, merge_reports
from .transport import DEFAULT_DEADLINE_S, PROCESS_BACKENDS, Transport
from .worker import ShardWorker, replay_spec

__all__ = ["DistRunner", "run_reference", "BACKENDS"]

#: "loopback" threads transports in one process; the rest fork one worker
#: process per shard over the matching fabric ("shm" = shared-memory
#: rings, "tcp" = socket mesh).
BACKENDS = ("loopback",) + PROCESS_BACKENDS


def run_reference(spec: ProgramSpec, num_shards: int) -> MergedReport:
    """Serial in-process reference run — the conformance ground truth.

    Replays every shard replica in one thread of one process, recording
    the identical call stream the distributed workers record (same
    :func:`~repro.dist.worker.op_signature` helper), with fences counted
    but not synchronized (there is nothing to synchronize with).
    """
    reports: List[ShardReport] = []
    for rank in range(num_shards):
        t0 = time.perf_counter()
        hasher = ShardHasher(rank)
        pipeline = DCRPipeline(num_shards)
        replay_spec(spec, pipeline, hasher.record, lambda: None)
        reports.append(ShardReport.from_replay(
            rank, "inprocess", pipeline, hasher.calls, t0, checks=0))
    return merge_reports(reports, backend="inprocess")


def _run_one_job(transport: Transport, channel: Channel,
                 spec: ProgramSpec, backend: str, batch: int,
                 profile_dir: Optional[str]) -> None:
    """A one-shot rank: replay one program, report, exit."""
    worker = ShardWorker(transport, backend, batch=batch,
                         profile_dir=profile_dir)
    report = worker.run_job(spec)
    channel.send(("ok", dataclasses.replace(
        report, profile_path=worker.save_profile())))


class DistRunner:
    """Run one spec at N shards on a chosen backend; merge the reports."""

    def __init__(self, spec: ProgramSpec, num_shards: int,
                 backend: str = "tcp", batch: int = 64,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 join_timeout_s: float = 60.0,
                 profile_dir: Optional[str] = None, **fabric_kwargs: Any):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.spec = spec
        self.num_shards = num_shards
        self.backend = backend
        self.batch = batch
        self.deadline_s = deadline_s
        self.join_timeout_s = join_timeout_s
        self.profile_dir = profile_dir
        self.fabric_kwargs = fabric_kwargs

    def run(self) -> MergedReport:
        gang = Gang(self.backend, self.num_shards,
                    deadline_s=self.deadline_s, **self.fabric_kwargs)
        try:
            for rank in range(self.num_shards):
                gang.spawn(rank, _run_one_job, self.spec, self.backend,
                           self.batch, self.profile_dir)
            gang.release_parent()
            reports, failures = gang.collect(self.join_timeout_s)
        finally:
            gang.terminate()
        if failures:
            raise RuntimeError(
                f"{self.backend} run failed: " + "; ".join(failures))
        return merge_reports([reports[r] for r in sorted(reports)],
                             backend=self.backend)
