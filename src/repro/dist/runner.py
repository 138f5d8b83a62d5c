"""The serial in-process reference run: the conformance ground truth.

:func:`run_reference` replays a :class:`~repro.dist.programs.ProgramSpec`
with no transport at all: each shard replica is replayed one after
another with a plain :class:`~repro.core.determinism.ShardHasher`,
producing the conformance artifacts every gang backend must match byte
for byte.  A gang runs the same spec on a one-job
:class:`~repro.service.gang.ServiceGang` (``python -m repro.tools.dist``).
"""

from __future__ import annotations

import time
from typing import List

from ..core.determinism import ShardHasher
from ..core.pipeline import DCRPipeline
from .programs import ProgramSpec
from .report import MergedReport, ShardReport, merge_reports
from .transport import PROCESS_BACKENDS
from .worker import replay_spec

__all__ = ["run_reference", "BACKENDS"]

#: "loopback" threads transports in one process; the rest fork one worker
#: process per shard over the matching fabric ("shm" = AF_UNIX socket
#: pairs, "tcp" = loopback TCP sockets).
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
