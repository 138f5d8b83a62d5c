"""The distributed backends: shard replicas as ranks of a gang.

Everything the in-process model simulates — deterministic collective
schedules, windowed determinism checking, cross-shard fences — executed
for real over a transport:

* :mod:`~repro.dist.frames` — the length-prefixed canonical wire format;
* :mod:`~repro.dist.transport` — tagged, sequenced, deadline-bounded
  shard-to-shard exchange over three interchangeable fabrics (in-process
  queues, AF_UNIX socket pairs, loopback TCP sockets);
* :mod:`~repro.dist.gang` — the one launcher that starts, supervises and
  reaps the ranks of a gang, as threads or forked processes;
* :mod:`~repro.dist.collectives` — the rank-local executor of the
  schedules in :mod:`repro.core.collectives`; handed to a
  :class:`repro.core.determinism.DeterminismMonitor`, it is also how
  control determinism is checked across ranks;
* :mod:`~repro.dist.programs` — serializable program specs every replica
  expands identically;
* :mod:`~repro.dist.worker` — one shard replica, the code every rank of
  a serving gang runs;
* :mod:`~repro.dist.runner` — the serial in-process reference run every
  backend must match;
* :mod:`~repro.dist.report` — per-shard artifacts and the conformance
  merge.

``python -m repro.tools.dist`` drives a complete run from the command
line, on a one-job :class:`~repro.service.gang.ServiceGang`; see
``docs/dist.md``.
"""

from .collectives import DistCollectives
from .frames import Frame, FrameDecoder, FrameError, decode_frame, \
    encode_frame, pack, unpack
from .gang import Channel, ChannelClosed, Gang
from .programs import OpSpec, ProgramSpec, build_field, build_operations, \
    stencil_program
from .report import MergedReport, ShardReport, merge_reports
from .runner import BACKENDS, run_reference
from .transport import DEFAULT_DEADLINE_S, PROCESS_BACKENDS, \
    Fabric, LoopbackFabric, PeerGone, ReorderWindowExceeded, \
    TCPFabric, Transport, TransportError, UnixFabric, \
    fabric_for_backend
from .worker import ShardWorker, op_signature, replay

__all__ = [
    "Frame", "FrameDecoder", "FrameError", "decode_frame", "encode_frame",
    "pack", "unpack",
    "Transport", "Fabric", "LoopbackFabric", "UnixFabric", "TCPFabric",
    "TransportError", "ReorderWindowExceeded",
    "PeerGone", "DEFAULT_DEADLINE_S", "PROCESS_BACKENDS",
    "fabric_for_backend",
    "DistCollectives",
    "OpSpec", "ProgramSpec", "build_field", "build_operations",
    "stencil_program",
    "ShardReport", "MergedReport", "merge_reports",
    "Gang", "Channel", "ChannelClosed",
    "ShardWorker", "op_signature", "replay",
    "run_reference", "BACKENDS",
]
