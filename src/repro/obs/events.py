"""Event taxonomy of the shard-level profiler.

Every timeline event carries a *category* (one per instrumented subsystem;
becomes a Chrome-trace thread within the shard's process) and a *name*
(what happened).  The constants below are the complete vocabulary the
instrumentation emits; the exporter, the ``repro.tools.prof`` CLI, and the
schema tests all key off them, so new instrumentation should extend this
module rather than inventing ad-hoc strings.

Shards are numbered from 0; the pseudo-shard :data:`CONTROL_SHARD` holds
events that belong to the replicated control plane as a whole (coarse-stage
bookkeeping, trace-cache transitions, determinism batches) rather than to
any one shard's timeline.
"""

from __future__ import annotations

__all__ = [
    "CONTROL_SHARD",
    "CAT_PIPELINE", "CAT_COARSE", "CAT_FINE", "CAT_COLLECTIVE", "CAT_TRACE",
    "CAT_DETERMINISM", "CAT_EXEC", "CAT_CONTROL",
    "CAT_FAULT", "CAT_RESILIENCE", "CAT_SERVICE",
    "EV_OP_ANALYZE", "EV_COARSE_GROUP", "EV_FINE_POINTS",
    "EV_FENCE_INSERT", "EV_FENCE_ELIDE",
    "EV_TRACE_RECORD", "EV_TRACE_REPLAY", "EV_TRACE_FALLBACK",
    "EV_TRACE_SETTLE",
    "EV_DET_CHECK", "EV_DET_LOCALIZE",
    "EV_EXEC_POINT", "EV_CONTROL_REPLAY",
    "EV_FAULT_INJECT", "EV_FAULT_RETRY", "EV_SHARD_CRASH",
    "EV_QUARANTINE", "EV_RECOVERY",
    "EV_SESSION_OPEN", "EV_SESSION_CLOSE", "EV_JOB_ADMIT", "EV_JOB_REJECT",
    "EV_JOB_DISPATCH", "EV_JOB_DONE", "EV_JOB_EXPIRE", "EV_TEMPLATE_HIT",
    "EV_TEMPLATE_RECORDED", "EV_GANG_START", "EV_GANG_REBUILD",
    "EV_HB_SUSPECT", "EV_HB_DEAD", "EV_GANG_RESPAWN", "EV_GANG_REJOIN",
    "ANALYSIS_CATEGORIES",
]

#: Events charged to the control plane rather than one shard.
CONTROL_SHARD = -1

# -- categories (Chrome-trace threads within a shard process) ---------------

CAT_PIPELINE = "pipeline"          # whole-op analysis spans
CAT_COARSE = "coarse"              # coarse-group stage (charged to all shards)
CAT_FINE = "fine"                  # fine point stage (per-shard share)
CAT_COLLECTIVE = "collective"      # collective rounds (per shard, per round)
CAT_TRACE = "trace"                # trace record / replay / fallback
CAT_DETERMINISM = "determinism"    # hash batches and their all-reduce
CAT_EXEC = "exec"                  # point-task execution
CAT_CONTROL = "control"            # per-shard control-program replay
CAT_FAULT = "fault"                # injected faults, retries, crashes
CAT_RESILIENCE = "resilience"      # quarantine / recovery
CAT_SERVICE = "service"            # session/job lifecycle on the service

#: Categories the prof CLI rolls into the per-shard "time in ..." table.
ANALYSIS_CATEGORIES = (CAT_COARSE, CAT_FINE, CAT_COLLECTIVE, CAT_TRACE,
                       CAT_DETERMINISM, CAT_EXEC, CAT_FAULT, CAT_RESILIENCE,
                       CAT_SERVICE)

# -- event names ------------------------------------------------------------

EV_OP_ANALYZE = "op.analyze"           # span: one operation through analysis
EV_COARSE_GROUP = "coarse.group"       # span: coarse-group scan of one op
EV_FINE_POINTS = "fine.points"         # span: a shard's point analysis share
EV_FENCE_INSERT = "fence.insert"       # instant: cross-shard fence inserted
EV_FENCE_ELIDE = "fence.elide"         # instant: fence(s) provably elided
EV_TRACE_RECORD = "trace.record"       # instant: a fragment was recorded
EV_TRACE_REPLAY = "trace.replay"       # instant: a replay began serving
EV_TRACE_FALLBACK = "trace.fallback"   # instant: replay abandoned (divergence)
EV_TRACE_SETTLE = "trace.settle"       # span: a run of replays folded into epochs
EV_DET_CHECK = "determinism.check"     # span: one batched hash all-reduce
EV_DET_LOCALIZE = "determinism.localize"  # span: window allgather + bisect
EV_EXEC_POINT = "exec.point"           # span: one point task body
EV_CONTROL_REPLAY = "control.replay"   # span: one shard's control program
EV_FAULT_INJECT = "fault.inject"       # instant: an injected fault fired
EV_FAULT_RETRY = "fault.retry"         # instant: one message retransmission
EV_SHARD_CRASH = "fault.crash"         # instant: a shard's replay died
EV_QUARANTINE = "resilience.quarantine"  # instant: shard removed from set
EV_RECOVERY = "resilience.recover"     # span: one recovery attempt
EV_SESSION_OPEN = "service.session.open"    # instant: client session opened
EV_SESSION_CLOSE = "service.session.close"  # instant: client session closed
EV_JOB_ADMIT = "service.job.admit"     # instant: submission admitted
EV_JOB_REJECT = "service.job.reject"   # instant: submission refused (load)
EV_JOB_DISPATCH = "service.job.dispatch"  # span: one program on the gang
EV_JOB_DONE = "service.job.done"       # instant: submission completed
EV_TEMPLATE_HIT = "service.template.hit"       # instant: analysis skipped
EV_TEMPLATE_RECORDED = "service.template.record"  # instant: template cached
EV_GANG_START = "service.gang.start"   # instant: persistent gang launched
EV_GANG_REBUILD = "service.gang.rebuild"  # instant: gang rebuilt (recovery)
EV_JOB_EXPIRE = "service.job.expire"   # instant: deadline missed pre-dispatch
EV_HB_SUSPECT = "resilience.hb.suspect"  # instant: phi crossed phi_suspect
EV_HB_DEAD = "resilience.hb.dead"      # instant: phi crossed phi_dead
EV_GANG_RESPAWN = "service.gang.respawn"  # instant: replacement forked
EV_GANG_REJOIN = "service.gang.rejoin"    # instant: gang back at full width
