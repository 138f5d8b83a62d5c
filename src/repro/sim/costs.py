"""Runtime-overhead cost model.

These constants parameterize how much simulated time each runtime activity
takes.  Magnitudes follow published Legion/Task Bench measurements (tens of
microseconds per task for dynamic dependence analysis; a few microseconds
per hop for collectives); DESIGN.md §2 explains why shapes, not absolute
values, are the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Per-activity simulated-time charges (seconds)."""

    # -- DCR analysis pipeline (per shard) -------------------------------------
    coarse_per_op: float = 15e-6       # group-level analysis of one op
    fine_per_point: float = 40e-6      # precise analysis of one owned point
    fence_hop: float = 4e-6            # one round of the fence all-gather
    sharding_eval: float = 0.2e-6      # one memoized sharding-function call
    trace_replay_per_op: float = 4e-6  # replaying one traced op
    # Hashing one runtime API call for the control-determinism check.  The
    # all-reduce itself is asynchronous and off the critical path (§3), so
    # only the (small) hash computation is charged — which is why Fig. 21's
    # Safe/No-Safe curves nearly coincide.
    determinism_per_call: float = 0.3e-6
    # Mapper/launch overhead charged per point even with zero analysis.
    launch_per_point: float = 2e-6
    # -- multiprocess (real IPC) backend surcharges -----------------------------
    # Shards in separate OS processes pay IPC latency per collective hop
    # and a small per-call frame-serialization share for the windowed
    # determinism traffic (measured against repro.dist's process fabrics).
    ipc_hop: float = 2e-6              # extra latency per collective hop
    ipc_per_call: float = 0.05e-6      # frame encode share per hashed call

    # -- centralized controller (lazy evaluation) --------------------------------
    controller_per_op: float = 15e-6       # building graph node(s) for an op
    controller_per_point: float = 55e-6    # analyze + schedule one task
    controller_dispatch: float = 12e-6     # serialize/ship one task to a worker
    controller_memo_factor: float = 0.25   # cost factor when a cached schedule
                                           # is replayed (Spark/TF mitigation)

    # -- static control replication ----------------------------------------------
    scr_per_op: float = 3e-6           # compiled SPMD per-op bookkeeping
    scr_per_point: float = 3e-6        # local launch of one owned point

    # -- explicit (MPI-style) -------------------------------------------------------
    mpi_per_point: float = 3e-6        # kernel-launch + matching overhead

    def scaled(self, factor: float) -> "CostModel":
        """All runtime overheads multiplied by ``factor`` (for ablations)."""
        return replace(
            self,
            coarse_per_op=self.coarse_per_op * factor,
            fine_per_point=self.fine_per_point * factor,
            fence_hop=self.fence_hop * factor,
            trace_replay_per_op=self.trace_replay_per_op * factor,
            determinism_per_call=self.determinism_per_call * factor,
            controller_per_op=self.controller_per_op * factor,
            controller_per_point=self.controller_per_point * factor,
            controller_dispatch=self.controller_dispatch * factor,
        )


DEFAULT_COSTS = CostModel()
