"""Dynamic control replication execution model (Fig. 1 bottom; §4).

Analysis is performed by one shard per node (or per GPU).  Each shard's
analysis clock advances through the operation stream in program order:

* a cross-shard fence (derived by running the **real coarse analysis** over
  the application's real operations when available) synchronizes all shards
  with an O(log N) all-gather;
* an untraced op costs the coarse group-level charge on every shard, plus
  the fine per-point charge for the points the shard owns;
* a traced op (Fig. 21) costs only the replay charge — either because the
  app annotated it (``tracing=True``) or because the automatic trace
  identifier recognized the repeated fragment (``tracing="auto"``, zero
  app annotations);
* control-determinism checks add a small per-call hash cost (§3/§5.5).

Execution of each point task then waits for its owner shard's analysis —
the pipelining the paper describes falls out naturally, since analysis
clocks run ahead of execution whenever task granularity exceeds analysis
cost.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from ..core.coarse import CoarseAnalysis
from ..core.collectives import schedule
from ..core.tracing import _op_signature, auto_replay_flags
from ..sim.costs import CostModel, DEFAULT_COSTS
from ..sim.machine import MachineSpec, ProcKind
from ..sim.workload import SimOp, SimProgram
from .base import ExecutionModel

__all__ = ["DCRModel"]


class DCRModel(ExecutionModel):
    name = "dcr"

    def __init__(self, machine: MachineSpec, costs: CostModel = DEFAULT_COSTS,
                 shards_per: str = "node", safe_checks: bool = True,
                 tracing=True, sharding: str = "blocked",
                 window: Optional[int] = None,
                 backend: str = "inprocess"):
        super().__init__(machine, costs)
        if shards_per not in ("node", "gpu"):
            raise ValueError("shards_per must be 'node' or 'gpu'")
        if tracing not in (True, False, "auto"):
            raise ValueError("tracing must be True, False, or 'auto'")
        if sharding not in ("blocked", "cyclic"):
            raise ValueError("sharding must be 'blocked' or 'cyclic'")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 operation")
        if backend not in ("inprocess", "multiprocess"):
            raise ValueError(
                "backend must be 'inprocess' or 'multiprocess'")
        # "multiprocess" models shards as separate OS processes exchanging
        # frames over a process fabric (repro.dist's shm/tcp — a cost-model
        # switch, not a fabric selector): collective hops and determinism
        # hashing pick up the CostModel's IPC surcharges.
        self.backend = backend
        self.shards_per = shards_per
        self.safe_checks = safe_checks
        # tracing=True trusts the app's per-op `traced` annotations
        # (explicit begin/end_trace discipline); tracing="auto" ignores the
        # annotations and derives replay status by driving the functional
        # pipeline's AutoTracer + TraceCache — zero app changes.
        self.tracing = tracing
        self.sharding = sharding
        # Legion bounds how many operations the analysis may run ahead of
        # execution (the mapper-configurable window); None = unbounded.
        self.window = window
        self._busy = 0.0

    # -- fence derivation -------------------------------------------------------

    def _fence_positions(self, program: SimProgram, shards: int) -> Set[int]:
        """Op indices preceded by a cross-shard fence.

        Runs the genuine coarse analysis when every op carries a real
        Operation; falls back to per-op ``fence`` annotations otherwise.
        """
        if shards <= 1:
            return set()
        if all(op.operation is not None for op in program.ops):
            # Always derive the fence structure from the genuine coarse
            # analysis; tracing changes what the replay *costs*, never which
            # synchronization the program needs.
            coarse = CoarseAnalysis(num_shards=shards)
            positions: Set[int] = set()
            for i, op in enumerate(program.ops):
                assert op.operation is not None
                op.operation.seq = i
                _deps, fences = coarse.analyze(op.operation)
                if fences:
                    positions.add(i)
            return positions
        return {i for i, op in enumerate(program.ops) if op.fence}

    # -- automatic trace identification -----------------------------------------

    def _auto_traced_flags(self, program: SimProgram) -> List[bool]:
        """Replay status per op, from the pipeline's own tracing policy
        (:func:`~repro.core.tracing.auto_replay_flags`).

        Ops carrying a real Operation are keyed by the same signature the
        functional trace cache uses; annotation-only ops fall back to a
        (name, points) key, which is conservative (iteration-numbered names
        never repeat, so such ops are never traced).
        """
        sigs = [
            _op_signature(op.operation) if op.operation is not None
            else ("sim", op.name, op.points, op.proc_kind.value)
            for op in program.ops
        ]
        return auto_replay_flags(sigs)

    # -- analysis schedule --------------------------------------------------------
    #
    # The analysis runs incrementally (begin_run/op_ready) so the bounded
    # operation window can throttle it on execution progress; the batch
    # analysis_schedule entry point drives the same machinery without
    # feedback for API compatibility.

    def begin_run(self, program: SimProgram) -> None:
        m = self.machine
        self._shards = m.nodes if self.shards_per == "node" \
            else max(1, m.nodes * m.gpus_per_node)
        self._fence_at = self._fence_positions(program, self._shards)
        ipc = self.backend == "multiprocess"
        hop = self.costs.fence_hop + (self.costs.ipc_hop if ipc else 0.0)
        # A fence is a barrier: charge the rounds of the schedule the
        # collectives actually run, so a schedule change moves the model.
        self._fence_latency = \
            hop * len(schedule("barrier", self._shards).rounds)
        self._clock = np.zeros(self._shards)
        self._det = ((self.costs.determinism_per_call
                      + (self.costs.ipc_per_call if ipc else 0.0))
                     if self.safe_checks else 0.0)
        self._auto_traced = (self._auto_traced_flags(program)
                             if self.tracing == "auto" else None)
        self._blocked_since = None
        self._busy = 0.0

    def op_ready(self, op: SimOp, done) -> np.ndarray:
        if self.window is not None and op.index >= self.window:
            # The window is full until the op `window` places back retires.
            release = float(done[op.index - self.window].max())
            np.maximum(self._clock, release, out=self._clock)
        if self._blocked_since is not None:
            # The control program read a future produced by an earlier op
            # (e.g. Pennant's dt reduction): every shard's analysis stalled
            # until that op executed — the blocking downstream effect the
            # paper attributes to the global dt collective.
            release = float(done[self._blocked_since].max())
            np.maximum(self._clock, release, out=self._clock)
            self._blocked_since = None
        if op.blocks_analysis:
            self._blocked_since = op.index
        r = self._advance(op)
        self._busy = float(self._clock.max())
        return r

    def analysis_schedule(self, program: SimProgram) -> List[np.ndarray]:
        self.begin_run(program)
        ready: List[np.ndarray] = []
        for op in program.ops:
            ready.append(self._advance(op))
        self._busy = float(self._clock.max())
        return ready

    def _advance(self, op: SimOp) -> np.ndarray:
        m = self.machine
        shards, clock, c = self._shards, self._clock, self.costs
        fence_at, fence_latency, det = (self._fence_at, self._fence_latency,
                                        self._det)
        if True:
            if op.index in fence_at:
                release = clock.max() + fence_latency
                np.maximum(clock, release, out=clock)
            pts = np.arange(op.points)
            if self.sharding == "blocked":
                owner = np.minimum(pts * shards // max(op.points, 1),
                                   shards - 1)
            else:
                owner = pts % shards
            traced = (self._auto_traced[op.index]
                      if self._auto_traced is not None else op.traced)
            if self.tracing and traced:
                clock += c.trace_replay_per_op + det
            else:
                clock += c.coarse_per_op + det
                counts = np.bincount(owner, minlength=shards)
                clock += counts * (c.fine_per_point + c.sharding_eval)
                if shards > 1:
                    # Points whose analysis shard differs from the executing
                    # node ship task meta-data across the network — extra
                    # analysis work per misplaced point (the cost a good
                    # sharding function avoids, paper §4).
                    ppn = max(1, m.procs_per_node(op.proc_kind))
                    total = m.nodes * ppn
                    exec_node = np.minimum(
                        pts * total // max(op.points, 1), total - 1) // ppn
                    shard_node = (owner * m.nodes // shards
                                  if self.shards_per == "gpu" else owner)
                    misplaced = shard_node != exec_node
                    remote = np.bincount(owner[misplaced], minlength=shards)
                    clock += remote * m.inter_lat
        return clock[owner].copy()
