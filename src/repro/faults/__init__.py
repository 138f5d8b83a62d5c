"""``repro.faults`` — deterministic fault injection for resilience testing.

The paper's control-determinism check (§3.2) *detects* divergence among
control replicas; this package supplies the perturbations that exercise it
and every recovery path built on top (:mod:`repro.resilience`).  A
:class:`FaultPlan` is a list of one-shot faults the caller plans and
passes in — "flip shard 2's call #13", "crash shard 1 at call #7" — and a
:class:`FaultInjector` fires each one where the plan names it, so two runs
with the same plan inject the same faults regardless of timing.  Nothing
else configures a fault: no environment variable, no seeded rate.

Fault sites (docs/resilience.md has the full catalog):

* ``hash_flip``     — perturb one argument of one shard's hashed API call
  (:meth:`repro.core.determinism.ShardHasher.record`), simulating a control
  divergence without changing the analyzed program;
* ``shard_crash``   — raise :class:`ShardCrash` from one shard's control
  replay, mid-batch;
* ``trace_corrupt`` — corrupt a recorded :class:`repro.core.tracing.
  TraceCache` entry so the next replay diverges into the safe fallback.

Every fault fires **once** per site, so recovery re-execution converges
instead of re-tripping the same fault forever.
"""

from .injector import CollectiveTimeout, FaultInjector, ShardCrash
from .plan import FaultPlan, PlannedCrash, PlannedFlip

__all__ = [
    "FaultPlan", "PlannedCrash", "PlannedFlip",
    "FaultInjector", "ShardCrash", "CollectiveTimeout",
]
