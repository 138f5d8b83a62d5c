"""repro — Dynamic Control Replication, reproduced.

A Python implementation of *Scaling Implicit Parallelism via Dynamic
Control Replication* (Bauer et al., PPoPP 2021): a Legion-like implicitly
parallel tasking runtime whose control program is replicated across shards,
with a distributed two-stage dependence analysis, control-determinism
checking, and a discrete-event machine simulator that regenerates the
paper's evaluation figures.

Quick start::

    from repro import Runtime

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        cells = ctx.create_region(ctx.create_index_space(64), fs)
        tiles = ctx.partition_equal(cells, 4)
        ctx.fill(cells, "x", 1.0)
        ctx.index_launch(lambda p, r: r["x"].view.__iadd__(1.0),
                         range(4), [(tiles, "x", "rw")])

    Runtime(num_shards=4).execute(main)

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from .oracle import (READ_ONLY, READ_WRITE, WRITE_DISCARD, Privilege,
                     RegionRequirement, reduce_priv)
from .regions import (Field, FieldSpace, IndexSpace, LogicalRegion,
                      Partition, Rect)
from .runtime import (BlockedMapper, Context, DefaultMapper, Future,
                      FutureMap, Mapper, Runtime)
from .core import (CYCLIC, BLOCKED, HASHED, ControlDeterminismViolation,
                   CounterRNG, DCRPipeline, DivergenceDiagnosis, Operation,
                   TaskGraph)
from .faults import (CollectiveTimeout, FaultInjector, FaultPlan,
                     PlannedCrash, PlannedFlip, ShardCrash)
from .obs import Profiler, get_profiler, profiled
from .resilience import (RecoveryPolicy, RecoveryReport, ResilienceConfig)

__version__ = "1.0.0"

__all__ = [
    "READ_ONLY", "READ_WRITE", "WRITE_DISCARD", "Privilege",
    "RegionRequirement", "reduce_priv",
    "Field", "FieldSpace", "IndexSpace", "LogicalRegion", "Partition", "Rect",
    "BlockedMapper", "Context", "DefaultMapper", "Future", "FutureMap",
    "Mapper", "Runtime",
    "CYCLIC", "BLOCKED", "HASHED", "ControlDeterminismViolation",
    "CounterRNG", "DCRPipeline", "DivergenceDiagnosis", "Operation",
    "TaskGraph",
    "CollectiveTimeout", "FaultInjector", "FaultPlan",
    "PlannedCrash", "PlannedFlip", "ShardCrash",
    "Profiler", "get_profiler", "profiled",
    "RecoveryPolicy", "RecoveryReport", "ResilienceConfig",
    "__version__",
]
