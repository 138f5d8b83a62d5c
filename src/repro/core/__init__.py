"""Dynamic control replication: the paper's primary contribution.

Layers (bottom to top):

* :mod:`repro.core.semantics` — the formal model of §2 (DEP_seq / DEP_rep);
* :mod:`repro.core.sharding`, :mod:`repro.core.operation` — sharding and
  projection functions, operations, group launches;
* :mod:`repro.core.coarse` / :mod:`repro.core.fine` /
  :mod:`repro.core.pipeline` — the two-stage analysis of §4.1, both
  stages over the one epoch index of :mod:`repro.core.epochs`;
* :mod:`repro.core.determinism`, :mod:`repro.core.rng`,
  :mod:`repro.core.deferred` — control determinism machinery of §3/§4.3;
* :mod:`repro.core.collectives` — the O(log N) collectives of §4.2;
* :mod:`repro.core.tracing` — memoized analysis replay (Fig. 21).
"""

from .collectives import Collectives, CollectiveStats, RetryConfig
from .coarse import CoarseAnalysis, CoarseResult, Fence
from .deferred import DeferredOpManager
from .determinism import (ControlDeterminismViolation, DeterminismMonitor,
                          DivergenceDiagnosis, ShardHasher)
from .fine import FineAnalysis, FineResult
from .operation import (CoarseRequirement, IDENTITY_PROJECTION, Operation,
                        PointTask, ProjectionFunction)
from .pipeline import DCRPipeline, OpRecord, PipelineStats
from .rng import CounterRNG, threefry2x64
from .semantics import (ModelTask, Program, ReplicatedAnalysis, ShardState,
                        TaskGroup, sequential_analysis)
from .sharding import (BLOCKED, CYCLIC, HASHED, MORTON, ShardingFunction,
                       ShardingRegistry, blocked_shard, cyclic_shard,
                       hashed_shard, morton_shard)
from .taskgraph import TaskGraph
from .tracing import (AutoTraceConfig, AutoTracer, TraceCache,
                      TraceIdentifier, TraceMismatch, auto_replay_flags)

__all__ = [
    "Collectives", "CollectiveStats", "RetryConfig",
    "CoarseAnalysis", "CoarseResult", "Fence",
    "DeferredOpManager",
    "ControlDeterminismViolation", "DeterminismMonitor",
    "DivergenceDiagnosis", "ShardHasher",
    "FineAnalysis", "FineResult",
    "CoarseRequirement", "IDENTITY_PROJECTION", "Operation", "PointTask",
    "ProjectionFunction",
    "DCRPipeline", "OpRecord", "PipelineStats",
    "CounterRNG", "threefry2x64",
    "ModelTask", "Program", "ReplicatedAnalysis", "ShardState", "TaskGroup",
    "sequential_analysis",
    "BLOCKED", "CYCLIC", "HASHED", "MORTON", "ShardingFunction",
    "ShardingRegistry", "blocked_shard", "cyclic_shard", "hashed_shard",
    "morton_shard",
    "TaskGraph",
    "AutoTraceConfig", "AutoTracer", "TraceCache", "TraceIdentifier",
    "TraceMismatch", "auto_replay_flags",
]
