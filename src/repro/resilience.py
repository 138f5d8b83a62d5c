"""Recovery of a serving gang from control-plane faults.

The paper's control-determinism check (§3.2) *detects* divergence among
control replicas; its only remedy is an abort.  A single
:class:`repro.runtime.runtime.Runtime` run keeps exactly that contract: it
raises the structured
:class:`~repro.core.determinism.ControlDeterminismViolation` (carrying the
LOCALIZE diagnosis: first divergent call, culprit shards, both call
descriptions) or the :class:`~repro.faults.ShardCrash`, and heals nothing.

Theorem 1 licenses more for a persistent service gang
(:mod:`repro.service`): DEP_rep ≡ DEP_seq means a gang rebuilt at **any**
width recomputes the identical task graph, so a diverged or crashed rank
costs a rebuild, not the service.  :func:`plan_gang_recovery` picks the
width the gang is rebuilt at and whether the failed submission re-runs:

* **ABORT** — the submission fails with whatever diagnosis the failure
  carried; the gang is rebuilt at full width.
* **DEGRADE** — the gang is rebuilt one shard narrower and the submission
  re-runs there.
* **RESTART** — the gang is rebuilt at the same width and the submission
  re-runs from scratch.

Every decision produces a :class:`RecoveryReport`; with ``report_dir`` set
the reports are also written as JSON.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Any, Dict, List, Optional

from .core.determinism import (ControlDeterminismViolation,
                               DivergenceDiagnosis)
from .faults.injector import ShardCrash

__all__ = ["RecoveryPolicy", "ResilienceConfig", "RecoveryReport",
           "identify_culprits", "diagnosis_to_dict", "plan_gang_recovery"]


class RecoveryPolicy(Enum):
    """What a serving gang does when its control plane fails."""

    ABORT = "abort"
    DEGRADE = "degrade"
    RESTART = "restart"


@dataclass
class ResilienceConfig:
    """Recovery configuration carried by a :class:`~repro.service.
    DCRService`.

    ``max_recoveries`` bounds how many rebuilds the service makes before it
    refuses further work (guards against a fault a rebuild cannot clear).
    ``report_dir`` persists recovery reports as JSON.
    """

    policy: RecoveryPolicy = RecoveryPolicy.ABORT
    max_recoveries: int = 2
    report_dir: Optional[str] = None


def diagnosis_to_dict(d: Optional[DivergenceDiagnosis]
                      ) -> Optional[Dict[str, Any]]:
    """JSON-safe rendering of a diagnosis (digests as hex strings)."""
    if d is None:
        return None
    out = asdict(d)
    out["shard_digests"] = [f"{x:032x}" for x in d.shard_digests]
    out["majority_digest"] = f"{d.majority_digest:032x}"
    return out


@dataclass
class RecoveryReport:
    """One recovery decision, structured for tooling and CI artifacts."""

    policy: str                       # RecoveryPolicy value
    action: str                       # abort|quarantine|restart|exhausted
    failure: str                      # str() of the triggering exception
    culprit_shards: List[int]
    seq: Optional[int] = None         # failing API-call index, when known
    attempt: int = 0                  # 1-based recovery attempt number
    diagnosis: Optional[Dict[str, Any]] = None
    injected: List[List[str]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RecoveryReport":
        """Inverse of ``asdict`` — unknown keys ignored for compatibility."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "RecoveryReport":
        return cls.from_dict(json.loads(text))

    def write(self, directory: str, ordinal: int) -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"fault_report_{ordinal:03d}.json")
        with open(path, "w") as fh:
            fh.write(self.to_json())
        return path


def plan_gang_recovery(config: ResilienceConfig, failure: BaseException,
                       num_shards: int, attempt: int) -> RecoveryReport:
    """Decide how a persistent shard gang recovers from a dead gang.

    When a gang dies under a streaming workload (a crashed or diverged
    replica takes every collective down with it), the whole gang is
    rebuilt — Theorem 1 makes any rebuilt width recompute identical task
    graphs, so the choice is purely about capacity:

    * **DEGRADE** — rebuild one shard narrower (never below 1): the dead
      replica is treated as lost capacity, and the failed submission is
      re-analyzed at the new width.
    * **RESTART** — rebuild at the same width and re-run the failed
      submission from scratch (full re-analysis, which Theorem 1 makes
      equivalent to the run that died).
    * **ABORT** — the submission fails (with whatever diagnosis the
      failure carried); the gang is still rebuilt at full width so the
      *service* survives even when the *job* does not.

    Returns a :class:`RecoveryReport` whose ``details`` carry the planned
    ``new_width`` and whether the failed job should be ``retried``;
    ``action="exhausted"`` once
    ``attempt`` exceeds ``config.max_recoveries`` (the service then
    refuses further work).
    """
    culprits = identify_culprits(failure)
    if attempt > config.max_recoveries:
        action, new_width, retry = "exhausted", 0, False
    elif config.policy is RecoveryPolicy.DEGRADE:
        action, new_width, retry = "quarantine", max(1, num_shards - 1), True
    elif config.policy is RecoveryPolicy.RESTART:
        action, new_width, retry = "restart", num_shards, True
    else:  # ABORT: job fails, gang comes back anyway.
        action, new_width, retry = "abort", num_shards, False
    diagnosis = None
    if isinstance(failure, ControlDeterminismViolation):
        diagnosis = diagnosis_to_dict(failure.diagnosis)
    report = RecoveryReport(
        policy=config.policy.value, action=action,
        failure=f"{type(failure).__name__}: {failure}",
        culprit_shards=culprits,
        seq=failure.seq if isinstance(failure, ShardCrash) else None,
        attempt=attempt, diagnosis=diagnosis,
        details={"num_shards": num_shards, "new_width": new_width,
                 "retry": retry})
    if config.report_dir:
        report.write(config.report_dir, attempt)
    return report


def identify_culprits(failure: BaseException) -> List[int]:
    """The shard(s) a failure implicates, best effort.

    Crashes name their shard directly; determinism violations carry either
    a LOCALIZE diagnosis (minority shards at the first divergent call) or,
    for the unequal-count case, the shards that recorded fewest calls.
    """
    if isinstance(failure, ShardCrash):
        return [failure.shard]
    if isinstance(failure, ControlDeterminismViolation):
        culprits = failure.divergent_shards
        return list(culprits) if culprits else []
    # Gang-level failures (repro.service.gang.GangFailure) name the ranks
    # whose workers died; duck-typed so resilience needn't import service.
    shards = getattr(failure, "culprit_shards", None)
    return list(shards) if shards else []
