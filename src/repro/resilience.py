"""Recovery policies for control-plane faults.

The paper's control-determinism check (§3.2) *detects* divergence among
control replicas; its only remedy is an abort.  Theorem 1 licenses far
more: DEP_rep ≡ DEP_seq means **any** shard subset (down to one) can
recompute the identical task graph, so a diverged or crashed shard is
recoverable, not fatal.  This module defines the policy vocabulary and the
reporting machinery; :class:`repro.runtime.runtime.Runtime` implements the
policies themselves:

* **ABORT** — today's behavior: raise the (now structured)
  :class:`~repro.core.determinism.ControlDeterminismViolation` or
  :class:`~repro.faults.ShardCrash`.
* **LOCALIZE** — on a window-hash mismatch, allgather the per-call digests
  of the failed window, binary-search the first divergent call, and raise
  a violation carrying a full :class:`~repro.core.determinism.
  DivergenceDiagnosis` (shard, seq, both call descriptions).
* **DEGRADE** — quarantine the divergent shard, re-shard its points onto
  the survivors (:meth:`~repro.core.sharding.ShardingFunction.
  with_quarantine`), and replay the program through fresh analysis on the
  surviving replicas; the recovered task graph is identical to a
  fault-free run, and the re-verified call-stream prefix is checked
  against the originally verified window digests.
* **RESTART** — a crashed *replica* is re-run in place with a fresh
  hasher and rejoins checking at the next batch boundary (it performs no
  effects, so nothing is rolled back); a crashed or diverged *driver*
  restarts the epoch from its initial state (full re-execution, which
  Theorem 1 makes equivalent).

A persistent service gang (:mod:`repro.service`) recovers under the same
vocabulary, always by rebuilding: :func:`plan_gang_recovery` picks the
width the gang is rebuilt at and whether the failed submission re-runs.

Every recovery action produces a :class:`RecoveryReport`; with
``report_dir`` set the reports are also written as JSON.
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
    """What the runtime does when the control plane fails."""

    ABORT = "abort"
    LOCALIZE = "localize"
    DEGRADE = "degrade"
    RESTART = "restart"


@dataclass
class ResilienceConfig:
    """Recovery configuration carried by a :class:`~repro.runtime.runtime.
    Runtime`.

    ``max_recoveries`` bounds how many recovery attempts a single
    ``execute`` may make before giving up and re-raising (guards against a
    fault the policy cannot actually clear).  ``report_dir`` persists
    recovery reports as JSON.
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
    action: str                       # abort|localize|quarantine|restart|
    #                                   restart-replica|exhausted
    failure: str                      # str() of the triggering exception
    culprit_shards: List[int]
    seq: Optional[int] = None         # failing API-call index, when known
    attempt: int = 0                  # 1-based recovery attempt number
    diagnosis: Optional[Dict[str, Any]] = None
    injected: List[List[str]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)
    #: Heartbeat monitor snapshot at failure time ("wall of suspicion");
    #: timestamps are relative to monitor start, so with an injectable
    #: clock the whole report is deterministic.
    suspicion: Optional[Dict[str, Any]] = None

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
                       num_shards: int, attempt: int, *,
                       suspicion: Optional[Dict[str, Any]] = None
                       ) -> RecoveryReport:
    """Decide how a persistent shard gang recovers from a dead gang.

    The service analogue of the single-run policies: when a gang dies
    under a streaming workload (a crashed or diverged replica takes every
    collective down with it), the whole gang is rebuilt — Theorem 1 makes
    any rebuilt width recompute identical task graphs, so the choice is
    purely about capacity:

    * **DEGRADE** — rebuild one shard narrower (never below 1): the dead
      replica is treated as lost capacity, and the failed submission is
      re-analyzed at the new width.
    * **RESTART** — rebuild at the same width and re-run the failed
      submission from scratch (full re-analysis, which Theorem 1 makes
      equivalent to the run that died).
    * **ABORT** / **LOCALIZE** — the submission fails (with whatever
      diagnosis the failure carried); the gang is still rebuilt at full
      width so the *service* survives even when the *job* does not.

    Returns a :class:`RecoveryReport` whose ``details`` carry the planned
    ``new_width`` and whether the failed job should be ``retried``, and
    whose ``suspicion`` is the failure-time heartbeat snapshot;
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
    else:  # ABORT / LOCALIZE: job fails, gang comes back anyway.
        action, new_width, retry = config.policy.value, num_shards, False
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
                 "retry": retry},
        suspicion=dict(suspicion) if suspicion else
        dict(getattr(failure, "suspicion", None) or {}) or None)
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
