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
* **REJOIN** — the self-healing policy for persistent gangs: fork a
  replacement worker for exactly the culprit rank(s), re-endpoint the
  surviving replicas onto a fresh fabric, and return the gang to full
  width *in place* — no rebuild, no lost capacity, surviving sessions'
  jobs resume on the healed gang.  Respawn attempts are bounded by
  ``respawn_budget``; once it is exhausted the plan falls back to the
  DEGRADE rebuild (and to RESTART when the failure names no culprit to
  respawn).

Every recovery action produces a :class:`RecoveryReport`; with
``report_dir`` set the reports are also written as JSON (the CI chaos tier
uploads them on failure).
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
    REJOIN = "rejoin"


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
    #: REJOIN only: how many live respawns a service may attempt before
    #: the plan falls back to a DEGRADE rebuild.
    respawn_budget: int = 2

    @classmethod
    def from_env(cls, env: Optional[Dict[str, str]] = None
                 ) -> Optional["ResilienceConfig"]:
        """Config from ``REPRO_FAULT_POLICY`` etc., or None when unset."""
        e = os.environ if env is None else env
        raw = e.get("REPRO_FAULT_POLICY", "").strip().lower()
        if not raw:
            return None
        try:
            policy = RecoveryPolicy(raw)
        except ValueError:
            names = [p.value for p in RecoveryPolicy]
            raise ValueError(
                f"REPRO_FAULT_POLICY={raw!r} is not one of {names}")
        return cls(
            policy=policy,
            max_recoveries=int(e.get("REPRO_FAULT_MAX_RECOVERIES", "2")),
            report_dir=e.get("REPRO_FAULT_REPORT_DIR") or None,
            respawn_budget=int(e.get("REPRO_FAULT_RESPAWN_BUDGET", "2")),
        )


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
    #                                   restart-replica|respawn|exhausted
    failure: str                      # str() of the triggering exception
    culprit_shards: List[int]
    seq: Optional[int] = None         # failing API-call index, when known
    attempt: int = 0                  # 1-based recovery attempt number
    diagnosis: Optional[Dict[str, Any]] = None
    injected: List[List[str]] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)
    # -- REJOIN bookkeeping (absent / defaulted for the other policies) --
    respawns: int = 0                 # respawn attempts consumed so far
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
                       respawns_used: int = 0,
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
    * **REJOIN** — heal in place: respawn exactly the culprit rank(s)
      and re-endpoint the survivors (``action="respawn"``); the gang
      stays at full width and the failed submission retries on the
      healed gang.  Falls back to the DEGRADE rebuild once
      ``respawns_used`` reaches ``config.respawn_budget``, and to a
      RESTART rebuild when the failure names no culprit (nothing to
      respawn — e.g. a whole-gang timeout).
    * **ABORT** / **LOCALIZE** — the submission fails (with whatever
      diagnosis the failure carried); the gang is still rebuilt at full
      width so the *service* survives even when the *job* does not.

    Returns a :class:`RecoveryReport` whose ``details`` carry the planned
    ``new_width`` and whether the failed job should be ``retried``;
    ``action="exhausted"`` once ``attempt`` exceeds
    ``config.max_recoveries`` (the service then refuses further work).
    For REJOIN plans the report additionally records the respawn budget
    state and the failure-time suspicion snapshot.
    """
    culprits = identify_culprits(failure)
    details: Dict[str, Any]
    if attempt > config.max_recoveries:
        action, new_width, retry = "exhausted", 0, False
        details = {}
    elif config.policy is RecoveryPolicy.REJOIN:
        if not culprits:
            # Nothing to respawn: a whole-gang timeout or an unattributed
            # failure heals by the RESTART-equivalent rebuild.
            action, new_width, retry = "restart", num_shards, True
            details = {"fallback": "restart-no-culprit"}
        elif respawns_used >= config.respawn_budget:
            action = "quarantine"
            new_width = max(1, num_shards - len(culprits))
            retry = True
            details = {"fallback": "degrade-budget-exhausted"}
        else:
            from .dist.heartbeat import respawn_backoff
            action, new_width, retry = "respawn", num_shards, True
            details = {"respawned": sorted(culprits),
                       "respawn_attempt": respawns_used + 1,
                       "respawn_budget": config.respawn_budget,
                       "backoff_s": round(
                           respawn_backoff(0, respawns_used + 1), 6)}
    elif config.policy is RecoveryPolicy.DEGRADE:
        action = "quarantine"
        new_width = max(1, num_shards - 1)
        retry = True
        details = {}
    elif config.policy is RecoveryPolicy.RESTART:
        action, new_width, retry = "restart", num_shards, True
        details = {}
    else:  # ABORT / LOCALIZE: job fails, gang comes back anyway.
        action = config.policy.value
        new_width, retry = num_shards, False
        details = {}
    diagnosis = None
    if isinstance(failure, ControlDeterminismViolation):
        diagnosis = diagnosis_to_dict(failure.diagnosis)
    base = {"num_shards": num_shards, "new_width": new_width,
            "retry": retry}
    base.update(details)
    report = RecoveryReport(
        policy=config.policy.value, action=action,
        failure=f"{type(failure).__name__}: {failure}",
        culprit_shards=culprits,
        seq=failure.seq if isinstance(failure, ShardCrash) else None,
        attempt=attempt, diagnosis=diagnosis,
        details=base,
        respawns=respawns_used,
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
