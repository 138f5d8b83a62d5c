"""Fault plans: *what* to perturb, declared up front and replayable.

A plan combines two styles of fault selection:

* **planned faults** — explicit ``(site, indices)`` entries that fire
  exactly once when their site is reached (precise unit/integration tests:
  "flip shard 2's call #13", "drop message 1 of allreduce #4 three times");
* **seeded probabilities** — per-site rates evaluated by a counter-based
  PRF keyed on ``(seed, site, indices)`` (chaos tiers: "0.1% of collective
  messages are delayed").  Deterministic given the seed: the decision for a
  site depends only on its coordinates, never on evaluation order.

``FaultPlan.from_env`` builds the chaos-tier plan from ``REPRO_FAULT_*``
environment variables; with none set it returns ``None`` and the runtime
carries no injector at all (the zero-behavior-change default).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["FAULT_SITES", "MESSAGE_EVENTS", "PlannedFlip", "PlannedCrash",
           "MessageFault", "PlannedBeatLoss", "PlannedStall", "FaultPlan"]

#: The complete fault-site vocabulary (docs/resilience.md catalogs each).
FAULT_SITES = ("hash_flip", "msg_drop", "msg_delay", "msg_dup",
               "shard_crash", "trace_corrupt",
               "hb_loss", "shard_stall")

#: Message-level fault kinds inside collectives, in evaluation order.
MESSAGE_EVENTS = ("drop", "delay", "dup")


@dataclass(frozen=True)
class PlannedFlip:
    """Perturb one argument of ``shard``'s API call number ``call``."""

    shard: int
    call: int


@dataclass(frozen=True)
class PlannedCrash:
    """Crash ``shard`` when it is about to record API call number ``call``."""

    shard: int
    call: int


@dataclass(frozen=True)
class MessageFault:
    """A planned message fault inside one collective operation.

    ``kind`` is the collective ("allreduce", "allgather", ...; empty string
    matches any), ``op`` the operation ordinal (``CollectiveStats.
    operations`` at the time), ``msg`` the message index within its
    schedule.  For drops, ``attempts`` consecutive transmissions are lost —
    ``attempts > max_retries`` forces a timeout.
    """

    kind: str
    op: int
    msg: int
    event: str = "drop"          # one of MESSAGE_EVENTS
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.event not in MESSAGE_EVENTS:
            raise ValueError(f"unknown message fault event {self.event!r}")


@dataclass(frozen=True)
class PlannedBeatLoss:
    """Suppress ``count`` heartbeats of ``shard`` starting at beat ``beat``.

    A lost beat leaves the worker perfectly functional — only its
    liveness signal disappears, so the supervisor's suspicion accrues on
    a rank that would still answer jobs (the false-positive pressure a
    phi detector must tolerate below ``phi_dead``).
    """

    shard: int
    beat: int
    count: int = 1


@dataclass(frozen=True)
class PlannedStall:
    """``shard`` goes silent for ``beats`` beat-intervals from ``beat``.

    The slow-shard model: like :class:`PlannedBeatLoss` but long enough
    that suspicion should cross ``phi_suspect`` (and, if ``beats`` is
    large, ``phi_dead``) — the site chaos tests use to prove *slow* and
    *dead* are distinguished.
    """

    shard: int
    beat: int
    beats: int = 1


@dataclass
class FaultPlan:
    """A complete, replayable description of a run's perturbations."""

    seed: int = 0
    # -- planned one-shot faults --------------------------------------------
    flips: List[PlannedFlip] = field(default_factory=list)
    crashes: List[PlannedCrash] = field(default_factory=list)
    message_faults: List[MessageFault] = field(default_factory=list)
    #: Ordinals of trace recordings to corrupt (0 = first recording).
    trace_corruptions: List[int] = field(default_factory=list)
    # -- liveness sites (heartbeats, see docs/resilience.md) ----------------
    beat_losses: List[PlannedBeatLoss] = field(default_factory=list)
    stalls: List[PlannedStall] = field(default_factory=list)
    # -- seeded probabilistic faults ----------------------------------------
    #: Per-site rates, keyed by FAULT_SITES names.  Message rates apply per
    #: (collective, op, msg, attempt); flip/crash rates per (shard, call);
    #: trace_corrupt per recording.  Divergence-class probabilistic faults
    #: still fire at most once per run (see FaultInjector).
    rates: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for site in self.rates:
            if site not in FAULT_SITES:
                raise ValueError(f"unknown fault site {site!r} "
                                 f"(expected one of {FAULT_SITES})")
        for p in self.rates.values():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"fault rate {p} outside [0, 1]")

    @property
    def any_faults(self) -> bool:
        return bool(self.flips or self.crashes or self.message_faults
                    or self.trace_corruptions or self.beat_losses
                    or self.stalls
                    or any(p > 0 for p in self.rates.values()))

    @classmethod
    def from_env(cls, env: Optional[Dict[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        """The chaos-tier plan from ``REPRO_FAULT_*``, or None when unset.

        * ``REPRO_FAULT_SEED``  — required to enable anything (integer);
        * ``REPRO_FAULT_RATE``  — shared per-site probability
          (default 0.001);
        * ``REPRO_FAULT_SITES`` — comma-separated site names (default
          ``msg_delay,msg_dup``: the fully maskable sites).
        """
        e = os.environ if env is None else env
        raw_seed = e.get("REPRO_FAULT_SEED", "").strip()
        if not raw_seed:
            return None
        seed = int(raw_seed, 0)
        rate = float(e.get("REPRO_FAULT_RATE", "0.001"))
        sites = [s.strip() for s in
                 e.get("REPRO_FAULT_SITES", "msg_delay,msg_dup").split(",")
                 if s.strip()]
        return cls(seed=seed, rates={site: rate for site in sites})
