"""Fault plans: *what* to perturb, declared up front and replayable.

A plan is a list of explicit ``(site, indices)`` entries, each of which
fires exactly once when its site is reached ("flip shard 2's call #13",
"crash shard 1 at call #7", "corrupt the first trace recording").  The
caller that builds the plan passes it to the runtime; nothing configures
a fault behind the caller's back, and a runtime built without an
injector takes no fault branch at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["PlannedFlip", "PlannedCrash", "PlannedBeatLoss", "PlannedStall",
           "FaultPlan"]


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
    """A complete, replayable description of a run's perturbations.

    ``seed`` picks the corrupted entry of each corrupted trace recording.
    """

    seed: int = 0
    flips: List[PlannedFlip] = field(default_factory=list)
    crashes: List[PlannedCrash] = field(default_factory=list)
    #: Ordinals of trace recordings to corrupt (0 = first recording).
    trace_corruptions: List[int] = field(default_factory=list)
    # -- liveness sites (heartbeats, see docs/resilience.md) ----------------
    beat_losses: List[PlannedBeatLoss] = field(default_factory=list)
    stalls: List[PlannedStall] = field(default_factory=list)

    @property
    def any_faults(self) -> bool:
        return bool(self.flips or self.crashes or self.trace_corruptions
                    or self.beat_losses or self.stalls)
