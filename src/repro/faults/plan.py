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

__all__ = ["PlannedFlip", "PlannedCrash", "FaultPlan"]


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


@dataclass
class FaultPlan:
    """A complete, replayable description of a run's perturbations.

    ``seed`` picks the corrupted entry of each corrupted trace recording,
    and the order the runtime's queue runs points in under ``reorder``.
    """

    seed: int = 0
    flips: List[PlannedFlip] = field(default_factory=list)
    crashes: List[PlannedCrash] = field(default_factory=list)
    #: Ordinals of trace recordings to corrupt (0 = first recording).
    trace_corruptions: List[int] = field(default_factory=list)
    #: Run the queued points in a seeded random order of the point graph
    #: instead of program order: an adversarial schedule, not a fault, so
    #: it leaves ``any_faults`` alone.
    reorder: bool = False

    @property
    def any_faults(self) -> bool:
        return bool(self.flips or self.crashes or self.trace_corruptions)
