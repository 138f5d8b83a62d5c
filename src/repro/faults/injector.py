"""The fault injector: deterministic decisions from a :class:`FaultPlan`.

Instrumented components (hasher, trace cache) hold an optional
injector reference and consult it behind an ``inj is not None and
inj.enabled`` guard — the same zero-perturbation discipline the profiler
uses, so a run without an injector (the default) takes no new branches in
any decision path.

Determinism: a fault fires only at the coordinates its plan names, so two
runs with the same plan inject the same faults regardless of timing; the
one derived choice — which entry of a recording ``trace_corrupt`` damages
— is ``threefry2x64(seed, H(site, indices))``, a pure function of the
plan.  Every fault (``hash_flip``, ``shard_crash``,
``trace_corrupt``) fires **at most once per key** per injector, so the
injection log names each planned fault once and an injector handed to a
second run is spent.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Set, Tuple

from ..core.rng import threefry2x64
from .plan import FaultPlan

__all__ = ["ShardCrash", "CollectiveTimeout", "FaultInjector"]


class ShardCrash(RuntimeError):
    """A shard's control replay died mid-batch (injected or escalated)."""

    def __init__(self, shard: int, seq: int, reason: str = "injected fault"):
        self.shard = shard
        self.seq = seq
        self.reason = reason
        super().__init__(
            f"shard {shard} crashed at API call #{seq} ({reason})")


class CollectiveTimeout(RuntimeError):
    """A collective receive from ``peer`` passed its deadline."""

    def __init__(self, kind: str, op: int, peer: int, attempts: int):
        self.kind = kind
        self.op = op
        self.peer = peer
        self.attempts = attempts
        super().__init__(
            f"collective {kind} #{op}: no message from shard {peer} "
            f"before the receive deadline ({attempts} waits)")


#: Domain-separation stream for fault draws (arbitrary non-zero constant).
_FAULT_STREAM = 0xFA17


def _site_counter(site: str, indices: Tuple[int, ...]) -> Tuple[int, int]:
    """Collapse (site, indices) into a 128-bit Threefry counter."""
    h = hashlib.blake2b(digest_size=16)
    h.update(site.encode())
    for i in indices:
        h.update(b"|" + str(i).encode())
    d = h.digest()
    return (int.from_bytes(d[:8], "little"), int.from_bytes(d[8:], "little"))


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-site go/no-go decisions."""

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()
        self._fired: Set[Tuple] = set()     # one-shot keys already consumed
        # Injection log: (site, indices) of every fault that fired, in
        # firing order — consumed by diagnosis reports and tests.
        self.injected: list = []
        # Plain attribute, not a property: ``inj.enabled`` is evaluated on
        # every guarded site, so it must cost one attribute load — the
        # same discipline as ``Profiler.enabled``.  Plans are declared up
        # front and never mutated after the injector is built.
        self.enabled: bool = self.plan.any_faults

    def _fire_once(self, key: Tuple) -> bool:
        """Consume a one-shot key; False if it already fired."""
        if key in self._fired:
            return False
        self._fired.add(key)
        self.injected.append(key)
        return True

    # -- site: hash_flip ------------------------------------------------------

    def flip_call(self, shard: int, call: int) -> bool:
        """Should ``shard``'s API call number ``call`` be perturbed?"""
        for f in self.plan.flips:
            if f.shard == shard and f.call == call:
                return self._fire_once(("hash_flip", shard, call))
        return False

    # -- site: shard_crash ----------------------------------------------------

    def crash_call(self, shard: int, call: int) -> bool:
        """Should ``shard`` crash instead of recording call ``call``?"""
        for c in self.plan.crashes:
            if c.shard == shard and c.call == call:
                return self._fire_once(("shard_crash", shard, call))
        return False

    # -- site: trace_corrupt --------------------------------------------------

    def corrupt_recording(self, ordinal: int, entries: int) -> Optional[int]:
        """Entry index to corrupt in recording number ``ordinal``, or None."""
        if entries <= 0:
            return None
        if ordinal in self.plan.trace_corruptions \
                and self._fire_once(("trace_corrupt", ordinal)):
            # Deterministic victim entry within the recording.
            word, _ = threefry2x64((self.plan.seed, _FAULT_STREAM),
                                   _site_counter("trace_victim", (ordinal,)))
            return word % entries
        return None
