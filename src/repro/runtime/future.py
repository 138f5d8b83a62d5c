"""Futures: deferred task return values.

In the replicated runtime all shards receive the *same* future object for
the same launch (the driver's, by creation order), so reading a future's
value is control deterministic by construction.  ``is_ready`` is
the one timing-dependent query (paper §3, Fig. 5); the runtime routes it
through a *timing oracle* so tests can simulate shard-dependent timing and
demonstrate the determinism checker catching the violation.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = ["Future", "FutureMap"]

_future_ids = itertools.count()


class Future:
    """A handle for a value a task will produce."""

    __slots__ = ("uid", "_value", "_resolved", "_timing_oracle",
                 "structural_key", "structural_bytes")

    def __init__(self, timing_oracle: Optional[Callable[["Future"], bool]] = None):
        self.uid = next(_future_ids)
        self.structural_key = self.structural_bytes = None
        self._value: Any = None
        self._resolved = False
        self._timing_oracle = timing_oracle

    def resolve(self, value: Any) -> None:
        """Install the producing task's value."""
        self._value = value
        self._resolved = True

    def get(self) -> Any:
        """Block for (here: return) the value; identical on every shard."""
        if not self._resolved:
            raise RuntimeError("future read before its producing task ran")
        return self._value

    def is_ready(self) -> bool:
        """Timing-dependent readiness probe.

        **Branching on this value is a control-determinism hazard** (Fig. 5)
        unless every shard observes the same answer.  The default oracle
        reports the true resolution state (deterministic in this synchronous
        runtime); tests install per-shard oracles to model real timing skew.
        """
        if self._timing_oracle is not None:
            return self._timing_oracle(self)
        return self._resolved

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Future) and other.uid == self.uid


class FutureMap:
    """The values of an index launch, one per point.  A point's
    :class:`Future` is made when the point is first indexed; replica
    threads indexing at once all get the one ``setdefault`` kept."""

    __slots__ = ("uid", "_values", "_futures", "_timing_oracle",
                 "structural_key", "structural_bytes")

    def __init__(self, values: Dict[Hashable, Any],
                 timing_oracle: Optional[Callable[[Future], bool]] = None):
        self.uid = next(_future_ids)
        self.structural_key = self.structural_bytes = None
        self._values = values
        self._futures: Dict[Hashable, Future] = {}
        self._timing_oracle = timing_oracle

    def __getitem__(self, point: Hashable) -> Future:
        """The point's future, keyed (map key, point)."""
        future = self._futures.get(point)
        if future is None:
            future = Future(self._timing_oracle)
            future.resolve(self._values[point])
            if self.structural_key is not None:
                future.structural_key = (self.structural_key, point)
            future = self._futures.setdefault(point, future)
        return future

    def get_all(self) -> Dict[Hashable, Any]:
        """All point values, keyed by launch point."""
        return dict(self._values)

    def reduce(self, op: Callable[[Any, Any], Any]) -> Any:
        """Combine all point values in deterministic (sorted-point) order."""
        items = [self._values[p] for p in sorted(self._values)]
        if not items:
            raise ValueError("empty future map")
        acc = items[0]
        for v in items[1:]:
            acc = op(acc, v)
        return acc

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(sorted(self._values))
