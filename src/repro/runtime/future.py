"""Futures: deferred task return values.

In the replicated runtime all shards receive the *same* future object for
the same launch (the driver's, by creation order), so reading a future's
value is control deterministic by construction.  A launch's future is
made before its points run; reading its value runs the runtime's queue
(the ``drain`` callable it was made with) first.  ``is_ready`` is the one
timing-dependent query (paper §3, Fig. 5); the runtime routes it through
a *timing oracle* so tests can simulate shard-dependent timing and
demonstrate the determinism checker catching the violation.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = ["Future", "FutureMap"]

_future_ids = itertools.count()


class Future:
    """A handle for a value a task will produce."""

    __slots__ = ("uid", "_value", "_resolved", "_timing_oracle", "_drain",
                 "structural_key", "structural_bytes")

    def __init__(self, timing_oracle: Optional[Callable[["Future"], bool]] = None,
                 drain: Optional[Callable[[], None]] = None):
        self.uid = next(_future_ids)
        self.structural_key = self.structural_bytes = None
        self._value: Any = None
        self._resolved = False
        self._timing_oracle = timing_oracle
        self._drain = drain

    def resolve(self, value: Any) -> None:
        """Install the producing task's value (and drop the queue, so a
        resolved future holds no reference back to its runtime)."""
        self._value = value
        self._resolved = True
        self._drain = None

    def get(self) -> Any:
        """Block for the value: run the queue up to the producing task if
        it has not run yet.  Identical on every shard."""
        if not self._resolved and self._drain is not None:
            self._drain()
        if not self._resolved:
            raise RuntimeError("future read before its producing task ran")
        return self._value

    def is_ready(self) -> bool:
        """Timing-dependent readiness probe.

        **Branching on this value is a control-determinism hazard** (Fig. 5)
        unless every shard observes the same answer.  The default oracle
        reports the true resolution state, which depends on timing here
        too: the driver asks before its queue has run the producing task,
        a replica after.  Tests install per-shard oracles to model any
        timing skew.
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
    threads indexing at once all get the one ``setdefault`` kept.

    ``values`` is None until the launch's points have run; every read
    runs the queue (``drain``) first."""

    __slots__ = ("uid", "_values", "_futures", "_timing_oracle", "_drain",
                 "structural_key", "structural_bytes")

    def __init__(self, values: Optional[Dict[Hashable, Any]],
                 timing_oracle: Optional[Callable[[Future], bool]] = None,
                 drain: Optional[Callable[[], None]] = None):
        self.uid = next(_future_ids)
        self.structural_key = self.structural_bytes = None
        self._values = values
        self._futures: Dict[Hashable, Future] = {}
        self._timing_oracle = timing_oracle
        self._drain = drain

    def fill(self, values: Dict[Hashable, Any]) -> None:
        """Install the points' values, in launch point order."""
        self._values = values
        self._drain = None

    def _ready(self) -> Dict[Hashable, Any]:
        if self._values is None:
            self._drain()
        return self._values

    def __getitem__(self, point: Hashable) -> Future:
        """The point's future, keyed (map key, point)."""
        future = self._futures.get(point)
        if future is None:
            future = Future(self._timing_oracle)
            future.resolve(self._ready()[point])
            if self.structural_key is not None:
                future.structural_key = (self.structural_key, point)
            future = self._futures.setdefault(point, future)
        return future

    def get_all(self) -> Dict[Hashable, Any]:
        """All point values, keyed by launch point."""
        return dict(self._ready())

    def reduce(self, op: Callable[[Any, Any], Any]) -> Any:
        """Combine all point values in deterministic (sorted-point) order."""
        values = self._ready()
        items = [values[p] for p in sorted(values)]
        if not items:
            raise ValueError("empty future map")
        acc = items[0]
        for v in items[1:]:
            acc = op(acc, v)
        return acc

    def __len__(self) -> int:
        return len(self._ready())

    def __iter__(self):
        return iter(sorted(self._ready()))
