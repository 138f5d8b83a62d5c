"""Futures: deferred task return values.

A launch's value is named by the launch: the index of its call in the
shard's hashed stream, which is its ``structural_key`` and the same on
every shard.  The driver runs the launch and files its value under that
name in the runtime's table of launch values; every shard builds its own
future and reads the table by name, so reading a future's value is
control deterministic by construction.  A launch whose kernel raised
holds the error instead, and every shard's future re-raises it.  A future
is made before its points run; reading its value runs the runtime's queue
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


class Failed:
    """A launch's value when its kernel raised: reading it re-raises."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


def _read(values: Dict[Hashable, Any], key: Hashable,
          drain: Optional[Callable[[], None]]) -> Any:
    """The value filed under ``key``, once the queue has run; a run of
    the queue that meets a kernel's error raises it."""
    if key not in values and drain is not None:
        drain()
    if key not in values:
        raise RuntimeError("future read before its producing task ran")
    value = values[key]
    if type(value) is Failed:
        raise value.error
    return value


class Future:
    """A handle for a value a task will produce, read from ``values``
    under its ``structural_key``."""

    __slots__ = ("structural_key", "structural_bytes", "_values", "_drain",
                 "_timing_oracle")

    def __init__(self, key: Hashable, values: Dict[Hashable, Any],
                 drain: Optional[Callable[[], None]] = None,
                 timing_oracle: Optional[Callable[["Future"], bool]] = None):
        self.structural_key = key
        self.structural_bytes = None
        self._values = values
        self._drain = drain
        self._timing_oracle = timing_oracle

    def get(self) -> Any:
        """Block for the value: run the queue if the producing task has
        not run yet.  Identical on every shard."""
        return _read(self._values, self.structural_key, self._drain)

    def is_ready(self) -> bool:
        """Timing-dependent readiness probe.

        **Branching on this value is a control-determinism hazard** (Fig. 5)
        unless every shard observes the same answer.  The default oracle
        reports whether the value is filed, which depends on timing here
        too: the driver asks before its queue has run the producing task,
        a replica after.  Tests install per-shard oracles to model any
        timing skew.
        """
        if self._timing_oracle is not None:
            return self._timing_oracle(self)
        return self.structural_key in self._values


class FutureMap:
    """The values of an index launch, one per point, filed in ``values``
    under the map's ``structural_key`` as one dict.  A point's
    :class:`Future` is made when the point is first indexed and keyed
    (map key, point); every read runs the queue (``drain``) first."""

    __slots__ = ("uid", "structural_key", "structural_bytes", "_values",
                 "_futures", "_drain", "_timing_oracle")

    def __init__(self, key: Hashable, values: Dict[Hashable, Any],
                 drain: Optional[Callable[[], None]] = None,
                 timing_oracle: Optional[Callable[[Future], bool]] = None):
        self.uid = next(_future_ids)
        self.structural_key = key
        self.structural_bytes = None
        self._values = values
        self._futures: Dict[Hashable, Future] = {}
        self._drain = drain
        self._timing_oracle = timing_oracle

    def _ready(self) -> Dict[Hashable, Any]:
        return _read(self._values, self.structural_key, self._drain)

    def __getitem__(self, point: Hashable) -> Future:
        """The point's future, keyed (map key, point)."""
        future = self._futures.get(point)
        if future is None:
            key = (self.structural_key, point)
            future = Future(key, {key: self._ready()[point]}, None,
                            self._timing_oracle)
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
