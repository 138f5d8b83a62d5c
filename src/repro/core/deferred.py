"""GC-safe deferred operations (paper §4.3).

Garbage-collector finalizers (Python/Lua) may delete regions or perform
detach operations at *arbitrary* points in each shard, which would violate
control determinism.  The remedy: such operations are *deferred* — each
shard announces the operation whenever its collector happens to run, and the
runtime polls whether **all** shards have observed the same deferred
operation.  Once they concur, the operation is inserted at the same location
in every shard's dependence analysis stream; until then it stays pending.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Set

__all__ = ["DeferredOpManager"]


@dataclass
class _PendingOp:
    key: Hashable
    observed_by: Set[int] = field(default_factory=set)


class DeferredOpManager:
    """Consensus buffer for finalizer-issued operations.

    ``announce(shard, key)`` is called from a shard's finalizer; ``poll()``
    is called by the runtime when it drains and returns (in a canonical,
    deterministic order) the keys every shard has announced, which
    the runtime then inserts into all shards' streams at the same point.
    """

    def __init__(self, num_shards: int):
        self.num_shards = num_shards
        self._pending: Dict[Hashable, _PendingOp] = {}
        self._announce_order: List[Hashable] = []
        # Loopback-backend replicas announce from concurrent threads; the
        # shared pending map must mutate atomically.
        self._lock = threading.Lock()

    def announce(self, shard: int, key: Hashable) -> None:
        """Shard ``shard``'s collector finalized the resource named ``key``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"invalid shard {shard}")
        with self._lock:
            op = self._pending.get(key)
            if op is None:
                op = _PendingOp(key)
                self._pending[key] = op
                self._announce_order.append(key)
            op.observed_by.add(shard)

    def poll(self) -> List[Hashable]:
        """Remove and return the operations every shard announced,
        in the deterministic first-announced order."""
        with self._lock:
            ready = [
                key for key in self._announce_order
                if len(self._pending[key].observed_by) == self.num_shards
            ]
            for key in ready:
                del self._pending[key]
            self._announce_order = [
                k for k in self._announce_order if k in self._pending]
        return ready

    def announced_by(self, shard: int) -> List[Hashable]:
        """Pending keys ``shard`` has announced, in announcement order.

        A forked gang replica announces into its own copy of the manager
        and ships this list back, so the parent can repeat exactly those
        announcements.
        """
        with self._lock:
            return [k for k in self._announce_order
                    if shard in self._pending[k].observed_by]

    @property
    def outstanding(self) -> int:
        """Operations announced by at least one shard but not yet agreed."""
        return len(self._pending)
