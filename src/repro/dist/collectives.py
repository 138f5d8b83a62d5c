"""Rank-local collectives over a :class:`~repro.dist.transport.Transport`.

:class:`DistCollectives` is the second executor of the schedules written
in :mod:`repro.core.collectives`.  The in-process executor holds a global
view (``values`` indexed by shard, results back the same way); here each
shard owns one instance, contributes only its *own* value, and walks its
:func:`~repro.core.collectives.rank_schedule` — send where it is a step's
source, receive where it is the destination, fold lower index first.  No
schedule arithmetic lives in this module, so results, combine orders and
``stats`` equal the in-process ones by construction, and ``stats
.messages`` summed over the ranks' shares is the number of frames the
transports carry (``frames_sent``).

Every receive inherits the transport's hard deadline: a lost peer raises
:class:`~repro.faults.injector.CollectiveTimeout` (or its
:class:`~repro.dist.transport.PeerGone` subclass), never hangs.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TypeVar

from ..core.collectives import ScheduledCollectives, fold, rank_schedule
from ..obs.events import CAT_COLLECTIVE
from ..obs.profiler import Profiler
from .transport import Transport

__all__ = ["DistCollectives"]

T = TypeVar("T")


class DistCollectives(ScheduledCollectives):
    """The deterministic collective schedules, executed over real IPC."""

    def __init__(self, transport: Transport,
                 profiler: Optional[Profiler] = None):
        super().__init__(transport.num_shards, (transport.rank,), profiler)
        self.transport = transport
        self.rank = transport.rank

    def run(self, kind: str, acc: List[Any],
            op: Optional[Callable[[Any, Any], Any]] = None,
            root: int = 0) -> List[Any]:
        sched = self._schedule(kind, root)
        rank = self.rank
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        # The operation ordinal tags every frame of this collective; it
        # only climbs, so back-to-back collectives never share a tag.
        ordinal = self.stats.operations
        rounds, messages = self._charge(kind, sched)
        send, recv = self.transport.send, self.transport.recv
        mine = acc[0]
        for rnd, (send_to, recv_from, combine) in enumerate(
                rank_schedule(kind, self.num_shards, root, rank)):
            if send_to is not None:
                send(send_to, kind, ordinal, rnd, mine)
            if recv_from is not None:
                arriving = recv(recv_from, kind, ordinal, rnd)
                mine = fold(mine, arriving, rank, recv_from, op) \
                    if combine else arriving
        acc[0] = mine
        if prof.enabled:
            prof.complete(rank, CAT_COLLECTIVE, f"{kind}.op{ordinal}",
                          t0, max(prof.now_us() - t0, 0.0), kind=kind,
                          rounds=rounds, msgs_total=messages)
            prof.count("collectives.dist.ops")
        return acc

    def broadcast(self, value: T, root: int = 0) -> T:
        """Root's value delivered to every shard; binomial tree."""
        return self.run("broadcast", [value], root=root)[0]

    def reduce(self, value: T, op: Callable[[T, T], T],
               root: int = 0) -> Optional[T]:
        """Combine per-shard values toward ``root`` along a binomial tree.

        The combine order is the in-process one, so merely-associative
        ops reduce to bit-identical results.  Returns the reduction on
        ``root`` and ``None`` elsewhere.
        """
        out = self.run("reduce", [value], op, root)[0]
        return out if self.rank == root else None

    def allgather(self, value: T) -> List[T]:
        """Every shard receives every shard's value, in shard order."""
        return self.gather([value])[0]

    def allreduce(self, value: T, op: Callable[[T, T], T]) -> T:
        """Every shard receives the reduction of all values (butterfly)."""
        return self.run("allreduce", [value], op)[0]
