"""Collective primitives between shards (paper §4.2).

DCR uses four collectives for cooperative work between shards — broadcast,
reduce, all-gather, all-reduce — on tree or butterfly communication
schedules of O(log N) latency.  Cross-shard dependence fences are an
all-gather with no data payload.

This module is the only place a communication schedule is written.
:func:`schedule` generates, once per ``(kind, n, root)``, the rounds of
``(src, dst)`` messages a collective exchanges; two thin executors consume
it and nothing else:

* :class:`Collectives` (here) hosts all ``n`` shards in one process and
  applies each step to the destination's slot of a per-shard list;
* :class:`repro.dist.collectives.DistCollectives` is one rank of a gang:
  it sends the steps it is the source of and receives those it is the
  destination of, over a transport.

Both fold an arriving value with :func:`fold` (lower shard index first)
and charge :class:`CollectiveStats` the length of the schedule they ran,
so results agree bit for bit — for merely-associative ops too — and what
is charged is what was executed.

Neither executor loses, delays or duplicates a message: the in-process
one moves values between list slots, and a gang's transport raises
:class:`~repro.faults.injector.CollectiveTimeout` at its receive deadline
or :class:`~repro.dist.transport.PeerGone` when a peer's endpoint closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import (Any, Callable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar)

from ..obs.events import CAT_COLLECTIVE
from ..obs.profiler import Profiler, get_profiler

__all__ = ["CollectiveStats", "Round", "Schedule",
           "schedule", "rank_schedule", "fold", "ScheduledCollectives",
           "Collectives"]

T = TypeVar("T")


@dataclass
class CollectiveStats:
    """Accounting of collective usage: what the schedules cost.

    Read by the per-shard conformance reports
    (:class:`repro.dist.report.ShardReport` ``coll_rounds`` /
    ``coll_messages``), the profiler's ``collectives.*`` metrics, the
    end-to-end benchmark ledger.

    ``rounds`` and ``messages`` are those of the schedule each collective
    executed.
    """

    operations: int = 0
    rounds: int = 0            # latency in hops, sum over operations
    messages: int = 0          # point-to-point messages, sum over operations
    by_kind: dict = field(default_factory=dict)

    def record(self, kind: str, rounds: int, messages: int) -> None:
        self.operations += 1
        self.rounds += rounds
        self.messages += messages
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


# ---------------------------------------------------------------------------
# The schedules
# ---------------------------------------------------------------------------

class Round(NamedTuple):
    """One hop of a schedule: messages that cross simultaneously.

    Every rank appears at most once as a source and at most once as a
    destination.  In a ``combine`` round the destination folds the
    arriving value into its own (:func:`fold`); otherwise it adopts it.
    """

    steps: Tuple[Tuple[int, int], ...]      # (src, dst)
    combine: bool


class Schedule(NamedTuple):
    rounds: Tuple[Round, ...]
    messages: int                           # steps, summed over the rounds


def _tree_broadcast(n: int, root: int) -> Iterator[Round]:
    """Binomial tree rooted at ``root``: holders double every round."""
    dist = 1
    while dist < n:
        yield Round(tuple(((rel + root) % n, (rel + dist + root) % n)
                          for rel in range(min(dist, n - dist))), False)
        dist *= 2


def _tree_reduce(n: int, root: int) -> Iterator[Round]:
    """Binomial tree into shard 0 (pairs at distance 1, 2, 4, ...).

    The tree always ends at shard 0 so the combine order — and with it
    the result of a merely-associative op — does not depend on ``root``;
    any other root is one more hop, relaying the finished reduction.
    """
    dist = 1
    while dist < n:
        yield Round(tuple((i + dist, i)
                          for i in range(0, n - dist, 2 * dist)), True)
        dist *= 2
    if root != 0:
        yield Round(((0, root),), False)


def _butterfly(n: int, root: int) -> Iterator[Round]:
    """Recursive doubling over the largest power-of-two block.

    For other shard counts the extras first fold into the block and
    receive the result at the end (the standard MPI approach), adding two
    rounds of ``n - pow2`` messages around ``log2(pow2)`` rounds of
    ``pow2``.
    """
    pow2 = 1 << (n.bit_length() - 1)
    extra = n - pow2
    if extra:
        yield Round(tuple((pow2 + i, i) for i in range(extra)), True)
    dist = 1
    while dist < pow2:
        yield Round(tuple((i ^ dist, i) for i in range(pow2)), True)
        dist *= 2
    if extra:
        yield Round(tuple((i, pow2 + i) for i in range(extra)), False)


def _dissemination(n: int, root: int) -> Iterator[Round]:
    """Round r: everything held goes to ``rank + 2^r``, wrapping around.

    After r rounds a rank holds the values of the ``2^r`` ranks below it,
    so ⌈log₂n⌉ rounds of n messages complete an all-gather at every n —
    the fence latency the cost model (:mod:`repro.models.dcr`) charges.
    """
    dist = 1
    while dist < n:
        yield Round(tuple((i, (i + dist) % n) for i in range(n)), True)
        dist *= 2


_GENERATORS = {"broadcast": _tree_broadcast, "reduce": _tree_reduce,
               "allreduce": _butterfly, "allgather": _dissemination,
               "barrier": _dissemination}


@lru_cache(maxsize=512)
def schedule(kind: str, n: int, root: int = 0) -> Schedule:
    """The rounds of ``kind`` over ``n`` shards (memoised, immutable)."""
    rounds = tuple(_GENERATORS[kind](n, root))
    return Schedule(rounds, sum(len(r.steps) for r in rounds))


@lru_cache(maxsize=4096)
def rank_schedule(kind: str, n: int, root: int, rank: int) -> Tuple[
        Tuple[Optional[int], Optional[int], bool], ...]:
    """One rank's part of :func:`schedule`: per round ``(send_to,
    recv_from, combine)``, ``None`` where the rank sits the round out."""
    out = []
    for steps, combine in schedule(kind, n, root).rounds:
        send_to = recv_from = None
        for src, dst in steps:
            if src == rank:
                send_to = dst
            if dst == rank:
                recv_from = src
        out.append((send_to, recv_from, combine))
    return tuple(out)


def fold(mine: T, arriving: T, dst: int, src: int,
         op: Callable[[T, T], T]) -> T:
    """Combine at ``dst`` a value arriving from ``src``: lower index first.

    The one combine-order rule, so merely-associative ops reduce to the
    same bits on every shard and in every executor.
    """
    return op(mine, arriving) if dst < src else op(arriving, mine)


def _merge(a: dict, b: dict) -> dict:
    return {**a, **b}


def _nothing(a: Any, b: Any) -> None:
    return None


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

class ScheduledCollectives:
    """What every executor of the schedules shares.

    ``shards`` are the shard ids this object hosts — all of them for the
    in-process :class:`Collectives`, one for a gang rank — and
    :meth:`run` is the executor proper: one value per hosted shard in,
    one result per hosted shard out.  :class:`~repro.core.determinism
    .DeterminismMonitor` is written against this interface only, which is
    what lets one monitor class serve every backend.
    """

    def __init__(self, num_shards: int, shards: Sequence[int],
                 profiler: Optional[Profiler] = None):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards
        self.shards = tuple(shards)
        self.profiler = profiler if profiler is not None else get_profiler()
        self.stats = CollectiveStats()

    def _schedule(self, kind: str, root: int) -> Schedule:
        if not 0 <= root < self.num_shards:
            raise ValueError(
                f"{kind}: root shard {root} outside the valid range "
                f"[0, {self.num_shards}) for {self.num_shards} shard(s)")
        return schedule(kind, self.num_shards, root)

    def _charge(self, kind: str, sched: Schedule) -> Tuple[int, int]:
        """Record one executed schedule; returns the ``(rounds,
        messages)`` charged."""
        rounds, messages = len(sched.rounds), sched.messages
        self.stats.record(kind, rounds, messages)
        return rounds, messages

    def run(self, kind: str, acc: List[Any],
            op: Optional[Callable[[Any, Any], Any]] = None,
            root: int = 0) -> List[Any]:
        """Execute ``kind``'s schedule over ``acc``, one value per hosted
        shard (updated in place and returned)."""
        raise NotImplementedError

    def gather(self, values: Sequence[T]) -> List[List[T]]:
        """All-gather of one value per hosted shard: for each hosted
        shard, every shard's value in shard order."""
        held = self.run("allgather",
                        [{s: v} for s, v in zip(self.shards, values)],
                        _merge)
        return [[h[s] for s in range(self.num_shards)] for h in held]

    def barrier(self) -> None:
        """Synchronize all shards; an all-gather with no payload (§4.2)."""
        self.run("barrier", [None] * len(self.shards), _nothing)

    def fence_rounds(self) -> int:
        """Latency (in hops) of one cross-shard fence collective."""
        return len(self._schedule("barrier", 0).rounds)


class Collectives(ScheduledCollectives):
    """Collectives over ``num_shards`` logical shards in one process.

    Values are passed in as a list indexed by shard; results come back the
    same way.  All schedules are deterministic, so any shard replaying the
    same collective sequence observes the same results — a requirement for
    control determinism.
    """

    def __init__(self, num_shards: int,
                 profiler: Optional[Profiler] = None):
        super().__init__(num_shards, range(num_shards), profiler)

    def run(self, kind: str, acc: List[Any],
            op: Optional[Callable[[Any, Any], Any]] = None,
            root: int = 0) -> List[Any]:
        sched = self._schedule(kind, root)
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        rounds, msgs = self._charge(kind, sched)
        for steps, combine in sched.rounds:
            # A round's messages cross simultaneously: read every source
            # before any destination of the round is written.
            arriving = [acc[src] for src, _dst in steps]
            for (src, dst), value in zip(steps, arriving):
                acc[dst] = fold(acc[dst], value, dst, src, op) \
                    if combine else value
        if prof.enabled:
            self._profile(kind, t0, rounds, msgs)
        return acc

    def _profile(self, kind: str, t0: float, rounds: int,
                 messages: int) -> None:
        """Charge the round/message schedule onto every shard's timeline.

        The measured wall interval of the collective is split evenly over
        its ``rounds`` hops, and each hop appears on each participating
        shard, so a profile shows the schedule :class:`CollectiveStats`
        charged.
        """
        prof = self.profiler
        dur = max(prof.now_us() - t0, 0.0)
        m = prof.metrics
        m.count("collectives.ops")
        m.count("collectives.rounds", rounds)
        m.count("collectives.messages", messages)
        m.count(f"collectives.kind.{kind}")
        if rounds == 0:       # single-shard degenerate case: no hops
            return
        hop = dur / rounds
        for r in range(rounds):
            ts = t0 + r * hop
            for shard in range(self.num_shards):
                prof.complete(shard, CAT_COLLECTIVE, f"{kind}.round{r}",
                              ts, hop, kind=kind, round=r, of=rounds,
                              msgs_total=messages)

    def _check_values(self, kind: str, values: Sequence[T]) -> None:
        """Exactly one contribution per shard, with a diagnosable error.

        A wrong-length list is almost always a shard-count mismatch in the
        caller (e.g. a stale ``num_shards``), so the message names both
        numbers.
        """
        if len(values) != self.num_shards:
            raise ValueError(
                f"{kind}: one value per shard required — got {len(values)} "
                f"value(s) for {self.num_shards} shard(s)")

    def broadcast(self, value: T, root: int = 0) -> List[T]:
        """One value from ``root`` to every shard; binomial tree, log N hops."""
        acc = [value if s == root else None for s in self.shards]
        return self.run("broadcast", acc, root=root)

    def reduce(self, values: Sequence[T], op: Callable[[T, T], T],
               root: int = 0) -> T:
        """Combine per-shard values to ``root`` along a binomial tree.

        The tree combine order is fixed (pairs at distance 1, 2, 4, ...), so
        the result is deterministic even for merely-associative ops.  The
        tree ends at shard 0; any other ``root`` costs one more round and
        message for the relay hop.
        """
        self._check_values("reduce", values)
        return self.run("reduce", list(values), op, root)[root]

    def allgather(self, values: Sequence[T]) -> List[List[T]]:
        """Every shard receives every shard's value, in shard order
        (dissemination: ⌈log₂n⌉ rounds of n messages)."""
        self._check_values("allgather", values)
        return self.gather(values)

    def allreduce(self, values: Sequence[T], op: Callable[[T, T], T]) -> List[T]:
        """Every shard receives the reduction of all values (butterfly).

        In round r, shard i exchanges with shard ``i ^ 2^r`` and both
        combine lower index first.  The charged schedule is ``log2(pow2)``
        rounds of ``pow2`` messages plus, when ``n`` is not a power of two,
        2 rounds of ``n - pow2`` messages (regression-tested for n = 1, 2,
        3, 5, 8 in ``tests/core/test_collectives.py``).
        """
        self._check_values("allreduce", values)
        return self.run("allreduce", list(values), op)
