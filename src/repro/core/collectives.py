"""Collective primitives between shards (paper §4.2).

DCR uses four collectives for cooperative work between shards — broadcast,
reduce, all-gather, all-reduce — implemented with tree or butterfly
communication schedules of O(log N) latency.  Cross-shard dependence fences
are an all-gather with no data payload.

This module implements the *schedules themselves* (not just ``functools
.reduce``): the butterfly all-reduce really performs log2(N) rounds of
pairwise exchanges, so tests can check both the results and the O(log N)
round/message structure that the simulator's cost model charges for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TypeVar

from ..faults.injector import CollectiveTimeout, FaultInjector
from ..obs.events import (CAT_COLLECTIVE, CAT_FAULT, CONTROL_SHARD,
                          EV_FAULT_INJECT, EV_FAULT_RETRY)
from ..obs.profiler import Profiler, get_profiler

__all__ = ["CollectiveStats", "RetryConfig", "Collectives"]

T = TypeVar("T")


@dataclass
class CollectiveStats:
    """Accounting of collective usage, consumed by the simulator cost model.

    ``rounds`` and ``messages`` include fault-induced extras: every
    retransmission adds one message and one (serialized) hop, every
    duplicate delivery adds one message — so a chaos run's cost model
    charges what was actually sent, not the fault-free schedule.
    """

    operations: int = 0
    rounds: int = 0            # latency in hops, sum over operations
    messages: int = 0          # point-to-point messages, sum over operations
    by_kind: dict = field(default_factory=dict)
    # -- fault accounting (all zero without an injector) --------------------
    retransmissions: int = 0   # messages re-sent after a drop
    duplicates: int = 0        # spurious second deliveries
    delayed: int = 0           # messages that arrived late
    timeouts: int = 0          # retry budgets exhausted
    retry_backoff_us: float = 0.0   # total backoff latency awaited
    delay_latency_us: float = 0.0   # total injected delivery delay

    def record(self, kind: str, rounds: int, messages: int) -> None:
        self.operations += 1
        self.rounds += rounds
        self.messages += messages
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


@dataclass(frozen=True)
class RetryConfig:
    """Retry/backoff policy for lost collective messages.

    A dropped message is retransmitted up to ``max_retries`` times; the
    k-th retransmission waits ``backoff_us * factor**k`` microseconds
    (k = 0 for the first retry).  The schedule depends only on the retry
    config and the (deterministic) drop decisions, so two runs with the
    same fault seed wait identical backoff totals.  ``delay_us`` is the
    latency charged for an injected message delay (masked, no retry).
    """

    max_retries: int = 3
    backoff_us: float = 50.0
    factor: float = 2.0
    delay_us: float = 25.0

    def backoff_schedule(self, attempts: int) -> List[float]:
        """Backoff waits for ``attempts`` consecutive retransmissions."""
        return [self.backoff_us * self.factor ** k for k in range(attempts)]


def _log2_rounds(n: int) -> int:
    return max(0, math.ceil(math.log2(n))) if n > 1 else 0


class Collectives:
    """Collectives over ``num_shards`` logical shards.

    Values are passed in as a list indexed by shard; results come back the
    same way.  All schedules are deterministic, so any shard replaying the
    same collective sequence observes the same results — a requirement for
    control determinism.
    """

    def __init__(self, num_shards: int,
                 profiler: Optional[Profiler] = None,
                 injector: Optional[FaultInjector] = None,
                 retry: Optional[RetryConfig] = None):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards
        self.profiler = profiler if profiler is not None else get_profiler()
        self.injector = injector
        self.retry = retry or RetryConfig()
        self.stats = CollectiveStats()

    def _deliver(self, kind: str, rounds: int, messages: int) -> tuple:
        """Record one collective, pushing each message past the injector.

        Without an injector (or with it disabled) this is exactly
        ``stats.record`` — no per-message loop runs.  With one, every
        message of the schedule may be dropped (retransmitted with
        exponential backoff, raising :class:`CollectiveTimeout` past
        ``retry.max_retries``), delayed (masked; latency charged), or
        duplicated (one extra message).  Returns the adjusted ``(rounds,
        messages)`` actually charged, for the profiler's hop schedule.
        """
        inj = self.injector
        if inj is None or not inj.enabled:
            self.stats.record(kind, rounds, messages)
            return rounds, messages
        prof = self.profiler
        retry = self.retry
        op = self.stats.operations          # ordinal of this collective
        extra_rounds = 0
        extra_msgs = 0
        for m in range(messages):
            attempt = 0
            while True:
                event = inj.message_event(kind, op, m, attempt)
                if event is None:
                    break
                if prof.enabled:
                    prof.instant(CONTROL_SHARD, CAT_FAULT, EV_FAULT_INJECT,
                                 site=f"msg_{event}", kind=kind, op=op,
                                 msg=m, attempt=attempt)
                if event == "delay":
                    self.stats.delayed += 1
                    self.stats.delay_latency_us += retry.delay_us
                    break
                if event == "dup":
                    self.stats.duplicates += 1
                    extra_msgs += 1
                    break
                # Dropped: retransmit after exponential backoff, or give up.
                if attempt >= retry.max_retries:
                    self.stats.timeouts += 1
                    self.stats.record(kind, rounds + extra_rounds,
                                      messages + extra_msgs)
                    raise CollectiveTimeout(kind, op, m, attempt + 1)
                backoff = retry.backoff_us * retry.factor ** attempt
                self.stats.retry_backoff_us += backoff
                self.stats.retransmissions += 1
                extra_msgs += 1
                extra_rounds += 1     # the retry hop is serialized
                if prof.enabled:
                    prof.instant(CONTROL_SHARD, CAT_FAULT, EV_FAULT_RETRY,
                                 kind=kind, op=op, msg=m, attempt=attempt,
                                 backoff_us=backoff)
                    prof.count("faults.retransmissions")
                attempt += 1
        rounds += extra_rounds
        messages += extra_msgs
        self.stats.record(kind, rounds, messages)
        return rounds, messages

    def _profile(self, kind: str, t0: float, rounds: int,
                 messages: int) -> None:
        """Charge the round/message schedule onto every shard's timeline.

        The measured wall interval of the collective is split evenly over
        its ``rounds`` hops, and each hop appears on each participating
        shard — the same schedule the simulator's cost model charges, so a
        profile of a functional run and a simulated run line up.
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

    # -- broadcast / reduce (binomial tree) ----------------------------------

    def _check_values(self, kind: str, values: Sequence[T]) -> None:
        """Exactly one contribution per shard, with a diagnosable error.

        A wrong-length list is almost always a shard-count mismatch in the
        caller (e.g. a quarantined shard still contributing, or a stale
        ``num_shards``), so the message names both numbers.
        """
        if len(values) != self.num_shards:
            raise ValueError(
                f"{kind}: one value per shard required — got {len(values)} "
                f"value(s) for {self.num_shards} shard(s)")

    def _check_root(self, kind: str, root: int) -> None:
        if not 0 <= root < self.num_shards:
            raise ValueError(
                f"{kind}: root shard {root} outside the valid range "
                f"[0, {self.num_shards}) for {self.num_shards} shard(s)")

    def broadcast(self, value: T, root: int = 0) -> List[T]:
        """One value from ``root`` to every shard; binomial tree, log N hops."""
        n = self.num_shards
        self._check_root("broadcast", root)
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        rounds, msgs = self._deliver("broadcast", _log2_rounds(n),
                                     max(0, n - 1))
        result = [value for _ in range(n)]
        if prof.enabled:
            self._profile("broadcast", t0, rounds, msgs)
        return result

    def reduce(self, values: Sequence[T], op: Callable[[T, T], T],
               root: int = 0) -> T:
        """Combine per-shard values to ``root`` along a binomial tree.

        The tree combine order is fixed (pairs at distance 1, 2, 4, ...), so
        the result is deterministic even for merely-associative ops.  The
        tree ends at shard 0; any other ``root`` is charged one more round
        and message for the relay hop, as the wire schedule pays it.
        """
        n = self.num_shards
        self._check_values("reduce", values)
        self._check_root("reduce", root)
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        relay = 1 if root != 0 else 0
        rounds, msgs = self._deliver("reduce", _log2_rounds(n) + relay,
                                     max(0, n - 1) + relay)
        acc: List[T] = list(values)
        dist = 1
        while dist < n:
            for i in range(0, n, 2 * dist):
                j = i + dist
                if j < n:
                    acc[i] = op(acc[i], acc[j])
            dist *= 2
        if prof.enabled:
            self._profile("reduce", t0, rounds, msgs)
        return acc[0]

    # -- all-gather / all-reduce (butterfly) ------------------------------------

    def allgather(self, values: Sequence[T]) -> List[List[T]]:
        """Every shard receives every shard's value, in shard order.

        Implemented as a recursive-doubling butterfly: round r exchanges
        blocks of size 2^r with the partner at distance 2^r.
        """
        n = self.num_shards
        self._check_values("allgather", values)
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        base = _log2_rounds(n)
        rounds, msgs = self._deliver("allgather", base, base * n)
        result = [list(values) for _ in range(n)]
        if prof.enabled:
            self._profile("allgather", t0, rounds, msgs)
        return result

    def allreduce(self, values: Sequence[T], op: Callable[[T, T], T]) -> List[T]:
        """Every shard receives the reduction of all values (butterfly).

        Executes the genuine recursive-doubling schedule: in round r, shard i
        exchanges with shard ``i ^ 2^r`` and both combine.  For non-power-of-2
        shard counts the extras first fold into the main block and receive
        the result at the end (the standard MPI approach), adding **two**
        rounds — one fold-in hop before the butterfly and one result hop
        after it — with one message per extra shard in each; the butterfly
        itself exchanges one message per participating shard per round.
        The charged schedule is therefore ``log2(pow2)`` rounds of ``pow2``
        messages plus, when ``n`` is not a power of two, 2 rounds of
        ``n - pow2`` messages (regression-tested for n = 1, 2, 3, 5, 8 in
        ``tests/core/test_collectives.py``).
        """
        n = self.num_shards
        self._check_values("allreduce", values)
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        acc: List[T] = list(values)
        pow2 = 1 << (n.bit_length() - 1)
        rounds = _log2_rounds(pow2)
        msgs = rounds * pow2
        extra = n - pow2
        if extra:
            # Fold-in hop before the butterfly + result hop after it.
            rounds += 2
            msgs += 2 * extra
            for i in range(extra):
                # Extra shard pow2+i folds into shard i before the butterfly.
                acc[i] = op(acc[i], acc[pow2 + i])
        rounds, msgs = self._deliver("allreduce", rounds, msgs)
        dist = 1
        while dist < pow2:
            nxt = list(acc)
            for i in range(pow2):
                partner = i ^ dist
                # Deterministic combine order: lower index first.
                lo, hi = (i, partner) if i < partner else (partner, i)
                nxt[i] = op(acc[lo], acc[hi])
            acc[:pow2] = nxt[:pow2]
            dist *= 2
        if extra:
            for i in range(extra):
                acc[pow2 + i] = acc[i]
        if prof.enabled:
            self._profile("allreduce", t0, rounds, msgs)
        return acc

    def barrier(self) -> None:
        """Synchronize all shards; an all-gather with no payload (§4.2)."""
        n = self.num_shards
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        base = _log2_rounds(n)
        rounds, msgs = self._deliver("barrier", base, base * n)
        if prof.enabled:
            self._profile("barrier", t0, rounds, msgs)

    def fence_rounds(self) -> int:
        """Latency (in hops) of one cross-shard fence collective."""
        return _log2_rounds(self.num_shards)
