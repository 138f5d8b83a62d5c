"""Heartbeat liveness: phi-style failure suspicion for persistent gangs.

The transport's hard receive deadline (:data:`~repro.dist.transport.
DEFAULT_DEADLINE_S`) guarantees a dead peer eventually becomes an
exception, but "eventually" is the *full* deadline — tens of seconds of a
gang parked in a collective that can never complete.  This module gives
the supervisor a much earlier signal: every worker emits periodic
**heartbeat frames** on its control channel, and a driver-side
:class:`HeartbeatMonitor` accrues a *suspicion level* per rank,

.. math:: \\varphi(r) = \\frac{\\text{time since r's last beat}}
                             {\\text{EWMA of r's beat intervals}}

the simplified form of phi-accrual failure detection (Hayashibara et
al.): :math:`\\varphi` crossing ``phi_suspect`` marks a rank *suspected*
(slow — keep waiting), crossing ``phi_dead`` marks it *dead* (stop
waiting, quarantine it, rebuild the gang).  Distinguishing the two is
the whole point: a slow shard recovers its own suspicion by beating
again, only a silent one is declared dead — long before the recv
deadline would fire.

Everything here is deterministic by construction:

* the monitor takes an **injectable clock** (tests drive transitions with
  a fake clock, timestamps in snapshots are rendered relative to the
  monitor's start so two fake-clock runs are byte-identical);
* heartbeat intervals draw their jitter from the counter-based Threefry
  stream (:func:`repro.core.rng.threefry2x64`) — a pure function of
  ``(seed, rank, index)``, never of wall clock, so a chaos run replays
  bit-identically (``tests/dist/test_heartbeat.py``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.rng import threefry2x64

__all__ = ["HB_HEALTHY", "HB_SUSPECTED", "HB_DEAD", "HeartbeatMonitor",
           "heartbeat_interval"]

#: Per-rank liveness states, in order of escalation.
HB_HEALTHY = "healthy"
HB_SUSPECTED = "suspected"
HB_DEAD = "dead"

#: Domain-separation stream (an arbitrary non-zero constant, mirroring the
#: fault injector's ``_FAULT_STREAM`` discipline).
_HB_STREAM = 0x48B7


def heartbeat_interval(seed: int, rank: int, index: int,
                       base_s: float, jitter: float = 0.2) -> float:
    """Delay before beat number ``index`` of ``rank``.

    ``base_s`` ± ``jitter`` fraction, the jitter drawn from the Threefry
    stream keyed on ``(seed, rank, index)`` — de-synchronizes the ranks'
    beat schedules (no thundering herd on the control channel) without
    ever consulting the wall clock, so the schedule replays exactly.
    """
    word, _ = threefry2x64((seed, _HB_STREAM), (rank, index))
    u = (word >> 11) * (1.0 / (1 << 53))
    return base_s * (1.0 + jitter * (2.0 * u - 1.0))


class HeartbeatMonitor:
    """Accrues per-rank suspicion from beat arrivals; thread-safe.

    One instance lives on the gang driver; the channel pump feeds it
    :meth:`beat` calls and periodically drains :meth:`poll` for state
    transitions (each transition is reported exactly once — the pump
    turns them into profiler events).  ``clock`` is injectable so every
    threshold crossing is testable without sleeping.
    """

    def __init__(self, ranks: int, interval_s: float,
                 phi_suspect: float = 4.0, phi_dead: float = 8.0,
                 clock: Callable[[], float] = time.monotonic):
        if not 0 < phi_suspect < phi_dead:
            raise ValueError(
                f"need 0 < phi_suspect < phi_dead, got "
                f"{phi_suspect} / {phi_dead}")
        self.num_ranks = ranks
        self.interval_s = interval_s
        self.phi_suspect = phi_suspect
        self.phi_dead = phi_dead
        self._clock = clock
        self._lock = threading.Lock()
        self._t0 = clock()
        now = self._t0
        self._last: Dict[int, float] = {r: now for r in range(ranks)}
        self._mean: Dict[int, float] = {r: interval_s for r in range(ranks)}
        self._beats: Dict[int, int] = {r: 0 for r in range(ranks)}
        self._suspected_at: Dict[int, Optional[float]] = \
            {r: None for r in range(ranks)}
        self._dead_at: Dict[int, Optional[float]] = \
            {r: None for r in range(ranks)}

    # -- feeding -------------------------------------------------------------

    def beat(self, rank: int, at: Optional[float] = None) -> None:
        """Record one heartbeat arrival from ``rank``."""
        now = self._clock() if at is None else at
        with self._lock:
            if rank not in self._last:
                return
            observed = max(0.0, now - self._last[rank])
            self._last[rank] = now
            self._beats[rank] += 1
            # EWMA of inter-arrival times, seeded with the nominal
            # interval so the very first gap already has a baseline.
            self._mean[rank] = 0.7 * self._mean[rank] + 0.3 * observed
            if self._dead_at[rank] is None:
                # A slow rank that beats again sheds its suspicion — the
                # slow-vs-dead distinction the detector exists for.
                self._suspected_at[rank] = None

    def force_dead(self, rank: int, at: Optional[float] = None) -> bool:
        """Declare ``rank`` dead out of band (channel EOF); True if new."""
        now = self._clock() if at is None else at
        with self._lock:
            if rank not in self._dead_at or self._dead_at[rank] is not None:
                return False
            if self._suspected_at[rank] is None:
                self._suspected_at[rank] = now
            self._dead_at[rank] = now
            return True

    # -- reading -------------------------------------------------------------

    def phi(self, rank: int, now: Optional[float] = None) -> float:
        now = self._clock() if now is None else now
        with self._lock:
            return self._phi_locked(rank, now)

    def _phi_locked(self, rank: int, now: float) -> float:
        elapsed = max(0.0, now - self._last[rank])
        return elapsed / max(self._mean[rank], 1e-9)

    def state(self, rank: int, now: Optional[float] = None) -> str:
        now = self._clock() if now is None else now
        with self._lock:
            return self._state_locked(rank, now)

    def _state_locked(self, rank: int, now: float) -> str:
        if self._dead_at[rank] is not None:
            return HB_DEAD
        p = self._phi_locked(rank, now)
        if p >= self.phi_dead:
            return HB_DEAD
        if p >= self.phi_suspect:
            return HB_SUSPECTED
        return HB_HEALTHY

    def dead_ranks(self, now: Optional[float] = None) -> List[int]:
        now = self._clock() if now is None else now
        with self._lock:
            return [r for r in sorted(self._last)
                    if self._state_locked(r, now) == HB_DEAD]

    def poll(self, now: Optional[float] = None
             ) -> List[Tuple[str, int, float]]:
        """New state transitions since the last poll, recorded once each.

        Returns ``(state, rank, at)`` tuples — ``state`` is
        :data:`HB_SUSPECTED` or :data:`HB_DEAD` — and stamps the
        per-rank ``suspected_at`` / ``dead_at`` walls used by
        :meth:`snapshot` (the "wall of suspicion").
        """
        now = self._clock() if now is None else now
        transitions: List[Tuple[str, int, float]] = []
        with self._lock:
            for rank in sorted(self._last):
                if self._dead_at[rank] is not None:
                    continue
                p = self._phi_locked(rank, now)
                if p >= self.phi_dead:
                    if self._suspected_at[rank] is None:
                        self._suspected_at[rank] = now
                        transitions.append((HB_SUSPECTED, rank, now))
                    self._dead_at[rank] = now
                    transitions.append((HB_DEAD, rank, now))
                elif p >= self.phi_suspect \
                        and self._suspected_at[rank] is None:
                    self._suspected_at[rank] = now
                    transitions.append((HB_SUSPECTED, rank, now))
        return transitions

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """JSON-safe summary of every rank's liveness.

        Timestamps are relative to the monitor's start, so with an
        injectable clock two identical runs render identical snapshots
        (asserted by the recovery-report round-trip tests).
        """
        now = self._clock() if now is None else now
        with self._lock:
            ranks: Dict[str, Any] = {}
            for r in sorted(self._last):
                rel = lambda t: (None if t is None
                                 else round(t - self._t0, 6))  # noqa: E731
                ranks[str(r)] = {
                    "state": self._state_locked(r, now),
                    "phi": round(self._phi_locked(r, now), 3),
                    "beats": self._beats[r],
                    "last_beat_age_s": round(now - self._last[r], 6),
                    "suspected_at": rel(self._suspected_at[r]),
                    "dead_at": rel(self._dead_at[r]),
                }
            return {"interval_s": self.interval_s,
                    "phi_suspect": self.phi_suspect,
                    "phi_dead": self.phi_dead,
                    "ranks": ranks}
