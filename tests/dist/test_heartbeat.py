"""Heartbeat liveness: phi suspicion and deterministic schedules.

Everything here runs against an injectable fake clock — no sleeps, no
wall-clock reads — so the suspicion timeline, the snapshot contents, and
the detection-latency comparison are exact, not statistical.
"""

import pytest

from repro.dist.heartbeat import (HB_DEAD, HB_HEALTHY, HB_SUSPECTED,
                                  HeartbeatMonitor, heartbeat_interval)
from repro.dist.transport import DEFAULT_DEADLINE_S


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


INTERVAL = 0.25


def make_monitor(ranks=3, **kw):
    clock = FakeClock()
    mon = HeartbeatMonitor(ranks, INTERVAL, clock=clock, **kw)
    return mon, clock


class TestPhiStates:
    def test_fresh_monitor_is_healthy(self):
        mon, clock = make_monitor()
        for r in range(3):
            assert mon.state(r, clock()) == HB_HEALTHY
        assert mon.dead_ranks(clock()) == []

    def test_silence_walks_healthy_suspected_dead(self):
        mon, clock = make_monitor()
        # phi = elapsed / mean; mean seeds at the nominal interval.
        clock.advance(INTERVAL * 2)
        assert mon.state(0, clock()) == HB_HEALTHY
        clock.advance(INTERVAL * 3)         # phi = 5 >= phi_suspect (4)
        assert mon.state(0, clock()) == HB_SUSPECTED
        clock.advance(INTERVAL * 8)         # phi = 13 >= phi_dead (12)
        assert mon.state(0, clock()) == HB_DEAD
        assert mon.dead_ranks(clock()) == [0, 1, 2]

    def test_beat_clears_suspicion(self):
        mon, clock = make_monitor()
        clock.advance(INTERVAL * 5)
        assert mon.state(1, clock()) == HB_SUSPECTED
        mon.beat(1, at=clock())
        assert mon.state(1, clock()) == HB_HEALTHY
        # The other ranks stayed silent and stay suspected.
        assert mon.state(0, clock()) == HB_SUSPECTED

    def test_beat_does_not_resurrect_the_dead(self):
        mon, clock = make_monitor()
        assert mon.force_dead(0, at=clock())
        mon.beat(0, at=clock.advance(0.01))
        assert mon.state(0, clock()) == HB_DEAD

    def test_force_dead_reports_newly_dead_once(self):
        mon, clock = make_monitor()
        assert mon.force_dead(0, at=clock()) is True
        assert mon.force_dead(0, at=clock()) is False

    def test_phi_bounds_validated(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            HeartbeatMonitor(2, INTERVAL, phi_suspect=8.0, phi_dead=4.0,
                             clock=clock)
        with pytest.raises(ValueError):
            HeartbeatMonitor(2, INTERVAL, phi_suspect=0.0, clock=clock)


class TestDetectionLatency:
    def test_heartbeat_death_beats_the_recv_deadline(self):
        """The acceptance bound: a silent shard is declared dead at
        phi_dead * interval — far below the transport's receive deadline,
        which is what the plain recv path would have waited out."""
        mon, clock = make_monitor()
        t0 = clock()
        while mon.state(0, clock()) != HB_DEAD:
            clock.advance(INTERVAL / 4)
            assert clock() - t0 < DEFAULT_DEADLINE_S, \
                "heartbeat detection slower than the recv deadline"
        detection_s = clock() - t0
        assert detection_s <= mon.phi_dead * INTERVAL + INTERVAL
        assert detection_s < DEFAULT_DEADLINE_S / 5

    def test_ewma_adapts_to_a_slow_but_steady_sender(self):
        """A shard beating steadily at 3x the nominal interval is slow,
        not dead: the EWMA stretches toward the observed cadence, keeping
        phi bounded."""
        mon, clock = make_monitor()
        for _ in range(30):
            clock.advance(INTERVAL * 3)
            mon.beat(0, at=clock())
        clock.advance(INTERVAL * 3)
        assert mon.state(0, clock()) == HB_HEALTHY


class TestPoll:
    def test_poll_records_each_transition_once(self):
        mon, clock = make_monitor(ranks=2)
        mon.beat(1, at=clock.advance(INTERVAL))   # keep rank 1 healthy
        clock.advance(INTERVAL * 6)
        first = mon.poll(clock())
        assert (HB_SUSPECTED, 0) in [(s, r) for s, r, _ in first]
        assert mon.poll(clock()) == []            # no re-reporting
        clock.advance(INTERVAL * 20)
        later = [(s, r) for s, r, _ in mon.poll(clock())]
        assert (HB_DEAD, 0) in later
        assert (HB_DEAD, 1) in later

    def test_straight_to_dead_emits_both_transitions(self):
        mon, clock = make_monitor(ranks=1)
        clock.advance(INTERVAL * 50)
        states = [s for s, _, _ in mon.poll(clock())]
        assert states == [HB_SUSPECTED, HB_DEAD]


class TestSnapshot:
    def test_snapshot_is_json_safe_and_deterministic(self):
        import json

        def build():
            mon, clock = make_monitor()
            mon.beat(0, at=clock.advance(INTERVAL))
            clock.advance(INTERVAL * 7)
            mon.force_dead(2, at=clock())
            return mon.snapshot(clock())

        a, b = build(), build()
        assert a == b                       # fake clock => exact equality
        assert json.loads(json.dumps(a)) == a
        assert a["ranks"]["2"]["state"] == HB_DEAD
        assert a["ranks"]["0"]["beats"] == 1
        # Timestamps are relative to monitor start, not absolute clock.
        assert a["ranks"]["2"]["dead_at"] < 10.0


class TestDeterministicSchedules:
    def test_heartbeat_intervals_replay_exactly(self):
        seq1 = [heartbeat_interval(7, r, k, INTERVAL)
                for r in range(4) for k in range(50)]
        seq2 = [heartbeat_interval(7, r, k, INTERVAL)
                for r in range(4) for k in range(50)]
        assert seq1 == seq2

    def test_intervals_jitter_within_bounds_and_across_ranks(self):
        vals = [heartbeat_interval(7, r, k, INTERVAL, jitter=0.2)
                for r in range(4) for k in range(50)]
        assert all(INTERVAL * 0.8 <= v <= INTERVAL * 1.2 for v in vals)
        assert len(set(vals)) > 100          # not a constant schedule
