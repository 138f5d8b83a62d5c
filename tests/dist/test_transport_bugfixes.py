"""Regression tests for the transport-layer bugfix sweep.

Each test here failed before its fix:

* the recv poll backoff never reset after a successful poll, so a burst
  of buffered frames was consumed at the capped idle interval;
* ``PeerGone`` / ``CollectiveTimeout`` raised from inside the poll loop
  carried a generic ``("recv", 0)`` tag and a hardcoded attempt count,
  so failure attribution pointed at the wrong collective;
* send/recv on a closed transport silently enqueued into (or read from)
  dead endpoints instead of raising;
* ``_recv_ahead`` grew without bound when a mis-rebound peer skipped
  ahead, turning a protocol violation into a slow memory leak.
"""

import pytest

from repro.dist.frames import Frame, encode_frame
from repro.dist.transport import (POLL_BASE_S, POLL_CAP_S, LoopbackFabric,
                                  PeerGone,
                                  ReorderWindowExceeded, SharedMemFabric,
                                  TCPFabric, TransportError)
from repro.dist.worker import ShardWorker
from repro.faults.injector import CollectiveTimeout


class FakeClock:
    """A manually-advanced monotonic clock for deadline determinism."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- bugfix 1: backoff resets after a successful poll ------------------------


def test_backoff_resets_after_successful_poll():
    clock = FakeClock()
    fabric = LoopbackFabric(2, deadline_s=1000.0, clock=clock)
    t0, t1 = fabric.transport(0), fabric.transport(1)
    real_poll = t1._poll_frame
    timeouts = []

    def scripted_poll(src, timeout_s):
        # Simulate the sleep so the fake deadline still moves, then
        # script the wire: 5 idle polls (backoff grows), one successful
        # poll of a *different* tag, then the requested frame.
        timeouts.append(timeout_s)
        clock.advance(timeout_s)
        k = len(timeouts)
        if k <= 5:
            return None
        if k == 6:
            t0.send(1, "allgather", 0, 99, "other-tag")
        elif k == 7:
            t0.send(1, "allreduce", 0, 0, "wanted")
        return real_poll(src, 0.001)

    t1._poll_frame = scripted_poll
    assert t1.recv(0, "allreduce", 0, 0) == "wanted"
    # Idle polls back off geometrically...
    assert timeouts[0] == POLL_BASE_S
    assert timeouts[4] > timeouts[0]
    assert all(b >= a for a, b in zip(timeouts[:5], timeouts[1:5]))
    # ...and the successful poll at k=6 resets the next interval to the
    # base, instead of leaving it at the inflated idle value (the bug).
    assert timeouts[6] == POLL_BASE_S


def test_backoff_still_capped_while_idle():
    clock = FakeClock()
    fabric = LoopbackFabric(2, deadline_s=10.0, clock=clock)
    t1 = fabric.transport(1)
    timeouts = []

    def idle_poll(src, timeout_s):
        timeouts.append(timeout_s)
        clock.advance(timeout_s)
        return None

    t1._poll_frame = idle_poll
    with pytest.raises(CollectiveTimeout):
        t1.recv(0, "barrier", 0, 0)
    assert max(timeouts) <= POLL_CAP_S
    assert timeouts[-1] == pytest.approx(POLL_CAP_S, rel=0.5)


# -- bugfix 2: failures carry the caller's tag and real attempt count --------


def test_timeout_carries_callers_tag_and_attempt_count():
    clock = FakeClock()
    fabric = LoopbackFabric(2, deadline_s=1.0, clock=clock)
    t1 = fabric.transport(1)
    polls = []

    def idle_poll(src, timeout_s):
        polls.append(timeout_s)
        clock.advance(timeout_s)
        return None

    t1._poll_frame = idle_poll
    with pytest.raises(CollectiveTimeout) as exc:
        t1.recv(0, "allgather", 11, 3)
    assert exc.value.kind == "allgather"     # not a generic ("recv", 0)
    assert exc.value.op == 11
    assert exc.value.attempts == len(polls)  # the real poll count
    assert exc.value.attempts > 1


def test_peer_gone_carries_callers_tag_and_attempt_count():
    fabric = LoopbackFabric(2, deadline_s=5.0)
    t1 = fabric.transport(1)
    fabric.mark_closed(0)
    with pytest.raises(PeerGone) as exc:
        t1.recv(0, "allreduce", 7, 2)
    assert exc.value.kind == "allreduce"
    assert exc.value.op == 7
    assert exc.value.peer == 0
    assert exc.value.attempts >= 1


def test_send_to_dead_peer_carries_callers_tag():
    fabric = LoopbackFabric(2, deadline_s=5.0)
    t0 = fabric.transport(0)
    fabric.mark_closed(1)
    with pytest.raises(PeerGone) as exc:
        t0.send(1, "reduce", 9, 0, "payload")
    assert exc.value.kind == "reduce"
    assert exc.value.op == 9


# -- bugfix 3: use-after-close raises instead of silently proceeding ---------


@pytest.mark.parametrize("kind", ["loopback", "shm", "tcp"])
def test_use_after_close_raises_transport_error(kind):
    cls = {"loopback": LoopbackFabric, "shm": SharedMemFabric,
           "tcp": TCPFabric}[kind]
    fabric = cls(2, deadline_s=5.0)
    t0, t1 = fabric.transports()
    try:
        t0.send(1, "allreduce", 0, 0, 1)
        assert t1.recv(0, "allreduce", 0, 0) == 1
        t0.close()
        with pytest.raises(TransportError, match="closed transport"):
            t0.send(1, "allreduce", 0, 1, 2)
        with pytest.raises(TransportError, match="closed transport"):
            t0.recv(1, "allreduce", 0, 1)
    finally:
        for tp in (t0, t1):
            try:
                tp.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
        if hasattr(fabric, "close_all"):
            fabric.close_all()


def test_parked_worker_transport_is_dead_until_rebind():
    # The rejoin park path: a secondary observer closes its endpoints
    # and parks.  A stale job hitting the old transport must raise, not
    # write into the torn-down mesh; after rebind the worker is live.
    old = LoopbackFabric(2, deadline_s=5.0)
    worker = ShardWorker(old.transport(0), backend="loopback", batch=8)
    stale = worker.transport
    stale.close()                      # what the park path does
    with pytest.raises(TransportError, match="closed transport"):
        stale.send(1, "allreduce", 0, 0, 1)
    fresh = LoopbackFabric(2, deadline_s=5.0)
    worker.rebind(fresh.transport(0))
    peer = fresh.transport(1)
    worker.transport.send(1, "allreduce", 0, 0, "post-rejoin")
    assert peer.recv(0, "allreduce", 0, 0) == "post-rejoin"


# -- bugfix: a dead peer's committed frames are drained before PeerGone ------


def test_shm_frames_committed_before_close_are_not_lost():
    # A peer that sends its last frame and immediately closes (or exits)
    # must not take the frame with it: the consumer drains the ring
    # before honouring the death notice, mirroring kernel EOF semantics
    # where buffered data is delivered before EOF.
    fabric = SharedMemFabric(2, deadline_s=5.0)
    t0, t1 = fabric.transports()
    try:
        t0.send(1, "bench", 1, 0, "final-ack")
        t0.close()                       # marks rank 0 closed on the board
        assert t1.recv(0, "bench", 1, 0) == "final-ack"
        with pytest.raises(PeerGone):
            t1.recv(0, "bench", 1, 1)
    finally:
        t1.close()
        fabric.close_all()


# -- bugfix 4: the out-of-order window is bounded ----------------------------


def test_reorder_window_overflow_raises_structured_error():
    fabric = LoopbackFabric(2)
    t1 = fabric.transport(1)
    # A mis-rebound peer restarts its seq space far ahead of ours.
    rogue = Frame(kind="reduce", op=0, round=0, src=0, dst=1,
                  seq=t1.max_reorder, payload="rogue")
    fabric.channel(0, 1).put(encode_frame(rogue))
    with pytest.raises(ReorderWindowExceeded) as exc:
        t1.recv(0, "reduce", 0, 0, timeout_s=1.0)
    assert isinstance(exc.value, TransportError)
    assert exc.value.src == 0
    assert exc.value.seq == t1.max_reorder
    assert exc.value.floor == 0
    assert exc.value.window == t1.max_reorder


def test_reorder_state_stays_bounded_below_the_cap():
    fabric = LoopbackFabric(2)
    t0, t1 = fabric.transport(0), fabric.transport(1)
    # Legitimate reordering well inside the window still works: deliver
    # seqs 1..N first, then seq 0; the floor catches up and absorbs all.
    for rnd in range(1, 32):
        frame = Frame(kind="gather", op=0, round=rnd, src=0, dst=1,
                      seq=rnd, payload=rnd)
        fabric.channel(0, 1).put(encode_frame(frame))
    first = Frame(kind="gather", op=0, round=0, src=0, dst=1, seq=0,
                  payload=0)
    fabric.channel(0, 1).put(encode_frame(first))
    for rnd in range(32):
        assert t1.recv(0, "gather", 0, rnd) == rnd
    assert t1._recv_floor[0] == 32
    assert sum(len(s) for s in t1._recv_ahead.values()) == 0
