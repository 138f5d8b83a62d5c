"""Regression tests for the transport-layer bugfix sweep.

Each test here failed before its fix:

* ``PeerGone`` / ``CollectiveTimeout`` raised from inside the poll loop
  carried a generic ``("recv", 0)`` tag and a hardcoded attempt count,
  so failure attribution pointed at the wrong collective;
* send/recv on a closed transport silently enqueued into (or read from)
  dead endpoints instead of raising;
* ``_recv_ahead`` grew without bound when a peer skipped
  ahead, turning a protocol violation into a slow memory leak.
"""

import pytest

from repro.dist.frames import Frame, encode_frame
from repro.dist.transport import (LoopbackFabric, PeerGone,
                                  ReorderWindowExceeded, TCPFabric,
                                  TransportError, UnixFabric)
from repro.faults.injector import CollectiveTimeout


class FakeClock:
    """A manually-advanced monotonic clock for deadline determinism."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- bugfix 1: failures carry the caller's tag and real attempt count --------


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
    assert exc.value.attempts == len(polls)  # the real wait count
    # Each wait is handed the whole remaining deadline, so one wait that
    # comes back empty at the deadline is enough to time out.
    assert exc.value.attempts >= 1


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


# -- bugfix 2: use-after-close raises instead of silently proceeding ---------


@pytest.mark.parametrize("kind", ["loopback", "shm", "tcp"])
def test_use_after_close_raises_transport_error(kind):
    cls = {"loopback": LoopbackFabric, "shm": UnixFabric,
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


# -- bugfix: a dead peer's committed frames are drained before PeerGone ------


@pytest.mark.parametrize("kind", ["shm", "tcp"])
def test_frames_committed_before_close_are_not_lost(kind):
    # A peer that sends its last frame and immediately closes (or exits)
    # must not take the frame with it: the consumer reads what is
    # buffered on the stream before it honours the end-of-stream.
    fabric = (UnixFabric if kind == "shm" else TCPFabric)(2, deadline_s=5.0)
    t0, t1 = fabric.transports()
    try:
        t0.send(1, "bench", 1, 0, "final-ack")
        t0.close()                       # rank 0's ends read EOF
        assert t1.recv(0, "bench", 1, 0) == "final-ack"
        with pytest.raises(PeerGone):
            t1.recv(0, "bench", 1, 1)
    finally:
        t1.close()
        fabric.close_all()


# -- bugfix 3: the out-of-order window is bounded ----------------------------


def test_reorder_window_overflow_raises_structured_error():
    fabric = LoopbackFabric(2)
    t1 = fabric.transport(1)
    # A corrupted peer jumps its seq space far ahead of ours.
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
