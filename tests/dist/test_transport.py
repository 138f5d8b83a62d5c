"""Transport semantics: tags, sequence numbers, deadlines, dead peers."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.dist.frames import MAGIC, Frame, encode_frame
from repro.dist.transport import (LoopbackFabric, PeerGone, TCPFabric,
                                  TransportError)
from repro.faults.injector import CollectiveTimeout


def test_send_recv_roundtrip():
    fabric = LoopbackFabric(2)
    t0, t1 = fabric.transport(0), fabric.transport(1)
    t0.send(1, "allreduce", 0, 0, {"digest": 1 << 100})
    assert t1.recv(0, "allreduce", 0, 0) == {"digest": 1 << 100}
    assert t0.frames_sent == 1
    assert t1.frames_received == 1


def test_out_of_order_tags_resolved_by_matching():
    # Deliveries arrive reversed; recv still hands back each tag's payload.
    fabric = LoopbackFabric(2, scramble=lambda s, d, p: list(reversed(p)))
    t0, t1 = fabric.transport(0), fabric.transport(1)
    for rnd in range(4):
        t0.send(1, "allgather", 0, rnd, f"round-{rnd}")
    for rnd in range(4):
        assert t1.recv(0, "allgather", 0, rnd) == f"round-{rnd}"
    assert t1.out_of_order > 0
    assert t1.frames_received == 4


def test_duplicate_frames_dropped_by_sequence_number():
    # The adversarial network delivers every frame twice.
    fabric = LoopbackFabric(2, scramble=lambda s, d, p: p + p)
    t0, t1 = fabric.transport(0), fabric.transport(1)
    t0.send(1, "reduce", 0, 0, 41)
    assert t1.recv(0, "reduce", 0, 0) == 41
    # Ask for a later tag so the duplicate of seq 0 gets processed too.
    t0.send(1, "reduce", 0, 1, 42)
    assert t1.recv(0, "reduce", 0, 1) == 42
    assert t1.duplicates_dropped >= 1
    # The duplicate never surfaces as a second payload.
    with pytest.raises(CollectiveTimeout):
        t1.recv(0, "reduce", 0, 0, timeout_s=0.05)


def test_recv_deadline_raises_collective_timeout():
    fabric = LoopbackFabric(2, deadline_s=0.05)
    t1 = fabric.transport(1)
    start = time.monotonic()
    with pytest.raises(CollectiveTimeout) as exc:
        t1.recv(0, "allreduce", 3, 0)
    assert time.monotonic() - start < 5.0  # bounded, not a hang
    assert not isinstance(exc.value, PeerGone)
    assert exc.value.kind == "allreduce"
    assert exc.value.op == 3
    assert exc.value.peer == 0
    assert "shard 0" in str(exc.value)
    assert f"{exc.value.attempts} waits" in str(exc.value)
    assert "retry" not in str(exc.value)


def test_dead_peer_raises_peer_gone():
    fabric = LoopbackFabric(2, deadline_s=5.0)
    t1 = fabric.transport(1)
    fabric.mark_closed(0)
    with pytest.raises(PeerGone) as exc:
        t1.recv(0, "barrier", 0, 0)
    assert exc.value.peer == 0
    assert isinstance(exc.value, CollectiveTimeout)  # same handling path
    assert "crashed or exited early" in str(exc.value)


def test_scramble_identity_preserves_fifo_order():
    # Regression: deliver() used to hand the hook the drained backlog in
    # *reverse* arrival order, so even an identity scramble reordered
    # queued frames.  Three same-tag sends land in one bucket, whose list
    # order is delivery order — it must match send order byte for byte.
    fabric = LoopbackFabric(2, scramble=lambda s, d, p: list(p))
    t0, t1 = fabric.transport(0), fabric.transport(1)
    for i in range(3):
        t0.send(1, "reduce", 0, 0, f"payload-{i}")
    assert [t1.recv(0, "reduce", 0, 0) for _ in range(3)] \
        == ["payload-0", "payload-1", "payload-2"]
    assert t1.out_of_order == 0


def test_loopback_end_of_stream_follows_the_queued_frames():
    # mark_closed ends rank 0's queues: what it sent before is read first,
    # then PeerGone on every later read; the scramble hook only ever sees
    # frames, even for a send the closed rank makes afterwards.
    seen = []

    def scramble(src, dst, pending):
        seen.extend(pending)
        return list(pending)

    fabric = LoopbackFabric(2, deadline_s=5.0, scramble=scramble)
    t0, t1 = fabric.transport(0), fabric.transport(1)
    t0.send(1, "reduce", 0, 0, "before")
    fabric.mark_closed(0)
    t0.send(1, "reduce", 0, 1, "after")      # nothing is read past the end
    assert t1.recv(0, "reduce", 0, 0) == "before"
    for _ in range(2):
        with pytest.raises(PeerGone):
            t1.recv(0, "reduce", 0, 1)
    assert seen and all(isinstance(item, bytes) for item in seen)


def test_scramble_identity_is_byte_identical_on_the_wire():
    # Stronger form: with an identity hook the raw queue holds exactly the
    # encoded frames in arrival order (no reordering, no duplication).
    fabric = LoopbackFabric(2, scramble=lambda s, d, p: list(p))
    t0 = fabric.transport(0)
    for rnd in range(4):
        t0.send(1, "allgather", 7, rnd, rnd)
    plain = LoopbackFabric(2)
    p0 = plain.transport(0)
    for rnd in range(4):
        p0.send(1, "allgather", 7, rnd, rnd)
    drain = lambda q: [q.get_nowait() for _ in range(q.qsize())]  # noqa: E731
    assert drain(fabric.channel(0, 1)) == drain(plain.channel(0, 1))


def test_recv_state_bounded_after_soak():
    # Regression: duplicate suppression used to keep every sequence number
    # ever seen, and drained tag buckets stayed keyed forever — a leak for
    # a persistent gang.  After ~10k frames over distinct tags the only
    # per-peer state left is the contiguous watermark.
    fabric = LoopbackFabric(2)
    t0, t1 = fabric.transport(0), fabric.transport(1)
    frames = 10_000
    for i in range(frames):
        t0.send(1, "allreduce", i, 0, i)
        assert t1.recv(0, "allreduce", i, 0) == i
    assert t1.frames_received == frames
    assert t1._pending == {}                      # no empty buckets keyed
    assert t1._recv_floor[0] == frames            # watermark advanced
    assert sum(len(s) for s in t1._recv_ahead.values()) == 0
    assert not hasattr(t1, "_recv_seen")          # the unbounded set is gone


def test_recv_state_bounded_under_reordering_and_duplication():
    # An adversarial fabric that reverses the backlog and duplicates the
    # newest frame on every delivery: duplicates are still dropped,
    # out-of-order seqs pass through the small window, and state stays
    # bounded by the reorder depth.
    fabric = LoopbackFabric(
        2, scramble=lambda s, d, p: list(reversed(p)) + [p[-1]])
    t0, t1 = fabric.transport(0), fabric.transport(1)
    rounds = 200
    for rnd in range(rounds):
        t0.send(1, "barrier", 0, rnd, rnd)
    for rnd in range(rounds):
        assert t1.recv(0, "barrier", 0, rnd) == rnd
    # Drain the straggler duplicates still queued (a recv for a tag that
    # never arrives polls — and discards — everything left on the wire).
    with pytest.raises(CollectiveTimeout):
        t1.recv(0, "barrier", 0, rounds, timeout_s=0.05)
    assert t1.frames_received == rounds
    assert t1.duplicates_dropped > 0
    assert t1._pending == {}
    assert t1._recv_floor[0] == rounds
    assert sum(len(s) for s in t1._recv_ahead.values()) == 0


def test_old_duplicate_below_watermark_still_dropped():
    fabric = LoopbackFabric(2)
    t0, t1 = fabric.transport(0), fabric.transport(1)
    t0.send(1, "reduce", 0, 0, "a")
    assert t1.recv(0, "reduce", 0, 0) == "a"
    # Replay the identical frame (seq 0) long after the watermark passed.
    stale = Frame(kind="reduce", op=0, round=0, src=0, dst=1, seq=0,
                  payload="a")
    fabric.channel(0, 1).put(encode_frame(stale))
    t0.send(1, "reduce", 0, 1, "b")
    assert t1.recv(0, "reduce", 0, 1) == "b"
    assert t1.duplicates_dropped == 1


def test_self_send_rejected():
    fabric = LoopbackFabric(2)
    t0 = fabric.transport(0)
    with pytest.raises(TransportError, match="self-send"):
        t0.send(0, "broadcast", 0, 0, None)


def test_misrouted_frame_rejected():
    fabric = LoopbackFabric(3)
    t1 = fabric.transport(1)
    stray = Frame(kind="reduce", op=0, round=0, src=0, dst=2, seq=0,
                  payload=None)
    fabric.channel(0, 1).put(encode_frame(stray))
    with pytest.raises(TransportError, match="misrouted"):
        t1.recv(0, "reduce", 0, 0)


def test_corrupt_frame_rejected():
    fabric = LoopbackFabric(2)
    t1 = fabric.transport(1)
    fabric.channel(0, 1).put(MAGIC + b"\x00\x00\x00\x04garb")
    with pytest.raises(TransportError, match="corrupt frame"):
        t1.recv(0, "reduce", 0, 0)


def test_invalid_rank_rejected():
    fabric = LoopbackFabric(2)
    with pytest.raises(ValueError, match="outside"):
        fabric.transport(5)


def test_loopback_thread_death_surfaces_not_hangs():
    # Rank 1's "worker" dies before participating; rank 0 must get an
    # exception (PeerGone), never block forever.
    fabric = LoopbackFabric(2, deadline_s=10.0)
    t0 = fabric.transport(0)

    def doomed_worker():
        fabric.transport(1)  # claims endpoints, then crashes
        fabric.mark_closed(1)

    worker = threading.Thread(target=doomed_worker)
    worker.start()
    worker.join()
    start = time.monotonic()
    with pytest.raises(PeerGone):
        t0.recv(1, "allreduce", 0, 0)
    assert time.monotonic() - start < 5.0


def _exit_without_sending(fabric, rank):
    fabric.close_other_ends(rank)
    fabric.transport(rank)
    os._exit(0)  # endpoints close on process death


def _kill_self(fabric, rank):
    fabric.close_other_ends(rank)
    fabric.transport(rank)
    os.kill(os.getpid(), 9)


@pytest.mark.parametrize("crash", [_exit_without_sending, _kill_self],
                         ids=["clean-exit", "sigkill"])
def test_forked_worker_crash_surfaces_as_peer_gone(crash):
    ctx = multiprocessing.get_context("fork")
    fabric = TCPFabric(2, deadline_s=20.0)
    proc = ctx.Process(target=crash, args=(fabric, 1), daemon=True)
    proc.start()
    t0 = fabric.transport(0)
    fabric.close_other_ends(0)
    try:
        start = time.monotonic()
        with pytest.raises(CollectiveTimeout):  # PeerGone is a subclass
            t0.recv(1, "allreduce", 0, 0)
        assert time.monotonic() - start < 15.0
    finally:
        proc.join(timeout=10)
        assert not proc.is_alive()
        t0.close()


def test_process_fabric_roundtrip_across_fork():
    def child(fabric, rank, value):
        fabric.close_other_ends(rank)
        tp = fabric.transport(rank)
        tp.send(0, "allgather", 0, 0, value)
        got = tp.recv(0, "allgather", 0, 1)
        tp.send(0, "allgather", 0, 2, got * 2)
        tp.close()

    ctx = multiprocessing.get_context("fork")
    fabric = TCPFabric(2, deadline_s=20.0)
    proc = ctx.Process(target=child, args=(fabric, 1, 21), daemon=True)
    proc.start()
    t0 = fabric.transport(0)
    fabric.close_other_ends(0)
    try:
        assert t0.recv(1, "allgather", 0, 0) == 21
        t0.send(1, "allgather", 0, 1, 10)
        assert t0.recv(1, "allgather", 0, 2) == 20
    finally:
        proc.join(timeout=10)
        t0.close()
    assert proc.exitcode == 0
