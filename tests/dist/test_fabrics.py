"""Cross-fabric transport conformance: shm and tcp vs loopback.

Every fabric behind the :class:`~repro.dist.transport.Transport` seam
must exhibit identical tagged-exchange semantics — same payload bytes,
same tag matching, same deadline and dead-peer behavior — plus the
socket fabrics' own mechanics: stream framing, a send stalled on a full
socket buffer, crash surfacing as :class:`PeerGone` across a real fork.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.dist.transport import (PROCESS_BACKENDS, LoopbackFabric, PeerGone,
                                  TCPFabric, UnixFabric, fabric_for_backend)
from repro.faults.injector import CollectiveTimeout

FABRIC_KINDS = ["loopback", "shm", "tcp"]


def make_fabric(kind, num_shards, **kwargs):
    cls = {"loopback": LoopbackFabric, "shm": UnixFabric,
           "tcp": TCPFabric}[kind]
    return cls(num_shards, **kwargs)


@pytest.fixture(params=FABRIC_KINDS)
def fabric_pair(request):
    fabric = make_fabric(request.param, 2, deadline_s=10.0)
    transports = fabric.transports()
    yield request.param, transports
    for tp in transports:
        try:
            tp.close()
        except Exception:  # noqa: BLE001 - teardown best effort
            pass
    if hasattr(fabric, "close_all"):
        fabric.close_all()


def test_roundtrip_payload_fidelity(fabric_pair):
    # A payload exercising every encoder branch: big ints (digests),
    # strings, bytes, and a 32 KiB ndarray.
    kind, (t0, t1) = fabric_pair
    payload = {"digest": (1 << 127) - 1, "name": "window",
               "raw": b"\x00\xff" * 16,
               "arr": np.arange(4096, dtype=np.float64)}
    t0.send(1, "allreduce", 3, 0, payload)
    got = t1.recv(0, "allreduce", 3, 0)
    assert got["digest"] == payload["digest"]
    assert got["name"] == payload["name"]
    assert got["raw"] == payload["raw"]
    np.testing.assert_array_equal(got["arr"], payload["arr"])


def test_tag_matching_out_of_request_order(fabric_pair):
    kind, (t0, t1) = fabric_pair
    for rnd in range(4):
        t0.send(1, "allgather", 0, rnd, f"round-{rnd}")
    for rnd in reversed(range(4)):
        assert t1.recv(0, "allgather", 0, rnd) == f"round-{rnd}"
    assert t1.frames_received == 4


def test_recv_deadline_bounded(fabric_pair):
    kind, (t0, t1) = fabric_pair
    start = time.monotonic()
    with pytest.raises(CollectiveTimeout) as exc:
        t1.recv(0, "barrier", 5, 0, timeout_s=0.2)
    assert time.monotonic() - start < 5.0
    assert exc.value.kind == "barrier"
    assert exc.value.op == 5
    assert not isinstance(exc.value, PeerGone)


def test_bidirectional_concurrent_exchange(fabric_pair):
    # Symmetric sends from both ends at once: the drain-while-stalled
    # logic must prevent a socket-buffer deadlock.
    kind, (t0, t1) = fabric_pair
    arr = np.arange(20_000, dtype=np.float64)
    errs = []

    def side(tp, peer):
        try:
            for rnd in range(4):
                tp.send(peer, "allgather", 0, rnd, arr * tp.rank)
            for rnd in range(4):
                got = tp.recv(peer, "allgather", 0, rnd)
                np.testing.assert_array_equal(got, arr * peer)
        except Exception as exc:  # noqa: BLE001 - surfaced to assert
            errs.append((tp.rank, exc))

    threads = [threading.Thread(target=side, args=(t0, 1)),
               threading.Thread(target=side, args=(t1, 0))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert not errs


# -- socket mechanics -------------------------------------------------------


@pytest.mark.parametrize("kind", PROCESS_BACKENDS)
def test_a_stream_of_varied_frames_arrives_intact(kind):
    # Frames of 300 different sizes back to back on one stream: every
    # receive chunk boundary falls somewhere inside a frame, and the
    # decoder must split each one out whole and in order.
    fabric = make_fabric(kind, 2, deadline_s=20.0)
    t0, t1 = fabric.transports()
    try:
        rounds = 300
        sizes = [17 + (rnd * 37) % 480 for rnd in range(rounds)]
        done = []

        def producer():
            for rnd in range(rounds):
                t0.send(1, "stream", 0, rnd,
                        np.full(sizes[rnd], rnd, dtype=np.int64))
            done.append(True)

        prod = threading.Thread(target=producer)
        prod.start()
        for rnd in range(rounds):
            got = t1.recv(0, "stream", 0, rnd)
            assert got.shape == (sizes[rnd],)
            assert (got == rnd).all()
        prod.join(10.0)
        assert done
        assert t1.frames_received == rounds
    finally:
        t0.close()
        t1.close()
        fabric.close_all()


# -- crash surfacing across a real fork -------------------------------------


def _kill_self(fabric, rank):
    if fabric.parent_must_release:
        fabric.close_other_ends(rank)
    fabric.transport(rank)
    os.kill(os.getpid(), 9)


@pytest.mark.parametrize("kind", ["shm", "tcp"])
def test_worker_crash_surfaces_as_peer_gone(kind):
    ctx = multiprocessing.get_context("fork")
    fabric = make_fabric(kind, 2, deadline_s=20.0)
    proc = ctx.Process(target=_kill_self, args=(fabric, 1), daemon=True)
    proc.start()
    proc.join(10.0)
    assert not proc.is_alive()
    t0 = fabric.transport(0)
    if fabric.parent_must_release:
        fabric.close_other_ends(0)
    try:
        start = time.monotonic()
        with pytest.raises(PeerGone) as exc:
            t0.recv(1, "allreduce", 7, 0)
        assert time.monotonic() - start < 15.0
        assert exc.value.kind == "allreduce"
        assert exc.value.op == 7
    finally:
        t0.close()
        fabric.close_all()


@pytest.mark.parametrize("kind", ["shm", "tcp"])
def test_cross_fork_large_array_exchange(kind):
    def child(fabric, rank):
        if fabric.parent_must_release:
            fabric.close_other_ends(rank)
        tp = fabric.transport(rank)
        got = tp.recv(0, "bcast", 0, 0)
        tp.send(0, "gather", 0, 0, float(got.sum()))
        tp.close()

    ctx = multiprocessing.get_context("fork")
    fabric = make_fabric(kind, 2, deadline_s=20.0)
    proc = ctx.Process(target=child, args=(fabric, 1), daemon=True)
    proc.start()
    t0 = fabric.transport(0)
    if fabric.parent_must_release:
        fabric.close_other_ends(0)
    try:
        arr = np.arange(100_000, dtype=np.float64)
        t0.send(1, "bcast", 0, 0, arr)
        assert t0.recv(1, "gather", 0, 0) == float(arr.sum())
    finally:
        proc.join(10.0)
        t0.close()
        fabric.close_all()
    assert proc.exitcode == 0


def test_fabric_registry_dispatch():
    for backend, cls in (("loopback", LoopbackFabric),
                         ("shm", UnixFabric), ("tcp", TCPFabric)):
        fabric = fabric_for_backend(backend, 2, deadline_s=5.0)
        assert isinstance(fabric, cls)
        fabric.close_all()
    assert PROCESS_BACKENDS == ("shm", "tcp")
    for gone in ("smoke-signals", "multiprocess"):
        with pytest.raises(ValueError, match="no fabric for backend"):
            fabric_for_backend(gone, 2)


# -- a receive waits, and a dead peer wakes it --------------------------------


@pytest.mark.parametrize("kind", PROCESS_BACKENDS)
def test_a_receive_waits_without_sleeping(monkeypatch, kind):
    # Two transports of one fabric ping-pong on two threads; a receive
    # that found its socket empty and slept would raise here.
    def no_sleep(seconds):
        raise AssertionError(f"time.sleep({seconds}) on the receive path")

    fabric = make_fabric(kind, 2, deadline_s=10.0)
    t0, t1 = fabric.transports()
    payload = np.arange(128, dtype=np.float64)          # 1 KiB
    errs = []

    def echo():
        try:
            for rnd in range(500):
                t1.send(0, "pong", 0, rnd, t1.recv(0, "ping", 0, rnd))
        except Exception as exc:  # noqa: BLE001 - surfaced to assert
            errs.append(exc)

    monkeypatch.setattr(time, "sleep", no_sleep)
    peer = threading.Thread(target=echo, daemon=True)
    try:
        peer.start()
        for rnd in range(500):
            t0.send(1, "ping", 0, rnd, payload)
            np.testing.assert_array_equal(t0.recv(1, "pong", 0, rnd),
                                          payload)
        peer.join(10.0)
        assert not peer.is_alive()
    finally:
        monkeypatch.undo()
        t0.close()
        t1.close()
        fabric.close_all()
    assert not errs


@pytest.mark.parametrize("kind", PROCESS_BACKENDS)
def test_a_send_stalled_on_a_full_socket_buffer_sees_the_receiver_close(kind):
    fabric = make_fabric(kind, 2, deadline_s=30.0)
    t0, t1 = fabric.transports()
    # 16 MiB: more than the kernel buffers of both ends hold while the
    # receiver reads nothing, so the send stalls part way.
    chunk = np.zeros(2 << 20, dtype=np.float64)
    closer = threading.Timer(0.2, t1.close)
    try:
        closer.start()
        start = time.monotonic()
        with pytest.raises(PeerGone) as exc:
            t0.send(1, "fill", 0, 0, chunk)             # t1 never reads
        assert 0.1 < time.monotonic() - start < 1.0     # stalled, then woke
        assert exc.value.kind == "fill"
    finally:
        closer.join(5.0)
        t0.close()
        fabric.close_all()


def _claim_then_close_and_linger(fabric, rank):
    if fabric.parent_must_release:
        fabric.close_other_ends(rank)
    tp = fabric.transport(rank)
    time.sleep(0.2)
    tp.close()
    time.sleep(30.0)            # alive, until the test kills it


def _claim_and_linger(fabric, rank):
    fabric.close_other_ends(rank)
    fabric.transport(rank)
    time.sleep(30.0)


def _proc_state(pid):
    with open(f"/proc/{pid}/stat", "rb") as fh:
        return fh.read().rsplit(b")", 1)[1].split()[0]


def _start_peer(kind, fabric, body):
    """Run ``body(fabric, 1)`` in a forked process, or a thread on
    loopback; returns the handle once rank 0 holds only its own ends."""
    if kind == "loopback":
        handle = threading.Thread(target=body, args=(fabric, 1), daemon=True)
        handle.start()
        return handle
    handle = multiprocessing.get_context("fork").Process(
        target=body, args=(fabric, 1), daemon=True)
    handle.start()
    fabric.close_other_ends(0)
    return handle


@pytest.mark.parametrize("kind", FABRIC_KINDS)
def test_a_peer_closing_its_transport_wakes_a_blocked_receive(kind):
    fabric = make_fabric(kind, 2, deadline_s=30.0)
    t0 = fabric.transport(0)
    peer = _start_peer(kind, fabric, _claim_then_close_and_linger)
    try:
        start = time.monotonic()
        with pytest.raises(PeerGone) as exc:
            t0.recv(1, "barrier", 4, 0)
        assert time.monotonic() - start < 1.0
        assert exc.value.op == 4
        assert peer.is_alive()              # closed, not dead
    finally:
        t0.close()
        if kind != "loopback":
            peer.kill()
            peer.join(5.0)
        fabric.close_all()


@pytest.mark.parametrize("kind", PROCESS_BACKENDS)
def test_an_unreaped_killed_peer_wakes_a_blocked_receive(kind):
    # The zombie case: the peer is SIGKILLed and nobody waits for it, so
    # its pid lives on while its descriptors are already closed.
    fabric = make_fabric(kind, 2, deadline_s=30.0)
    t0 = fabric.transport(0)
    peer = _start_peer(kind, fabric, _claim_and_linger)
    killer = threading.Timer(0.2, os.kill, (peer.pid, signal.SIGKILL))
    try:
        killer.start()
        start = time.monotonic()
        with pytest.raises(PeerGone):
            t0.recv(1, "allreduce", 9, 0)
        assert time.monotonic() - start < 1.0
        # Nothing has reaped it: its pid turns (or already is) a zombie.
        deadline = time.monotonic() + 5.0
        while _proc_state(peer.pid) != b"Z" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _proc_state(peer.pid) == b"Z"
    finally:
        killer.join(5.0)
        t0.close()
        peer.join(5.0)                      # reaped only now
        fabric.close_all()


def test_loopback_mark_closed_wakes_a_blocked_receive():
    fabric = LoopbackFabric(2, deadline_s=30.0)
    t1 = fabric.transport(1)
    closer = threading.Timer(0.2, fabric.mark_closed, (0,))
    closer.start()
    start = time.monotonic()
    with pytest.raises(PeerGone):
        t1.recv(0, "barrier", 0, 0)
    assert time.monotonic() - start < 1.0
    closer.join(5.0)
