"""Cross-fabric transport conformance: shm and tcp vs loopback.

Every fabric behind the :class:`~repro.dist.transport.Transport` seam
must exhibit identical tagged-exchange semantics — same payload bytes,
same tag matching, same deadline and dead-peer behavior — plus each
fabric's own mechanics: shm ring wrap-around and zero-copy receive, tcp
rendezvous, crash surfacing as :class:`PeerGone` across a real fork.
"""

import multiprocessing
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.dist.frames import ZERO_COPY_MIN_BYTES
from repro.dist.transport import (PROCESS_BACKENDS, LoopbackFabric, PeerGone,
                                  SharedMemFabric, TCPFabric,
                                  TransportError, connect_tcp_mesh,
                                  fabric_for_backend, transport_from_claim)
from repro.faults.injector import CollectiveTimeout

FABRIC_KINDS = ["loopback", "shm", "tcp"]


def make_fabric(kind, num_shards, **kwargs):
    cls = {"loopback": LoopbackFabric, "shm": SharedMemFabric,
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
    # strings, bytes, and an ndarray crossing the zero-copy threshold.
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
    # logic must prevent a ring/socket-buffer deadlock.
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


# -- shm mechanics ----------------------------------------------------------


def test_shm_zero_copy_receive():
    fabric = SharedMemFabric(2, deadline_s=10.0)
    t0, t1 = fabric.transports()
    try:
        big = np.arange(8192, dtype=np.float64)
        small = np.arange(4, dtype=np.float64)
        t0.send(1, "bcast", 0, 0, {"big": big, "small": small})
        got = t1.recv(0, "bcast", 0, 0)
        # Large arrays are views into the ring; small ones are copies.
        assert got["big"].base is not None
        assert got["small"].base is None
        assert big.nbytes >= ZERO_COPY_MIN_BYTES
        np.testing.assert_array_equal(got["big"], big)
    finally:
        t0.close()
        t1.close()
        fabric.close_all()


def test_shm_ring_wraparound_soak():
    # A ring far smaller than the traffic: every frame wraps many times,
    # exercising the PAD-marker skip and head/tail release protocol.
    # Arrays stay below the zero-copy threshold so receives decode as
    # copies and the ring drains freely (held views pin it — see the
    # pinning test below).
    fabric = SharedMemFabric(2, deadline_s=20.0, ring_bytes=8192)
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


def test_shm_held_view_releases_ring_when_dropped():
    # A zero-copy view pins its ring region until garbage collected; a
    # ring that only fits one large frame at a time must become writable
    # again once the consumer drops the view.
    fabric = SharedMemFabric(2, deadline_s=15.0, ring_bytes=16384)
    t0, t1 = fabric.transports()
    try:
        for rnd in range(8):
            arr = np.full(1200, rnd, dtype=np.float64)   # 9600B frame
            t0.send(1, "stream", 0, rnd, arr)            # fits only alone
            got = t1.recv(0, "stream", 0, rnd)
            assert got.base is not None                  # genuine view
            assert (got == rnd).all()
            del got   # releases the region; next send reuses the ring
    finally:
        t0.close()
        t1.close()
        fabric.close_all()


def test_shm_frame_larger_than_ring_rejected():
    fabric = SharedMemFabric(2, deadline_s=5.0, ring_bytes=4096)
    t0, t1 = fabric.transports()
    try:
        with pytest.raises(TransportError, match="exceeds the shm ring"):
            t0.send(1, "bcast", 0, 0, np.zeros(4096, dtype=np.float64))
    finally:
        t0.close()
        t1.close()
        fabric.close_all()


def test_shm_segments_unlinked_after_close_all():
    fabric = SharedMemFabric(2, deadline_s=5.0)
    names = [v for k, v in fabric.claim(0).items()
             if k in ("status",)] + list(fabric.claim(0)["rings_out"]
                                         .values())
    fabric.close_all()
    leftovers = [n for n in names
                 if os.path.exists(f"/dev/shm/{n.lstrip('/')}")]
    assert leftovers == []


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


# -- claims (the rejoin path) ------------------------------------------------


@pytest.mark.parametrize("kind", ["shm", "tcp"])
def test_claim_rebuilds_equivalent_transport(kind):
    fabric = make_fabric(kind, 2, deadline_s=10.0)
    t0 = fabric.transport(0)
    t1 = transport_from_claim(fabric.claim(1))
    try:
        t0.send(1, "allreduce", 0, 0, {"digest": 1 << 90})
        assert t1.recv(0, "allreduce", 0, 0) == {"digest": 1 << 90}
        t1.send(0, "allreduce", 0, 1, "ack")
        assert t0.recv(1, "allreduce", 0, 1) == "ack"
    finally:
        t0.close()
        t1.close()
        fabric.close_all()


def test_fabric_registry_dispatch():
    for backend, cls in (("loopback", LoopbackFabric),
                         ("shm", SharedMemFabric), ("tcp", TCPFabric)):
        fabric = fabric_for_backend(backend, 2, deadline_s=5.0)
        assert isinstance(fabric, cls)
        fabric.close_all()
    assert PROCESS_BACKENDS == ("shm", "tcp")
    for gone in ("smoke-signals", "multiprocess"):
        with pytest.raises(ValueError, match="no fabric for backend"):
            fabric_for_backend(gone, 2)


# -- tcp rendezvous ----------------------------------------------------------


def test_tcp_rendezvous_builds_a_working_mesh():
    num = 3
    listeners, addresses = [], []
    for _ in range(num):
        lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lst.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lst.bind(("127.0.0.1", 0))
        lst.listen(num)
        listeners.append(lst)
        addresses.append(lst.getsockname())
    results, errs = {}, []

    def rendezvous(rank):
        try:
            tp = connect_tcp_mesh(rank, num, addresses, deadline_s=10.0,
                                  listener=listeners[rank])
            for peer in range(num):
                if peer != rank:
                    tp.send(peer, "allgather", 0, 0, rank * 10)
            got = sorted(tp.recv(peer, "allgather", 0, 0)
                         for peer in range(num) if peer != rank)
            results[rank] = got
            tp.close()
        except Exception as exc:  # noqa: BLE001 - surfaced to assert
            errs.append((rank, exc))

    threads = [threading.Thread(target=rendezvous, args=(r,))
               for r in range(num)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20.0)
    assert not errs
    for rank in range(num):
        assert results[rank] == sorted(p * 10 for p in range(num)
                                       if p != rank)


def test_tcp_rendezvous_times_out_on_missing_peer():
    lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lst.bind(("127.0.0.1", 0))
    lst.listen(2)
    dead = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    dead.bind(("127.0.0.1", 0))
    addresses = [lst.getsockname(), dead.getsockname()]
    dead.close()  # rank 1 never comes up
    with pytest.raises(TransportError, match="accept timed out"):
        connect_tcp_mesh(0, 2, addresses, deadline_s=1.0, listener=lst)
