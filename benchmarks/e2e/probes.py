"""Micro-probes the traced run adds to the ledger.

Each probe isolates one floor a workload sits on, through public API only:
the cost of an empty run, of hashing a payload, of one hop and one
collective on the workload's fabric at its width.  They run after the
timed window, so they never share the machine with a measured operation.
"""

from __future__ import annotations

import multiprocessing
import operator
import statistics
import threading
import time
from typing import Any, Callable, Dict, List

import numpy as np

from repro.core.determinism import ShardHasher
from repro.dist.collectives import DistCollectives
from repro.dist.transport import (PROCESS_BACKENDS, LoopbackFabric,
                                  fabric_for_backend)

__all__ = ["median_ms", "determinism_payload_us_per_kelem", "fabric_probe"]

SMALL_ELEMS = 128            # 1 KiB of float64
LARGE_ELEMS = 131072         # 1 MiB of float64
PAYLOAD_ELEMS = 1 << 17      # hashed-tuple probe size
SMALL_ROUNDS = 200           # timed 1 KiB ping-pongs
LARGE_ROUNDS = 20            # timed 1 MiB ping-pongs
PINGS = 2 + SMALL_ROUNDS + LARGE_ROUNDS     # one warm-up per size
COLLECTIVES = 100            # timed barriers, then as many all-reduces


def median_ms(fn: Callable[[], Any], repeats: int) -> float:
    """Median wall of ``fn()`` in milliseconds."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3


def determinism_payload_us_per_kelem() -> float:
    """``ShardHasher.record`` of a float tuple, per 1024 elements.

    This is what ``LegateContext.from_values`` pays per ingested element
    (and pays again on every replaying shard).
    """
    payload = tuple(float(i) for i in range(PAYLOAD_ELEMS))
    hasher = ShardHasher(0)
    t0 = time.perf_counter()
    hasher.record("probe", payload)
    return (time.perf_counter() - t0) * 1e6 / (PAYLOAD_ELEMS / 1024)


def _peer(transport: Any) -> None:
    """Every non-zero rank: rank 1 echoes pings, all join the collectives."""
    try:
        if transport.rank == 1:
            for i in range(PINGS):
                payload = transport.recv(0, "probe", 0, i)
                # Touch the data so a zero-copy view is really read, and
                # drop it so shm ring space is reclaimed.
                ack = float(np.asarray(payload).ravel()[0])
                del payload
                transport.send(0, "probe", 1, i, ack)
        coll = DistCollectives(transport)
        for _ in range(COLLECTIVES):
            coll.barrier()
        for _ in range(COLLECTIVES):
            coll.allreduce(1, operator.add)
    finally:
        transport.close()


def _forked_peer(fabric: Any, rank: int) -> None:
    fabric.close_other_ends(rank)
    _peer(fabric.transport(rank))


def fabric_probe(backend: str, width: int) -> Dict[str, float]:
    """Ping-pong and collective timings on ``backend`` at ``width`` ranks.

    Returns ``rtt_us_small`` (1 KiB round trip), ``mb_per_s_large``
    (1 MiB ndarray one way plus a scalar ack), ``barrier_us`` and
    ``allreduce_us`` as seen by rank 0 of a live gang.  Process fabrics
    fork their peers the way the runtime's own gangs do; call this only
    while no other thread is running.
    """
    peers: List[Any] = []
    if backend in PROCESS_BACKENDS:
        ctx = multiprocessing.get_context("fork")
        fabric = fabric_for_backend(backend, width, deadline_s=30.0)
        peers = [ctx.Process(target=_forked_peer, args=(fabric, r),
                             daemon=True) for r in range(1, width)]
        for p in peers:
            p.start()
        if fabric.parent_must_release:
            fabric.close_other_ends(0)
    else:
        fabric = LoopbackFabric(width, deadline_s=30.0)
        peers = [threading.Thread(target=_peer, args=(fabric.transport(r),),
                                  daemon=True) for r in range(1, width)]
        for p in peers:
            p.start()
    transport = fabric.transport(0)
    out: Dict[str, float] = {}
    try:
        seq = 0

        def pingpong(payload: Any) -> None:
            nonlocal seq
            transport.send(1, "probe", 0, seq, payload)
            transport.recv(1, "probe", 1, seq)
            seq += 1

        small = np.arange(SMALL_ELEMS, dtype=np.float64)
        large = np.arange(LARGE_ELEMS, dtype=np.float64)
        pingpong(small)                                   # warm-up
        out["rtt_us_small"] = median_ms(lambda: pingpong(small),
                                        SMALL_ROUNDS) * 1e3
        pingpong(large)                                   # warm-up
        out["mb_per_s_large"] = large.nbytes / 1e3 / median_ms(
            lambda: pingpong(large), LARGE_ROUNDS)
        coll = DistCollectives(transport)
        out["barrier_us"] = median_ms(coll.barrier, COLLECTIVES) * 1e3
        out["allreduce_us"] = median_ms(
            lambda: coll.allreduce(1, operator.add), COLLECTIVES) * 1e3
    finally:
        transport.close()
        for p in peers:
            p.join(30.0)
        if backend in PROCESS_BACKENDS:
            for p in peers:
                if p.is_alive():
                    p.kill()
                    p.join(5.0)
            fabric.close_all()
    return out
