"""DistCollectives must mirror the in-process schedules bit for bit."""

import threading

import pytest

from repro.core.collectives import Collectives
from repro.dist.collectives import DistCollectives
from repro.dist.transport import LoopbackFabric

SHARD_COUNTS = [1, 2, 3, 4, 5, 8]


def run_ranks(num_shards, body, deadline_s=20.0):
    """Run ``body(rank, collectives)`` on one thread per rank."""
    fabric = LoopbackFabric(num_shards, deadline_s=deadline_s)
    results = [None] * num_shards
    errors = []

    def runner(rank):
        try:
            results[rank] = body(rank, DistCollectives(fabric.transport(rank)))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((rank, exc))
            fabric.mark_closed(rank)

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in range(num_shards)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        rank, exc = min(errors, key=lambda e: e[0])
        raise exc
    return results


# Associative but NOT commutative: catches any combine-order drift between
# the in-process schedule and the distributed one.
def concat(a, b):
    return a + b


@pytest.mark.parametrize("n", SHARD_COUNTS)
@pytest.mark.parametrize("root", [0, "last"])
def test_broadcast_matches_inprocess(n, root):
    root = n - 1 if root == "last" else root
    ref = Collectives(n).broadcast("payload", root=root)
    got = run_ranks(n, lambda rank, c: c.broadcast(
        "payload" if rank == root else None, root=root))
    assert got == ref == ["payload"] * n


@pytest.mark.parametrize("n", SHARD_COUNTS)
@pytest.mark.parametrize("root", [0, "last"])
def test_reduce_matches_inprocess(n, root):
    root = n - 1 if root == "last" else root
    values = [f"<{r}>" for r in range(n)]
    inproc = Collectives(n)
    ref = inproc.reduce(values, concat, root=root)

    def body(rank, c):
        out = c.reduce(values[rank], concat, root=root)
        return out, (c.stats.rounds, c.stats.messages)

    for rank, (out, stats) in enumerate(run_ranks(n, body)):
        if rank == root:
            assert out == ref
        else:
            assert out is None
        # Byte-comparable stats, relay hop to a non-zero root included.
        assert stats == (inproc.stats.rounds, inproc.stats.messages)


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_allgather_matches_inprocess(n):
    values = [(r, r * r) for r in range(n)]
    ref = Collectives(n).allgather(values)
    got = run_ranks(n, lambda rank, c: c.allgather(values[rank]))
    assert got == ref
    assert all(out == values for out in got)


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_allreduce_matches_inprocess(n):
    values = [f"<{r}>" for r in range(n)]
    ref = Collectives(n).allreduce(values, concat)
    got = run_ranks(n, lambda rank, c: c.allreduce(values[rank], concat))
    assert got == ref
    # Control determinism: every shard sees the identical reduction.
    assert len(set(got)) == 1


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_allreduce_numeric(n):
    ref = Collectives(n).allreduce(list(range(n)), lambda a, b: a + b)
    got = run_ranks(n, lambda rank, c: c.allreduce(rank, lambda a, b: a + b))
    assert got == ref == [n * (n - 1) // 2] * n


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_barrier_completes(n):
    run_ranks(n, lambda rank, c: c.barrier())


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_stats_record_canonical_schedule(n):
    """Per-shard stats must equal the in-process (simulator-charged) ones."""
    ref = Collectives(n)
    ref.broadcast(0)
    ref.reduce([0] * n, lambda a, b: a + b)
    ref.allgather([0] * n)
    ref.allreduce([0] * n, lambda a, b: a + b)
    ref.barrier()

    def body(rank, c):
        c.broadcast(0 if rank == 0 else None)
        c.reduce(0, lambda a, b: a + b)
        c.allgather(0)
        c.allreduce(0, lambda a, b: a + b)
        c.barrier()
        return (c.stats.operations, c.stats.rounds, c.stats.messages,
                c.stats.by_kind)

    for ops, rounds, msgs, by_kind in run_ranks(n, body):
        assert ops == ref.stats.operations
        assert rounds == ref.stats.rounds
        assert msgs == ref.stats.messages
        assert by_kind == ref.stats.by_kind


@pytest.mark.parametrize("n", SHARD_COUNTS)
def test_fence_rounds_parity(n):
    fabric = LoopbackFabric(n)
    dist = DistCollectives(fabric.transport(0))
    assert dist.fence_rounds() == Collectives(n).fence_rounds()


# -- validation guards (regression tests for the ISSUE's bugfix) -------------

def test_inprocess_values_length_guard():
    coll = Collectives(3)
    for call in (lambda: coll.reduce([1, 2], lambda a, b: a + b),
                 lambda: coll.allgather([1, 2, 3, 4]),
                 lambda: coll.allreduce([], lambda a, b: a + b)):
        with pytest.raises(ValueError,
                           match=r"one value per shard required"):
            call()


def test_inprocess_values_length_error_names_both_numbers():
    with pytest.raises(ValueError, match=r"2 value\(s\) for 3 shard\(s\)"):
        Collectives(3).allreduce([1, 2], lambda a, b: a + b)


@pytest.mark.parametrize("root", [-1, 3, 100])
def test_inprocess_root_guard(root):
    coll = Collectives(3)
    with pytest.raises(ValueError, match="outside the valid range"):
        coll.broadcast(1, root=root)
    with pytest.raises(ValueError, match="outside the valid range"):
        coll.reduce([1, 2, 3], lambda a, b: a + b, root=root)


@pytest.mark.parametrize("root", [-1, 3, 100])
def test_dist_root_guard(root):
    dist = DistCollectives(LoopbackFabric(3).transport(0))
    with pytest.raises(ValueError, match="outside the valid range"):
        dist.broadcast(1, root=root)
    with pytest.raises(ValueError, match="outside the valid range"):
        dist.reduce(1, lambda a, b: a + b, root=root)


# -- bulk payloads through a whole schedule, over real process fabrics -------
#
# The pipe mesh (deleted) hung forever here: both ranks blocked in
# ``send_bytes`` of a symmetric 2 MiB exchange, outside any deadline.  The
# surviving process fabrics drain while stalled; this is the only test
# that drives a bulk payload through complete collective schedules.

BULK_ELEMS = 1 << 18            # 2 MiB of float64
BULK_DEADLINE_S = 20.0


def _bulk_rank(transport, channel):
    import numpy as np

    coll = DistCollectives(transport)
    mine = np.full(BULK_ELEMS, float(transport.rank + 1))
    gathered = coll.allgather(mine)
    reduced = coll.allreduce(mine, np.add)
    channel.send(("ok", {
        "gathered": [float(g[0]) for g in gathered],
        "gather_exact": all(
            np.array_equal(g, np.full(BULK_ELEMS, float(r + 1)))
            for r, g in enumerate(gathered)),
        "reduced": np.asarray(reduced).copy(),
    }))


@pytest.mark.parametrize("backend", ["shm", "tcp"])
@pytest.mark.parametrize("n", [2, 3])
def test_bulk_allgather_allreduce_complete_inside_the_deadline(backend, n):
    import time

    import numpy as np

    from repro.dist import Gang

    gang = Gang(backend, n, deadline_s=BULK_DEADLINE_S)
    start = time.monotonic()
    try:
        for rank in range(n):
            gang.spawn(rank, _bulk_rank)
        gang.release_parent()
        payloads, failures = gang.collect(BULK_DEADLINE_S)
    finally:
        gang.terminate()
    assert not failures, failures
    assert time.monotonic() - start < BULK_DEADLINE_S
    expected = np.sum([np.full(BULK_ELEMS, float(r + 1)) for r in range(n)],
                      axis=0)
    for rank in range(n):
        out = payloads[rank]
        assert out["gather_exact"]
        assert out["gathered"] == [float(r + 1) for r in range(n)]
        np.testing.assert_array_equal(out["reduced"], expected)
