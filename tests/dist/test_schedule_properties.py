"""One schedule, two executors: the properties that make them one.

For every collective at n = 1..9 and ``root`` in {0, last}:

(i)   the generated schedule is well formed — per round each rank sends
      at most one message and receives at most one, rounds stay within
      ⌈log₂n⌉ + 2, and walking the steps symbolically leaves every rank
      holding exactly what the collective promises;
(ii)  the in-process executor and the rank-local executor return the same
      results, bit for bit under a merely-associative op (tuple
      concatenation), and the same ``stats``;
(iii) ``stats.messages`` is the number of frames the loopback mesh
      carried — what is charged is what was sent (for all-gather/barrier
      at n = 3, 5, 6, 7 the charge used to be a schedule nobody ran).
"""

import math
import threading

import pytest

from repro.core.collectives import Collectives, schedule
from repro.dist.collectives import DistCollectives
from repro.dist.transport import LoopbackFabric

KINDS = ["broadcast", "reduce", "allgather", "allreduce", "barrier"]
CASES = [(kind, n, root)
         for kind in KINDS for n in range(1, 10)
         for root in sorted({0, n - 1})
         if root == 0 or kind in ("broadcast", "reduce")]


def concat(a, b):
    """Associative, not commutative: any combine-order drift shows."""
    return a + b


def call(coll, kind, value, root):
    """``kind`` on either executor (``value`` is the per-shard list for
    the in-process one, this rank's contribution for the rank-local)."""
    if kind == "broadcast":
        return coll.broadcast(value, root=root)
    if kind == "reduce":
        return coll.reduce(value, concat, root=root)
    if kind == "allgather":
        return coll.allgather(value)
    if kind == "allreduce":
        return coll.allreduce(value, concat)
    return coll.barrier()


def run_ranks(n, body):
    """``body(rank, collectives)`` on a thread per rank of a loopback
    mesh; returns the per-rank results and the transports."""
    fabric = LoopbackFabric(n, deadline_s=20.0)
    transports = fabric.transports()
    results, errors = [None] * n, []

    def runner(rank):
        try:
            results[rank] = body(rank, DistCollectives(transports[rank]))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
            fabric.mark_closed(rank)

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    return results, transports


@pytest.mark.parametrize("kind,n,root", CASES)
def test_schedule_is_well_formed_and_complete(kind, n, root):
    sched = schedule(kind, n, root)
    log_n = math.ceil(math.log2(n)) if n > 1 else 0
    assert len(sched.rounds) <= log_n + 2
    if kind != "allreduce":
        assert len(sched.rounds) <= log_n + (kind == "reduce" and root != 0)
    assert sched.messages == sum(len(r.steps) for r in sched.rounds)
    # Walk the steps over lists of contributor ids: folding concatenates
    # (so a contribution counted twice shows), adopting overwrites.
    held = [[r] for r in range(n)]
    if kind == "broadcast":
        held = [[root] if r == root else [] for r in range(n)]
    for steps, combine in sched.rounds:
        srcs = [src for src, _ in steps]
        dsts = [dst for _, dst in steps]
        assert len(set(srcs)) == len(srcs), "a rank sends twice in a round"
        assert len(set(dsts)) == len(dsts), "a rank receives twice in a round"
        assert all(0 <= r < n and src != dst
                   for src, dst in steps for r in (src, dst))
        arriving = [list(held[src]) for src in srcs]
        for dst, got in zip(dsts, arriving):
            assert got, "a rank forwards a value it does not hold yet"
            held[dst] = held[dst] + got if combine else got
    everyone = list(range(n))
    if kind == "broadcast":
        assert held == [[root]] * n
    elif kind == "reduce":
        assert sorted(held[root]) == everyone          # each exactly once
    elif kind == "allreduce":
        assert [sorted(h) for h in held] == [everyone] * n
    else:   # dissemination re-sends what is held: coverage, not multiplicity
        assert [sorted(set(h)) for h in held] == [everyone] * n


@pytest.mark.parametrize("kind,n,root", CASES)
def test_executors_agree_and_charge_what_they_send(kind, n, root):
    values = [(f"<{r}>",) for r in range(n)]
    inproc = Collectives(n)
    if kind == "broadcast":
        expected = call(inproc, kind, values[root], root)
    else:
        expected = call(inproc, kind, values, root)

    def body(rank, coll):
        mine = values[rank]
        if kind == "broadcast" and rank != root:
            mine = None
        return call(coll, kind, mine, root), coll.stats

    results, transports = run_ranks(n, body)
    outs = [out for out, _stats in results]
    if kind == "reduce":
        assert outs[root] == expected
        assert all(out is None for r, out in enumerate(outs) if r != root)
    elif kind == "barrier":
        assert outs == [None] * n and expected is None
    else:
        assert outs == expected            # bit for bit, rank by rank
    for _out, stats in results:
        assert (stats.operations, stats.rounds, stats.messages,
                stats.by_kind) == (
            inproc.stats.operations, inproc.stats.rounds,
            inproc.stats.messages, inproc.stats.by_kind)
    assert inproc.stats.messages == sum(tp.frames_sent for tp in transports)
    assert inproc.stats.messages == sum(tp.frames_received
                                        for tp in transports)
