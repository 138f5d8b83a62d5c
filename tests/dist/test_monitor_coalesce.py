"""Coalesced digest allreduces: fewer control frames, same verdicts.

``DeterminismMonitor(coalesce=k)`` batches ``k`` completed windows into a
single allreduce round.  These tests pin down the contract — the
collective count drops by the coalescing factor, a divergence inside a
coalesced span is still localized to the exact call, a trailing extra
call is caught at flush — against both hostings of the one class: one
monitor over all shards (in-process ``Collectives``) and one monitor per
rank of a gang (``DistCollectives`` over a loopback mesh).
"""

import threading

import pytest

from repro.core.determinism import (ControlDeterminismViolation,
                                    DeterminismMonitor)
from repro.dist.collectives import DistCollectives
from repro.dist.transport import LoopbackFabric

HOSTINGS = ["inprocess", "gang"]


def _record_all(monitor, shard, calls):
    hasher = monitor.hasher(shard)
    for call in calls:
        hasher.record(*call)
        monitor.maybe_check()


def run_monitors(hosting, num_shards, calls_of, batch=4, coalesce=1,
                 transports=None):
    """Record ``calls_of(shard)`` on every shard, then flush.

    Returns ``(monitors, errors)``: one monitor and at most one error for
    the in-process hosting (shards record one after another, as
    ``Runtime`` runs them), one of each per rank for a gang.
    """
    if hosting == "inprocess":
        monitor = DeterminismMonitor(num_shards, batch=batch, localize=True,
                                     coalesce=coalesce)
        try:
            for shard in range(num_shards):
                _record_all(monitor, shard, calls_of(shard))
            monitor.flush()
        except ControlDeterminismViolation as exc:
            return [monitor], [(0, exc)]
        return [monitor], []
    fabric = LoopbackFabric(num_shards, deadline_s=20.0)
    if transports is None:
        transports = [fabric.transport(r) for r in range(num_shards)]
    monitors = [None] * num_shards
    errors = []

    def runner(rank):
        monitor = DeterminismMonitor(
            num_shards, batch=batch, localize=True, coalesce=coalesce,
            collectives=DistCollectives(transports[rank]))
        monitors[rank] = monitor
        try:
            _record_all(monitor, rank, calls_of(rank))
            monitor.flush()
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((rank, exc))
            fabric.mark_closed(rank)

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in range(num_shards)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    return monitors, errors


def launches(n):
    return lambda shard: [("launch", "task", i) for i in range(n)]


@pytest.mark.parametrize("hosting", HOSTINGS)
def test_coalescing_reduces_collective_rounds(hosting):
    calls, batch = 64, 4
    plain, errs = run_monitors(hosting, 2, launches(calls), batch=batch)
    coalesced, errors = run_monitors(hosting, 2, launches(calls),
                                     batch=batch, coalesce=8)
    assert not errs and not errors
    # 64 calls / batch 4 = 16 windows: one allreduce each uncoalesced
    # (plus the flush round), versus 16/8 = 2 full rounds + the flush.
    assert plain[0].checks_performed == 17
    assert coalesced[0].checks_performed == 3
    assert plain[0].collectives.stats.by_kind == {"allreduce": 17}
    assert coalesced[0].collectives.stats.by_kind == {"allreduce": 3}
    assert plain[0].verified == coalesced[0].verified == calls


def test_wire_frames_drop_by_the_coalescing_factor():
    calls, batch = 256, 4

    def frames(coalesce):
        fabric = LoopbackFabric(2, deadline_s=20.0)
        transports = [fabric.transport(r) for r in range(2)]
        _, errors = run_monitors("gang", 2, launches(calls), batch=batch,
                                 coalesce=coalesce, transports=transports)
        assert not errors
        return sum(tp.frames_sent for tp in transports)

    # The ISSUE's gate: batching 8 windows per round must cut monitor
    # wire traffic by at least 4x (the flush round keeps it below 8x).
    assert frames(1) >= 4 * frames(8)


@pytest.mark.parametrize("hosting", HOSTINGS)
@pytest.mark.parametrize("coalesce", [1, 4])
def test_divergence_inside_coalesced_span_is_localized(hosting, coalesce):
    diverge_at = 9

    def calls_of(shard):
        return [("launch", f"shard-private-{shard}" if i == diverge_at
                 else "task", i) for i in range(16)]

    monitors, errors = run_monitors(hosting, 2, calls_of, batch=4,
                                    coalesce=coalesce)
    assert len(errors) == len(monitors)  # every rank raises together
    for _, exc in errors:
        assert isinstance(exc, ControlDeterminismViolation)
        assert exc.seq == diverge_at     # exact call, not just the span
        assert exc.diagnosis is not None
        assert set(exc.divergent_shards) <= {0, 1}
        assert exc.divergent_shards


@pytest.mark.parametrize("hosting", HOSTINGS)
def test_unequal_call_counts_caught_at_flush_with_coalescing(hosting):
    monitors, errors = run_monitors(
        hosting, 2, lambda shard: launches(8 + 3 * shard)(shard),
        batch=4, coalesce=4)
    assert len(errors) == len(monitors)
    for _, exc in errors:
        assert isinstance(exc, ControlDeterminismViolation)
        assert exc.seq == 8 and exc.call_counts == [8, 11]
        assert exc.divergent_shards == [0]


@pytest.mark.parametrize("hosting", HOSTINGS)
def test_extra_trailing_call_after_full_batches_is_caught(hosting):
    """Nothing is pending on the short shard at flush — the final
    exchange must still run, or the extra call goes unseen."""
    monitors, errors = run_monitors(
        hosting, 2, lambda shard: launches(8 + shard)(shard), batch=4)
    assert len(errors) == len(monitors)
    assert all(exc.seq == 8 for _, exc in errors)


@pytest.mark.parametrize("hosting", HOSTINGS)
def test_coalesce_one_matches_legacy_cadence(hosting):
    monitors, errors = run_monitors(hosting, 3, launches(20), batch=8)
    assert not errors
    # 20 calls / batch 8 = 2 full windows + 1 flush remainder.
    assert all(m.checks_performed == 3 for m in monitors)
    assert all(m.verified == 20 for m in monitors)
