"""The determinism window protocol: stage, exchange, LOCALIZE.

``DeterminismMonitor(batch=b)`` closes a window every ``b`` calls and
all-reduces it at once; ``flush`` closes and exchanges the final window,
which carries each shard's total.  These tests pin the contract — one
allreduce per window plus the flush, a divergence inside a long window
localized to the exact call, unequal totals and a trailing extra call
caught at flush — against both hostings of the one class: one monitor
over all shards (in-process ``Collectives``) and one monitor per rank of
a gang (``DistCollectives`` over a loopback mesh).

``monitor_windows_table.txt`` holds every observable of 1 584 monitor
runs recorded when the monitor could also stage ``k`` windows of ``b``
calls per exchange (``coalesce=k, batch=b``); each row is replayed here
with ``batch=k*b`` and must match exactly.  The ``dev`` profile (tier-1)
replays every in-process row and a fixed slice of the gang rows;
``REPRO_EQUIV_PROFILE=ci`` or ``extended`` replays them all.
"""

import os
import threading
import zlib

import pytest

from repro.core.determinism import (ControlDeterminismViolation,
                                    DeterminismMonitor)
from repro.dist.collectives import DistCollectives
from repro.dist.transport import LoopbackFabric

HOSTINGS = ["inprocess", "gang"]

_TABLE = os.path.join(os.path.dirname(__file__), "monitor_windows_table.txt")
_PROFILE = os.environ.get("REPRO_EQUIV_PROFILE", "dev")


def _record_all(monitor, shard, calls):
    hasher = monitor.hasher(shard)
    for call in calls:
        hasher.record(*call)
        monitor.maybe_check()


def run_monitors(hosting, num_shards, calls_of, **monitor_kwargs):
    """Record ``calls_of(shard)`` on every shard, then flush.

    Returns ``(monitors, errors)``: one monitor and at most one error for
    the in-process hosting (shards record one after another, as
    ``Runtime`` runs them), one of each per rank for a gang.
    """
    if hosting == "inprocess":
        monitor = DeterminismMonitor(num_shards, localize=True,
                                     **monitor_kwargs)
        try:
            for shard in range(num_shards):
                _record_all(monitor, shard, calls_of(shard))
            monitor.flush()
        except ControlDeterminismViolation as exc:
            return [monitor], [(0, exc)]
        return [monitor], []
    fabric = LoopbackFabric(num_shards, deadline_s=20.0)
    monitors = [None] * num_shards
    errors = []

    def runner(rank):
        monitor = DeterminismMonitor(
            num_shards, localize=True,
            collectives=DistCollectives(fabric.transport(rank)),
            **monitor_kwargs)
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
    return monitors, sorted(errors, key=lambda e: e[0])


def launches(n):
    return lambda shard: [("launch", "task", i) for i in range(n)]


# -- the parent-pinned table ------------------------------------------------

def stream(name, num_shards):
    """``calls_of`` for one named stream of the table.

    ``clean:L`` — L identical calls everywhere; ``diverge:L@d`` — shard
    ``d % n`` records a private call at index d; ``extra:L`` — the last
    shard records one trailing call more; ``short:L`` — shard 1 stops
    three calls early.
    """
    kind, _, rest = name.partition(":")
    length, _, at = rest.partition("@")
    length = int(length)

    def calls_of(shard):
        n = length
        if kind == "extra" and shard == num_shards - 1:
            n += 1
        if kind == "short" and shard == 1:
            n = max(0, n - 3)
        calls = [("launch", "task", i) for i in range(n)]
        if kind == "diverge" and shard == int(at) % num_shards:
            calls[int(at)] = ("launch", f"shard-private-{shard}", int(at))
        return calls
    return calls_of


STREAMS = (["clean:%d" % n for n in (0, 1, 5, 12, 31, 64, 129)]
           + ["diverge:%d@%d" % ld for ld in ((16, 0), (40, 11), (64, 37),
                                                (129, 100), (129, 128))]
           + ["extra:%d" % n for n in (0, 8, 24, 63, 128)]
           + ["short:%d" % n for n in (3, 12, 40, 96, 129)])


def _ranks(values):
    """One column of the table: the value every rank shares, or each
    rank's value joined by ``/``."""
    values = [str(v) for v in values]
    return values[0] if len(set(values)) == 1 else "/".join(values)


def _ints(values):
    return "-" if values is None else ",".join(map(str, values))


def _initials(name):
    """``ControlDeterminismViolation`` -> ``CDV``."""
    return "".join(c for c in name if c.isupper())


def observe(hosting, num_shards, name, **monitor_kwargs):
    """Every observable of one run, as one line of the table.

    Columns: checks, verified frontier, collective rounds, messages, wire
    frames sent (``-`` in-process), collectives by kind, then the raising
    ranks and, per rank, ``exception type initials:seq:divergent shards:
    diagnosis window:call counts`` (``-`` for none).
    """
    monitors, errors = run_monitors(hosting, num_shards,
                                    stream(name, num_shards), **monitor_kwargs)
    stats = [m.collectives.stats for m in monitors]
    cols = [_ranks(m.checks_performed for m in monitors),
            _ranks(m.verified for m in monitors),
            _ranks(s.rounds for s in stats),
            _ranks(s.messages for s in stats),
            _ranks(m.collectives.transport.frames_sent for m in monitors)
            if hosting == "gang" else "-",
            _ranks(",".join(f"{kind}={count}" for kind, count
                            in sorted(s.by_kind.items())) for s in stats)]
    if not errors:
        return " ".join(cols + ["-"])
    cols.append(_ints(rank for rank, _ in errors))
    cols.append(_ranks(
        ":".join([_initials(type(exc).__name__),
                  str(getattr(exc, "seq", None)),
                  _ints(getattr(exc, "divergent_shards", None)),
                  _ints(exc.diagnosis.window
                        if getattr(exc, "diagnosis", None) else None),
                  _ints(getattr(exc, "call_counts", None))])
        for _, exc in errors))
    return " ".join(cols)


def _table():
    """``{(hosting, n, b, k, stream): observables}`` of the pinned table."""
    rows = {}
    with open(_TABLE, encoding="utf-8") as fh:
        for line in fh:
            hosting, n, b, k, name, obs = line.rstrip("\n").split(" ", 5)
            rows[hosting, int(n), int(b), int(k), name] = obs
    return rows


def _in_tier1(hosting, n, b, k, name):
    """Every in-process row; one gang row in six, by a stable hash."""
    if _PROFILE != "dev" or hosting == "inprocess":
        return True
    return zlib.crc32(f"{n} {b} {k} {name}".encode()) % 6 == 0


def test_table_covers_every_configuration():
    assert sorted(_table()) == sorted(
        (hosting, n, b, k, name) for hosting in HOSTINGS for n in (2, 3, 5)
        for b in (1, 3, 4) for k in (1, 2, 4, 8) for name in STREAMS)


@pytest.mark.parametrize("hosting", HOSTINGS)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_one_long_window_reproduces_staged_windows(hosting, n):
    """``k`` windows of ``b`` calls per exchange were one window of ``k*b``."""
    rows = {key: obs for key, obs in _table().items()
            if key[:2] == (hosting, n) and _in_tier1(*key)}
    assert rows
    differ = [key for key, parent in rows.items()
              if observe(hosting, n, key[4], batch=key[2] * key[3]) != parent]
    assert not differ, differ[:5]


# -- the protocol, directly -------------------------------------------------

@pytest.mark.parametrize("hosting", HOSTINGS)
@pytest.mark.parametrize("shards,calls,batch,checks",
                         [(2, 64, 4, 17), (2, 64, 32, 3), (3, 20, 8, 3)])
def test_one_exchange_per_window_plus_the_flush(hosting, shards, calls,
                                                batch, checks):
    monitors, errors = run_monitors(hosting, shards, launches(calls),
                                    batch=batch)
    assert not errors
    # floor(calls / batch) full windows, then the flush remainder.
    assert checks == calls // batch + 1
    assert all(m.checks_performed == checks for m in monitors)
    assert all(m.collectives.stats.by_kind == {"allreduce": checks}
               for m in monitors)
    assert all(m.verified == calls for m in monitors)


@pytest.mark.parametrize("hosting", HOSTINGS)
@pytest.mark.parametrize("batch", [4, 16])
def test_divergence_inside_a_long_window_is_localized(hosting, batch):
    diverge_at = 9

    def calls_of(shard):
        return [("launch", f"shard-private-{shard}" if i == diverge_at
                 else "task", i) for i in range(16)]

    monitors, errors = run_monitors(hosting, 2, calls_of, batch=batch)
    assert len(errors) == len(monitors)  # every rank raises together
    for _, exc in errors:
        assert isinstance(exc, ControlDeterminismViolation)
        assert exc.seq == diverge_at     # exact call, not just the window
        assert exc.diagnosis is not None
        assert set(exc.divergent_shards) <= {0, 1}
        assert exc.divergent_shards


@pytest.mark.parametrize("hosting", HOSTINGS)
def test_unequal_call_counts_caught_at_flush(hosting):
    monitors, errors = run_monitors(
        hosting, 2, lambda shard: launches(8 + 3 * shard)(shard), batch=16)
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
