"""Detection, pinned row by row: a faulted run raises what it always raised.

``recovery_table.txt`` holds every observable of 378 faulted runs of the
19-call control program of ``test_recovery_policies``, recorded under the
LOCALIZE policy a ``Runtime`` once took: a crash or a hash flip × 2–4
shards × ``check_batch`` 1, 5 and 32 × every victim shard × every third
call.  LOCALIZE reported and re-raised, so a ``Runtime`` with no policy
must reproduce each row exactly; the rows keep what a run still exposes
(the quarantine set and driver shard were always empty and 0, and the
report's culprits and call index are read from the raised exception).
The last column, the short digest of ``determinism_digests()``, was read
again when resources were named by structural keys and tasks by
``module:qualname``; every other column kept its recorded value.
The ``dev`` profile (tier-1) replays a fixed slice of the rows;
``REPRO_EQUIV_PROFILE=ci`` or ``extended`` replays them all.
"""

import hashlib
import os
import zlib

from obs.test_zero_perturbation import graph_signature, make_control
from repro.faults import FaultInjector, FaultPlan, PlannedCrash, PlannedFlip
from repro.resilience import identify_culprits
from repro.runtime import Runtime

SCRIPT = [(0, 1.0), (1, 2.0), (2, 0.0), (3, 0.0)] * 3
NCALLS = 19

KINDS = ["crash", "flip"]
SHARDS = [2, 3, 4]
BATCHES = [1, 5, 32]
CALLS = list(range(0, NCALLS, 3))

_TABLE = os.path.join(os.path.dirname(__file__), "recovery_table.txt")
_PROFILE = os.environ.get("REPRO_EQUIV_PROFILE", "dev")


def _short(value):
    return hashlib.blake2b(repr(value).encode(), digest_size=6).hexdigest()


def _ints(values):
    return ",".join(map(str, values)) or "-"


def observe(kind, n, batch, victim, call):
    """Every observable of one faulted run, as one line of the table.

    Columns: raised exception type (``-`` for none), its culprits and call
    index as ``culprits/seq``, the monitor's verified frontier and check
    count, then short digests of the graph signature, the region bytes
    with the reduction results, and ``determinism_digests()``.
    """
    if kind == "crash":
        plan = FaultPlan(seed=2, crashes=[PlannedCrash(victim, call)])
    else:
        plan = FaultPlan(seed=1, flips=[PlannedFlip(victim, call)])
    rt = Runtime(num_shards=n, check_batch=batch,
                 injector=FaultInjector(plan))
    raised, report, values = "-", "-", "-"
    try:
        region, totals = rt.execute(make_control(SCRIPT))
    except Exception as exc:  # noqa: BLE001 - the type is an observable
        raised = type(exc).__name__
        report = f"{_ints(identify_culprits(exc))}/{exc.seq}"
    else:
        x = rt.store.raw(region, region.field_space["x"])
        y = rt.store.raw(region, region.field_space["y"])
        values = _short((x.tobytes(), y.tobytes(), totals))
    return " ".join([
        raised,
        report,
        str(rt.monitor.verified),
        str(rt.monitor.checks_performed),
        _short(graph_signature(rt)),
        values,
        _short(rt.determinism_digests()),
    ])


def configurations():
    return [(kind, n, batch, victim, call)
            for kind in KINDS for n in SHARDS for batch in BATCHES
            for victim in range(n) for call in CALLS]


def _table():
    """``{(kind, n, batch, victim, call): observables}``."""
    rows = {}
    with open(_TABLE, encoding="utf-8") as fh:
        for line in fh:
            kind, n, b, v, c, obs = line.rstrip("\n").split(" ", 5)
            rows[kind, int(n), int(b), int(v), int(c)] = obs
    return rows


def _in_tier1(kind, n, batch, victim, call):
    """One row in four, by a stable hash."""
    if _PROFILE != "dev":
        return True
    key = f"{kind} {n} {batch} {victim} {call}"
    return zlib.crc32(key.encode()) % 4 == 0


def test_table_covers_every_configuration():
    assert sorted(_table()) == sorted(configurations())


def test_detection_reproduces_the_parent():
    rows = {key: obs for key, obs in _table().items() if _in_tier1(*key)}
    assert rows
    differ = [key for key, parent in rows.items()
              if observe(*key) != parent]
    assert not differ, differ[:5]


if __name__ == "__main__":
    # Print the table for the checked-out code:
    # PYTHONPATH=src:tests python tests/resilience/test_recovery_table.py
    for key in configurations():
        print(" ".join(map(str, key)), observe(*key))
