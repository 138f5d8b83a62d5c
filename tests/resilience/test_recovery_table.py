"""Recovery, pinned row by row: every policy keeps its observable behaviour.

``recovery_table.txt`` holds every observable of 1 134 faulted runs of the
19-call control program of ``test_recovery_policies``, recorded when
RESTART still restored a replica from a deep copy of the store: RESTART,
DEGRADE and LOCALIZE × a crash or a hash flip × 2–4 shards × ``check_batch``
1, 5 and 32 × every victim shard × every third call.  A replica performs
no effects, so re-running it needs nothing restored; each row is replayed
here and must match exactly.  The ``dev`` profile (tier-1) replays a fixed
slice of the rows; ``REPRO_EQUIV_PROFILE=ci`` or ``extended`` replays
them all.
"""

import hashlib
import os
import zlib

import pytest

from obs.test_zero_perturbation import graph_signature, make_control
from repro.faults import FaultInjector, FaultPlan, PlannedCrash, PlannedFlip
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.runtime import Runtime

SCRIPT = [(0, 1.0), (1, 2.0), (2, 0.0), (3, 0.0)] * 3
NCALLS = 19

POLICIES = ["restart", "degrade", "localize"]
KINDS = ["crash", "flip"]
SHARDS = [2, 3, 4]
BATCHES = [1, 5, 32]
CALLS = list(range(0, NCALLS, 3))

_TABLE = os.path.join(os.path.dirname(__file__), "recovery_table.txt")
_PROFILE = os.environ.get("REPRO_EQUIV_PROFILE", "dev")

#: Report details that described the deleted store snapshots.
_SNAPSHOT_DETAILS = {"snapshot", "had_snapshot"}


def _short(value):
    return hashlib.blake2b(repr(value).encode(), digest_size=6).hexdigest()


def _ints(values):
    return ",".join(map(str, values)) or "-"


def _report(rep):
    details = ",".join(f"{k}={v}" for k, v in sorted(rep.details.items())
                       if k not in _SNAPSHOT_DETAILS)
    return "/".join([rep.action, _ints(rep.culprit_shards), str(rep.seq),
                     str(rep.attempt), details or "-"])


def observe(policy, kind, n, batch, victim, call):
    """Every observable of one faulted run, as one line of the table.

    Columns: raised exception type (``-`` for none), reports as
    ``action/culprits/seq/attempt/details`` joined by ``;``, quarantined
    shards, driver shard, the monitor's verified frontier and check count,
    then short digests of the graph signature, the region bytes with the
    reduction results, and ``determinism_digests()``.
    """
    if kind == "crash":
        plan = FaultPlan(seed=2, crashes=[PlannedCrash(victim, call)])
    else:
        plan = FaultPlan(seed=1, flips=[PlannedFlip(victim, call)])
    rt = Runtime(num_shards=n, check_batch=batch,
                 injector=FaultInjector(plan),
                 resilience=ResilienceConfig(policy=RecoveryPolicy(policy)))
    raised, values = "-", "-"
    try:
        region, totals = rt.execute(make_control(SCRIPT))
    except Exception as exc:  # noqa: BLE001 - the type is an observable
        raised = type(exc).__name__
    else:
        x = rt.store.raw(region.tree_id, region.field_space["x"])
        y = rt.store.raw(region.tree_id, region.field_space["y"])
        values = _short((x.tobytes(), y.tobytes(), totals))
    return " ".join([
        raised,
        ";".join(_report(r) for r in rt.reports) or "-",
        _ints(sorted(rt.quarantined)),
        str(rt.driver_shard),
        str(rt.monitor.verified),
        str(rt.monitor.checks_performed),
        _short(graph_signature(rt)),
        values,
        _short(rt.determinism_digests()),
    ])


def configurations():
    return [(policy, kind, n, batch, victim, call)
            for policy in POLICIES for kind in KINDS for n in SHARDS
            for batch in BATCHES for victim in range(n) for call in CALLS]


def _table():
    """``{(policy, kind, n, batch, victim, call): observables}``."""
    rows = {}
    with open(_TABLE, encoding="utf-8") as fh:
        for line in fh:
            policy, kind, n, b, v, c, obs = line.rstrip("\n").split(" ", 6)
            rows[policy, kind, int(n), int(b), int(v), int(c)] = obs
    return rows


def _in_tier1(policy, kind, n, batch, victim, call):
    """One row in four, by a stable hash."""
    if _PROFILE != "dev":
        return True
    key = f"{policy} {kind} {n} {batch} {victim} {call}"
    return zlib.crc32(key.encode()) % 4 == 0


def test_table_covers_every_configuration():
    assert sorted(_table()) == sorted(configurations())


@pytest.mark.parametrize("policy", POLICIES)
def test_recovery_reproduces_the_parent(policy):
    rows = {key: obs for key, obs in _table().items()
            if key[0] == policy and _in_tier1(*key)}
    assert rows
    differ = [key for key, parent in rows.items()
              if observe(*key) != parent]
    assert not differ, differ[:5]


if __name__ == "__main__":
    # Print the table for the checked-out code (how it was recorded):
    # PYTHONPATH=src:tests python tests/resilience/test_recovery_table.py
    for key in configurations():
        print(" ".join(map(str, key)), observe(*key))
