"""The loopback backend: threaded replicas over the in-memory fabric.

Loopback sits between inprocess (replicas run in turn against the global
monitor) and the process backends (forked replicas over shm or tcp
sockets): every replica runs the full distributed checking protocol on
its own thread through a LoopbackFabric, builds its own handles, and
reads the driver's launch values and stored data by structural name.
The fuzz tier leans on it for cross-backend digest comparison, so parity
with the other two backends is load-bearing.
"""

import numpy as np
import pytest

from repro.core.determinism import ControlDeterminismViolation
from repro.legate.fuzz import run_deferred, run_numpy
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.runtime import Runtime


def stencil_control(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(16), fs, "r")
    tiles = ctx.partition_equal(r, 4)
    ctx.fill(r, "x", 1.0)

    def bump(point, arg):
        arg["x"].view[...] += 1.0
        return float(arg["x"].view.sum())

    for _ in range(2):
        ctx.index_launch(bump, range(4), [(tiles, "x", "rw")])
    fm = ctx.index_launch(lambda p, arg: float(arg["x"].view.sum()),
                          range(4), [(tiles, "x", "ro")])
    return fm.reduce(lambda a, b: a + b)


def divergent_control(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(8), fs, "r")
    ctx.fill(r, "x", float(ctx.shard))      # shard-dependent call stream
    return None


@pytest.mark.parametrize("num_shards", [2, 3, 4])
def test_loopback_result_parity(num_shards):
    ref = Runtime(num_shards=num_shards).execute(stencil_control)
    rt = Runtime(num_shards=num_shards, backend="loopback", check_batch=4)
    assert rt.execute(stencil_control) == ref
    assert len(rt.replica_reports) == num_shards - 1
    assert len({rep["stream_digest"] for rep in rt.replica_reports}) == 1
    assert all(rep["frames_sent"] > 0 for rep in rt.replica_reports)
    assert all(rep["checks"] > 0 for rep in rt.replica_reports)


def test_loopback_single_shard_short_circuits():
    rt = Runtime(num_shards=1, backend="loopback")
    assert rt.execute(stencil_control) == \
        Runtime(num_shards=1).execute(stencil_control)
    assert rt.replica_reports == []


def test_loopback_divergence_raises():
    rt = Runtime(num_shards=3, backend="loopback", check_batch=2)
    with pytest.raises(ControlDeterminismViolation) as exc:
        rt.execute(divergent_control)
    assert "diverg" in str(exc.value).lower()


def test_loopback_rejects_resilience():
    """Recovery belongs to the serving gang; a Runtime takes no policy."""
    with pytest.raises(TypeError, match="resilience"):
        Runtime(num_shards=2, backend="loopback",
                resilience=ResilienceConfig(policy=RecoveryPolicy.DEGRADE))


def test_fault_environment_variables_are_ignored(monkeypatch):
    """``REPRO_FAULT_*`` variables in the environment once configured
    faults inside every Runtime; faults now come only from the
    constructor."""
    monkeypatch.setenv("REPRO_FAULT_SEED", "1")
    monkeypatch.setenv("REPRO_FAULT_POLICY", "degrade")
    rt = Runtime(num_shards=2, backend="loopback")
    assert rt.injector is None
    assert rt.execute(stencil_control) == \
        Runtime(num_shards=2).execute(stencil_control)


def _timing_branch(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(8), fs, "r")
    fut = ctx.launch(lambda a: 1.0, [(r, "x", "ro")])
    ctx.fill(r, "x", 1.0 if fut.is_ready() else 2.0)


@pytest.mark.parametrize("backend", ["inprocess", "loopback", "shm", "tcp"])
def test_a_timing_branch_is_localized_alike_on_every_backend(backend):
    """Fig. 5 on every backend: each shard asks the timing oracle about
    its own future, so a branch on `is_ready` is caught at the same call
    and on the same shard whether the replicas run in turn, as threads or
    as forked processes."""
    def timing(shard, _future):
        return shard % 2 == 0

    rt = Runtime(num_shards=2, backend=backend, timing_oracle=timing)
    with pytest.raises(ControlDeterminismViolation) as exc:
        rt.execute(_timing_branch)
    assert exc.value.diagnosis.seq == 4
    assert exc.value.diagnosis.divergent_shards == (1,)


def test_determinism_digests_match_other_backends():
    """The digest API reports one digest per shard, equal across the
    three backends for the same control program."""
    program = [
        {"op": "create", "shape": [2, 3], "values": [1, 2, 3, 4, 5, 6]},
        {"op": "transpose", "src": 0},
        {"op": "sum", "src": 1, "axis": 0},
        {"op": "sum", "src": 2, "axis": None},
    ]
    ref = run_numpy(program)
    vectors = {}
    for backend in ("inprocess", "loopback", "tcp"):
        got, digests = run_deferred(program, num_shards=3, backend=backend)
        assert len(digests) == 3
        assert len(set(digests)) == 1
        for a, b in zip(ref["arrays"], got["arrays"]):
            assert np.array_equal(a, b)
        vectors[backend] = tuple(digests)
    assert len(set(vectors.values())) == 1


def test_loopback_drains_deferred_frees():
    """Drain hooks (the field manager's flush) run on the loopback path."""
    from repro.legate import LegateContext

    def control(ctx):
        lg = LegateContext(ctx, num_tiles=2)
        t = lg.from_values(np.arange(4.0)) + 1.0
        out = t.to_numpy()
        return out, lg.fields

    (out, fields) = Runtime(num_shards=2, backend="loopback").execute(control)
    assert np.array_equal(out, np.arange(4.0) + 1.0)
    assert fields.pooled == fields.released  # nothing stuck pending
