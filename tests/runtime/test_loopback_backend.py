"""The loopback backend: threaded replicas over the in-memory fabric.

Loopback sits between inprocess (replicas replay sequentially against the
global monitor) and the process backends (forked replicas over shm rings
or tcp sockets): every
replica runs the full distributed checking protocol on its own thread
through a LoopbackFabric, sharing the driver's logs directly.  The fuzz
tier leans on it for cross-backend digest comparison, so parity with the
other two backends is load-bearing.
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
    with pytest.raises(ValueError, match="does not support recovery"):
        Runtime(num_shards=2, backend="loopback",
                resilience=ResilienceConfig(policy=RecoveryPolicy.DEGRADE))


def test_loopback_rejects_timing_oracle():
    with pytest.raises(ValueError, match="timing_oracle"):
        Runtime(num_shards=2, backend="loopback",
                timing_oracle=lambda shard, fut: True)


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
