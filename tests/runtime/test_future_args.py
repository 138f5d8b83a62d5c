"""Future arguments: data-flow between tasks without control-flow hazards."""

import sys

import numpy as np
import pytest

from repro.runtime import Runtime


def test_future_value_reaches_task_body():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 1.0)
        total = ctx.launch(lambda a: float(a["x"].view.sum()),
                           [(r, "x", "ro")])
        # The scale task consumes the future's value as an argument; the
        # control program never reads it.
        ctx.launch(lambda a, t: a["x"].view.__imul__(t),
                   [(r, "x", "rw")], future_args=(total,))
        return r

    rt = Runtime(num_shards=1)
    r = rt.execute(main)
    assert (rt.store.raw(r, r.field_space["x"]) == 4.0).all()


def test_future_args_replicate_cleanly():
    """Passing a future is hashed by handle, so shards agree even though
    the value is produced by execution (the Fig. 5-safe pattern)."""
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        ctx.fill(r, "x", 2.0)
        fut = ctx.launch(lambda a: float(a["x"].view.max()),
                         [(r, "x", "ro")])
        ctx.index_launch(lambda p, a, m: a["x"].view.__iadd__(m),
                         range(4), [(tiles, "x", "rw")], future_args=(fut,))
        return r

    rt1 = Runtime(num_shards=1)
    r1 = rt1.execute(main)
    rt3 = Runtime(num_shards=3)
    r3 = rt3.execute(main)
    a = rt1.store.raw(r1, r1.field_space["x"])
    b = rt3.store.raw(r3, r3.field_space["x"])
    assert np.array_equal(a, b)
    assert (a == 4.0).all()


def test_future_args_combined_with_scalars():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 1.0)
        one = ctx.launch(lambda a: 10.0, [(r, "x", "ro")])

        def combine(a, scalar, fval):
            a["x"].view[...] = scalar + fval

        ctx.launch(combine, [(r, "x", "rw")], args=(5.0,),
                   future_args=(one,))
        return r

    rt = Runtime(num_shards=2)
    r = rt.execute(main)
    assert (rt.store.raw(r, r.field_space["x"]) == 15.0).all()


def test_chained_futures():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(2), fs, "r")
        ctx.fill(r, "x", 1.0)
        f = ctx.launch(lambda a: 1.0, [(r, "x", "ro")])
        for _ in range(5):
            f = ctx.launch(lambda a, v: v * 2.0, [(r, "x", "ro")],
                           future_args=(f,))
        return ctx.get_value(f)

    assert Runtime(num_shards=2).execute(main) == 32.0


@pytest.mark.parametrize("backend", ["inprocess", "tcp"])
def test_a_future_map_point_is_named_by_its_launch_and_point(backend):
    """A point's future hashes as (launch call index, point), not by when
    a shard first used it: a shard that reads another point of equal
    value diverges at that read, and a clean run hashes the same on every
    backend."""
    from repro.core import ControlDeterminismViolation

    def program(skewed_shard):
        def main(ctx):
            fs = ctx.create_field_space([("x", "f8")])
            r = ctx.create_region(ctx.create_index_space(8), fs, "r")
            tiles = ctx.partition_equal(r, 4)
            ctx.fill(r, "x", 1.0)
            sums = ctx.index_launch(lambda p, a: float(a["x"].view.sum()),
                                    range(4), [(tiles, "x", "ro")])
            return ctx.get_value(sums[3 if ctx.shard == skewed_shard else 1])
        return main

    rt = Runtime(num_shards=2, backend=backend)
    assert rt.execute(program(None)) == 2.0
    reference = Runtime(num_shards=2)
    reference.execute(program(None))
    assert rt.determinism_digests() == reference.determinism_digests()
    with pytest.raises(ControlDeterminismViolation) as exc:
        Runtime(num_shards=2, backend=backend).execute(program(1))
    assert exc.value.diagnosis.divergent_shards == (1,)
    assert exc.value.diagnosis.descriptions == ("future_get", "future_get")


# -- a future map holds values; a point's future is made once -----------------

def test_threads_indexing_one_map_at_once_get_one_future_per_point():
    """Loopback replicas are threads that may index the driver's map at
    the same moment.  Here every thread is held inside the making of each
    point's future until all of them are, so each point is made by all
    at once, and every thread still gets the one `Future` per point."""
    import threading
    from unittest import mock

    from repro.runtime import Future, FutureMap

    threads, points = 6, range(8)
    fm = FutureMap(7, {7: {p: float(p) for p in points}})
    start, inside = threading.Barrier(threads), threading.Barrier(threads)
    seen = [None] * threads
    init = Future.__init__

    def crowded_init(self, *args):
        init(self, *args)
        inside.wait(timeout=10)

    def index(i):
        start.wait(timeout=10)
        seen[i] = [fm[p] for p in points]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(Future, "__init__", crowded_init):
            workers = [threading.Thread(target=index, args=(i,))
                       for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for p in points:
        first = seen[0][p]
        assert all(s[p] is first for s in seen)
        assert first.get() == float(p)
        assert first.structural_key == (7, p)
    assert fm[3] is seen[0][3]


def _point_futures_program(ctx):
    """Each point of one launch feeds a task through its own future."""
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(8), fs, "r")
    tiles = ctx.partition_equal(r, 4)
    ctx.fill(r, "x", 1.0)
    sums = ctx.index_launch(lambda p, a: float(a["x"].view.sum()) + p,
                            range(4), [(tiles, "x", "ro")])
    scaled = [ctx.launch(lambda a, v: 3.0 * v, [(r, "x", "ro")],
                         future_args=(sums[p],)) for p in range(4)]
    again = ctx.index_launch(lambda p, a, v: v + p, range(4),
                             [(tiles, "x", "ro")], future_args=(sums[2],))
    assert sums[2] is sums[2]
    return ([ctx.get_value(f) for f in scaled], again.get_all(),
            ctx.get_value(sums[1]))


def test_point_futures_as_arguments_hash_alike_on_loopback_and_inprocess():
    loop = Runtime(num_shards=4, backend="loopback", check_batch=4)
    inproc = Runtime(num_shards=4, check_batch=4)
    expected = ([6.0, 9.0, 12.0, 15.0], {0: 4.0, 1: 5.0, 2: 6.0, 3: 7.0},
                3.0)
    assert loop.execute(_point_futures_program) == expected
    assert inproc.execute(_point_futures_program) == expected
    assert loop.determinism_digests() == inproc.determinism_digests()


def test_a_point_future_asks_the_timing_oracle_on_the_asking_shard():
    """A map's point future answers `is_ready` for the shard that asks,
    so a branch on it diverges (Fig. 5).  Each shard asks about its own
    future, and the futures carry one structural key."""
    from repro.core import ControlDeterminismViolation

    asked = []

    def timing(shard, future):
        asked.append((shard, future))
        return shard % 2 == 0

    def probe(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        ctx.fill(r, "x", 1.0)
        fm = ctx.index_launch(lambda p, a: 1.0, range(4),
                              [(tiles, "x", "ro")])
        return fm[1].is_ready()

    assert Runtime(num_shards=4, timing_oracle=timing).execute(probe)
    assert [shard for shard, _ in asked] == [0, 1, 2, 3]
    futures = [future for _, future in asked]
    assert len({id(future) for future in futures}) == 4
    assert len({future.structural_key for future in futures}) == 1

    def branch(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        fm = ctx.index_launch(lambda p, a: 1.0, range(4),
                              [(tiles, "x", "ro")])
        if fm[1].is_ready():
            ctx.fill(r, "x", 1.0)

    with pytest.raises(ControlDeterminismViolation):
        Runtime(num_shards=2, timing_oracle=timing).execute(branch)
