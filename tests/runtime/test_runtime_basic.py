"""Basic runtime behavior: launches, futures, fills, single-shard mode."""

import weakref

import numpy as np
import pytest

from helpers import REORDER_SEEDS, reordered_runtime
from repro.runtime import Runtime


def test_fill_and_single_launch():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        ctx.fill(r, "x", 3.0)

        def double(arg):
            arg["x"].view[...] *= 2.0
            return float(arg["x"].view.sum())

        fut = ctx.launch(double, [(r, "x", "rw")])
        return ctx.get_value(fut), r

    rt = Runtime(num_shards=1)
    total, region = rt.execute(main)
    assert total == 48.0
    arr = rt.store.raw(region, region.field_space["x"])
    assert (arr == 6.0).all()


def test_index_launch_future_map():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        ctx.fill(r, "x", 1.0)

        def tile_sum(point, arg):
            return float(arg["x"].view.sum()) + point

        fm = ctx.index_launch(tile_sum, range(4), [(tiles, "x", "ro")])
        return fm.get_all(), fm.reduce(lambda a, b: a + b)

    per_point, total = Runtime(num_shards=1).execute(main)
    assert per_point == {0: 2.0, 1: 3.0, 2: 4.0, 3: 5.0}
    assert total == 14.0


def test_scalar_args_passed_through():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        tiles = ctx.partition_equal(r, 2)
        ctx.fill(r, "x", 0.0)

        def setv(point, arg, base, scale):
            arg["x"].view[...] = base + scale * point

        ctx.index_launch(setv, range(2), [(tiles, "x", "rw")],
                         args=(10.0, 2.0))
        return r

    rt = Runtime(num_shards=1)
    r = rt.execute(main)
    arr = rt.store.raw(r, r.field_space["x"])
    assert list(arr) == [10.0, 10.0, 12.0, 12.0]


def test_reduce_privilege_launch():
    def main(ctx):
        fs = ctx.create_field_space([("acc", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        owned = ctx.partition_equal(r, 4)
        ghost = ctx.partition_ghost(r, owned, 1)
        ctx.fill(r, "acc", 0.0)

        def contribute(point, arg):
            for p in sorted(arg.region.index_space.point_set()):
                arg["acc"].reduce(p, 1.0)

        ctx.index_launch(contribute, range(4), [(ghost, "acc", "red<+>")])
        return r

    rt = Runtime(num_shards=1)
    r = rt.execute(main)
    arr = rt.store.raw(r, r.field_space["acc"])
    # Interior cells are covered by 3 ghost pieces, edges by 2.
    assert list(arr) == [2.0, 3.0, 3.0, 2.0]


def test_task_graph_is_recorded():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        ctx.fill(r, "x", 0.0)
        bump = lambda point, arg: arg["x"].view.__iadd__(1.0)
        ctx.index_launch(bump, range(4), [(tiles, "x", "rw")])
        ctx.index_launch(bump, range(4), [(tiles, "x", "rw")])

    rt = Runtime(num_shards=1)
    rt.execute(main)
    g = rt.task_graph()
    assert len(g.tasks) == 1 + 4 + 4
    # Each first bump depends on the fill; each tile's second bump depends
    # on its first.  The fill is retired from the epoch once the first
    # (complete, disjoint) group write covers the region, so no redundant
    # fill -> second-bump edges appear: exactly 4 + 4 edges.
    assert len(g.deps) == 8
    assert g.is_acyclic()
    for a, b in g.deps:
        if a.op.name.startswith("<lambda>") and a.op is not b.op:
            assert a.point == b.point      # pointwise chains per tile


def test_future_read_before_resolution_fails():
    from repro.runtime import Future
    values = {}
    f = Future(0, values)
    with pytest.raises(RuntimeError):
        f.get()
    values[0] = 3
    assert f.get() == 3 and f.is_ready()


def test_unknown_privilege_spec_rejected():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.launch(lambda arg: None, [(r, "x", "bogus")])

    with pytest.raises(ValueError):
        Runtime(num_shards=1).execute(main)


#: Every width a deletion is checked at: replicas replay after the driver
#: has deleted, in-process and on a gang alike.
WIDTHS = [(1, "inprocess"), (2, "inprocess"), (2, "loopback")]


def test_immediate_deletions():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 1.0)
        ctx.fill(r, "y", 2.0)           # a use of y before it is deleted
        ctx.delete_field(r, "y")
        return r

    for shards, backend in WIDTHS:
        rt = Runtime(num_shards=shards, backend=backend)
        r = rt.execute(main)
        assert "y" not in r.field_space
        assert rt.store.has_field(r, r.field_space["x"])


def test_deleted_storage_is_released_during_the_execute():
    """The region arguments and accessors the driver keeps for a point
    requirement do not pin a deleted region's or field's array: it is
    freed at the deletion, while the execute goes on.  Every replica uses
    ``y`` before it deletes it, after the driver already has."""
    def touch(arg):
        for f in arg.fields():
            arg[f.name].view[...] += 1.0
        return float(arg["x"].view.sum())

    def touch_point(_point, arg):
        return touch(arg)

    def main(ctx, rt, refs):
        fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        s = ctx.create_region(ctx.create_index_space(8), fs, "s")
        part = ctx.partition_equal(r, 2)
        for _ in range(2):
            ctx.fill(r, "x", 1.0)
            ctx.index_launch(touch_point, range(2), [(part, "x", "rw")])
            # a list of fields is an unhashable spec: lowered afresh
            ctx.launch(touch, [(s, ["x", "y"], "rw")])
        if ctx.is_driver:
            refs["r"] = weakref.ref(rt.store.raw(r, fs["x"]))
            refs["s.y"] = weakref.ref(rt.store.raw(s, fs["y"]))
        ctx.delete_region(r)
        ctx.delete_field(s, "y")
        if ctx.is_driver:
            refs["freed"] = [k for k in ("r", "s.y") if refs[k]() is None]
        ctx.launch(touch, [(s, "x", "rw")])

    for shards, backend in WIDTHS:
        refs = {}
        rt = Runtime(num_shards=shards, backend=backend)
        rt.execute(main, rt, refs)
        assert refs["freed"] == ["r", "s.y"]


def test_runtime_single_use():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 0.0)

    rt = Runtime(num_shards=2)
    rt.execute(main)
    with pytest.raises(RuntimeError, match="single-use"):
        rt.execute(main)


def test_empty_index_launch_rejected():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        tiles = ctx.partition_equal(r, 2)
        ctx.index_launch(lambda p, a: None, [], [(tiles, "x", "ro")])

    with pytest.raises(ValueError, match="empty"):
        Runtime(num_shards=1).execute(main)


def _rejected_launch(launch, error, match):
    """Run ``launch(ctx, tiles, body)`` on two shards and check that it
    raises ``error`` before the launch reaches either analysis stage or
    runs a point (only the fill does)."""
    ran = []

    def body(*args):
        ran.append(args[0])

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4, name="tiles")
        ctx.fill(r, "x", 0.0)
        launch(ctx, tiles, body)

    rt = Runtime(num_shards=2)
    with pytest.raises(error, match=match):
        rt.execute(main)
    assert ran == []
    assert rt.pipeline.coarse.result.ops_analyzed == 1
    assert sum(rt.pipeline.fine.result.points_per_shard.values()) == 1


def test_index_launch_rejects_a_repeated_point():
    _rejected_launch(
        lambda ctx, tiles, body: ctx.index_launch(
            body, (0, 0, 1), [(tiles, "x", "rw")]),
        ValueError, "names point 0 more than once")


def test_individual_launch_rejects_a_partition():
    _rejected_launch(
        lambda ctx, tiles, body: ctx.launch(body, [(tiles, "x", "rw")]),
        TypeError, "not partition tiles: use index_launch")


def test_index_launch_rejects_a_point_outside_the_partition():
    _rejected_launch(
        lambda ctx, tiles, body: ctx.index_launch(
            body, (0, 7), [(tiles, "x", "rw")]),
        ValueError, "point 7 projects to colour 7, which partition tiles")


def test_execution_fence_orders_independent_work():
    """Two independent launch chains separated by an execution fence: in
    any order the queue runs, no point issued after the fence runs before
    a point issued before it."""
    def main(ctx, fence, ran):
        fs = ctx.create_field_space([("x", "f8")])
        a = ctx.create_region(ctx.create_index_space(4), fs, "a")
        b = ctx.create_region(ctx.create_index_space(4), fs, "b")
        at = ctx.partition_equal(a, 2)
        bt = ctx.partition_equal(b, 2)
        ctx.fill(a, "x", 1.0)
        ctx.fill(b, "x", 1.0)

        def add(p, r):
            ran.append("a")
            r["x"].view[...] += 1.0

        def scale(p, r):
            ran.append("b")
            r["x"].view[...] *= 3.0

        ctx.index_launch(add, range(2), [(at, "x", "rw")])
        if fence:
            ctx.execution_fence()
        ctx.index_launch(scale, range(2), [(bt, "x", "rw")])
        return a, b

    rt = Runtime(num_shards=2)
    ra, rb = rt.execute(main, True, [])
    assert (rt.store.raw(ra, ra.field_space["x"]) == 2.0).all()
    assert (rt.store.raw(rb, rb.field_space["x"]) == 3.0).all()
    # The fence is visible as a global analysis fence...
    assert any(f.region is None for f in rt.coarse_result().fences)
    # ...and the queue treats it as a barrier at every seed.
    for seed in REORDER_SEEDS:
        ran = []
        reordered_runtime(seed, num_shards=2).execute(main, True, ran)
        assert ran == ["a", "a", "b", "b"], seed
    # Without the fence the chains are independent, and some seed runs a
    # point of the second first: the check above has something to catch.
    firsts = set()
    for seed in REORDER_SEEDS:
        ran = []
        reordered_runtime(seed, num_shards=2).execute(main, False, ran)
        firsts.add(ran[0])
    assert firsts == {"a", "b"}


def test_execution_fence_replicates():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 0.0)
        ctx.execution_fence()
        ctx.fill(r, "x", 5.0)
        return r

    rt = Runtime(num_shards=3)
    r = rt.execute(main)
    assert (rt.store.raw(r, r.field_space["x"]) == 5.0).all()


def test_replicas_build_no_fill_or_attach_operation():
    """Only the driver analyses, so only it builds operations: a 4-shard
    execute with fills, an attach and a detach constructs exactly the ops
    the pipeline analysed (27 when every replica built and dropped its own
    fills and attaches), and the determinism digests keep their pin."""
    import hashlib
    from unittest import mock

    from repro.core.operation import Operation
    from repro.runtime.attach import attach_array, detach_array

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
        r = ctx.create_region(ctx.create_index_space(16), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        ctx.fill(r, ["x", "y"], 1.0)
        attach_array(ctx, r, "y", np.arange(16.0))

        def bump(point, arg):
            arg["x"].view[...] += point

        # A task is keyed by its body's module and name, and pytest's
        # import mode decides this module's name (``test_runtime_basic``
        # by default, ``tests.runtime.test_runtime_basic`` under
        # ``--import-mode=importlib``): fix it, so the pinned digest below
        # holds under both.
        bump.__module__ = "test_runtime_basic"

        for step in range(3):
            ctx.fill(r, "x", float(step))
            ctx.index_launch(bump, range(4), [(tiles, "x", "rw")])
        detach_array(ctx, r, "y", np.zeros(16))

    built = []
    init = Operation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with mock.patch.object(Operation, "__init__", counting):
        rt = Runtime(num_shards=4)
        rt.execute(main)
    assert len(built) == rt.pipeline.stats.ops == 9
    assert hashlib.sha256(repr(rt.determinism_digests()).encode()) \
        .hexdigest()[:16] == "c3b62f5cc4e3344b"
