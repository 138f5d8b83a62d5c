"""Replicated execution: N shards behave as one logical task (paper §1-2).

These are the end-to-end equivalence tests: the same control program run
with 1 shard and with N shards must produce identical region contents and
identical precise task graphs — and every fence-elision decision must be
sound for the cross-shard dependences that actually arose.
"""

import numpy as np
import pytest

from repro.apps.circuit import circuit_control, reference_circuit
from repro.apps.stencil import reference_stencil2d, stencil2d_control
from repro.runtime import BlockedMapper, DefaultMapper, Runtime
from repro.core.sharding import HASHED


def graph_signature(rt):
    """An identity-independent signature of the precise task graph."""
    def key(task):
        return (task.op.name, task.op.seq, task.point)
    tasks = sorted(key(t) for t in rt.task_graph().tasks)
    deps = sorted((key(a), key(b)) for a, b in rt.task_graph().deps)
    return tasks, deps


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_stencil_result_independent_of_shards(shards):
    rt = Runtime(num_shards=shards)
    cells = rt.execute(stencil2d_control, 12, 4, 5, 1.0)
    got = rt.store.raw(cells.tree_id, cells.field_space["b"])
    assert np.allclose(got, reference_stencil2d(12, 5, 1.0))


@pytest.mark.parametrize("shards", [1, 3])
def test_stencil_graph_independent_of_shards(shards):
    rt1 = Runtime(num_shards=1)
    rt1.execute(stencil2d_control, 8, 4, 4)
    rtn = Runtime(num_shards=shards)
    rtn.execute(stencil2d_control, 8, 4, 4)
    assert graph_signature(rt1) == graph_signature(rtn)


@pytest.mark.parametrize("shards", [1, 2, 5])
def test_circuit_result_independent_of_shards(shards):
    rt = Runtime(num_shards=shards)
    nodes = rt.execute(circuit_control)
    got = rt.store.raw(nodes.tree_id, nodes.field_space["voltage"])
    assert np.allclose(got, reference_circuit())


@pytest.mark.parametrize("mapper", [DefaultMapper(), BlockedMapper(),
                                    DefaultMapper(HASHED)])
def test_results_independent_of_sharding_function(mapper):
    """Any total sharding function yields the same answer — only
    performance may differ (paper §4)."""
    rt = Runtime(num_shards=3, mapper=mapper)
    cells = rt.execute(stencil2d_control, 12, 4, 3)
    got = rt.store.raw(cells.tree_id, cells.field_space["b"])
    assert np.allclose(got, reference_stencil2d(12, 3))
    rt.pipeline.validate()


def test_fences_inserted_and_elided_under_dcr():
    rt = Runtime(num_shards=4)
    rt.execute(stencil2d_control, 12, 4, 4)
    coarse = rt.coarse_result()
    assert len(coarse.fences) > 0          # ghost reads force fences
    assert coarse.fences_elided > 0        # same-partition chains elide
    rt.pipeline.validate()


def test_determinism_checks_ran():
    rt = Runtime(num_shards=3, check_batch=4)
    rt.execute(stencil2d_control, 8, 4, 3)
    assert rt.monitor.checks_performed >= 1


def test_executed_points_counted_once():
    """Effects are applied exactly once regardless of replication width."""
    rt1 = Runtime(num_shards=1)
    rt1.execute(stencil2d_control, 8, 4, 3)
    rt4 = Runtime(num_shards=4)
    rt4.execute(stencil2d_control, 8, 4, 3)
    assert rt1.executed_points == rt4.executed_points


def test_shard_context_identity():
    seen = []

    def main(ctx):
        seen.append((ctx.shard, ctx.num_shards))
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 0.0)

    Runtime(num_shards=3).execute(main)
    assert seen == [(0, 3), (1, 3), (2, 3)]


def test_rng_identical_across_shards():
    draws = []

    def main(ctx):
        rng = ctx.rng(123)
        draws.append([rng.random() for _ in range(4)])
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 0.0)

    Runtime(num_shards=3).execute(main)
    assert draws[0] == draws[1] == draws[2]


def test_nested_region_tree_under_dcr():
    """Two-level partitioning through the runtime: tasks on nested
    subregions coexist with tasks on the coarser level, and the analysis
    orders them through the tree (ancestors alias descendants)."""
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(16), fs, "r")
        halves = ctx.partition_equal(r, 2, name="halves")
        quarters_left = ctx.partition_equal(halves[0], 2, name="ql")
        ctx.fill(r, "x", 1.0)

        # Write at the fine level inside the left half...
        ctx.index_launch(lambda p, a: a["x"].view.__iadd__(p + 1),
                         range(2), [(quarters_left, "x", "rw")])
        # ...then read at the coarse level; must see the nested writes.
        fm = ctx.index_launch(lambda p, a: float(a["x"].view.sum()),
                              range(2), [(halves, "x", "ro")])
        return r, fm.get_all()

    for shards in (1, 3):
        rt = Runtime(num_shards=shards)
        r, sums = rt.execute(main)
        arr = rt.store.raw(r.tree_id, r.field_space["x"])
        assert list(arr[:4]) == [2.0] * 4      # quarter 0: +1
        assert list(arr[4:8]) == [3.0] * 4     # quarter 1: +2
        assert sums == {0: 20.0, 1: 8.0}
        # The nested write -> coarse read dependence was found through the
        # tree: the read tasks depend on the fine writers.
        g = rt.task_graph()
        reads = [t for t in g.tasks if t.op.seq == 2]
        writers = [t for t in g.tasks if t.op.seq == 1]
        left_read = [t for t in reads if t.point == 0][0]
        assert set(g.predecessors(left_read)) >= set(writers)
        rt.pipeline.validate()


@pytest.mark.parametrize("shards", [1, 2])
def test_half_domain_rewrite_keeps_the_other_half_ordered(shards):
    """A launch over half the colours of a complete partition retires only
    what it wrote: the reader of every tile still follows the first writer
    in the tiles the second launch left alone."""
    from helpers import brute_force_point_graph, reachability

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(16), fs, "r")
        tiles = ctx.partition_equal(r, 4)

        def setv(point, arg, base):
            arg["x"].view[...] = base + point

        def tile_sum(point, arg):
            return float(arg["x"].view.sum())

        ctx.index_launch(setv, range(4), [(tiles, "x", "rw")], args=(1.0,))
        ctx.index_launch(setv, range(2), [(tiles, "x", "rw")], args=(10.0,))
        return ctx.index_launch(tile_sum, range(4),
                                [(tiles, "x", "ro")]).get_all()

    rt = Runtime(num_shards=shards, backend="inprocess")
    assert rt.execute(main) == {0: 40.0, 1: 44.0, 2: 12.0, 3: 16.0}
    rt.pipeline.validate()
    ops = [r.op for r in rt.pipeline.records]
    assert reachability(rt.task_graph()) == \
        reachability(brute_force_point_graph(ops, shards))


@pytest.mark.parametrize("shards", [1, 3, 4])
@pytest.mark.parametrize("program", ["sliced_stencil", "explicit_stencil"])
def test_stencil_fine_graph_keeps_the_sequential_order(program, shards):
    """Sliced writes retire readers that straddle two written tiles; the
    precise graph must still induce the brute-force partial order."""
    from helpers import brute_force_point_graph, reachability
    from repro import legate

    rt = Runtime(num_shards=shards)
    rt.execute(getattr(legate, program), legate.make_wave(257), 12, 5)
    rt.pipeline.validate()
    ops = [r.op for r in rt.pipeline.records]
    assert reachability(rt.task_graph()) == \
        reachability(brute_force_point_graph(ops, shards))
