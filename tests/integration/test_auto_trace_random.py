"""Property test: auto-traced execution of any random loop program matches
the untraced pipeline exactly — fields, task graph, and fence soundness —
with ZERO application trace annotations, across shard counts."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime import Runtime


def _bump(point, arg, amount):
    arg["x"].view[...] += amount


def _mix(point, owned, ghost):
    owned["y"].view[...] += float(ghost["x"].view.sum())


def _scale(point, arg):
    arg["y"].view[...] *= 0.5


def make_control(body_codes, loop_iters):
    """A loop with a random (but fixed) body and no trace calls at all."""

    def control(ctx):
        fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
        region = ctx.create_region(ctx.create_index_space(12), fs, "r")
        owned = ctx.partition_equal(region, 3, name="owned")
        ghost = ctx.partition_ghost(region, owned, 1, name="ghost")
        ctx.fill(region, ["x", "y"], 1.0)
        dom = [0, 1, 2]
        for _ in range(loop_iters):
            for code in body_codes:
                if code == 0:
                    ctx.index_launch(_bump, dom, [(owned, "x", "rw")],
                                     args=(0.5,))
                elif code == 1:
                    ctx.index_launch(_mix, dom,
                                     [(owned, "y", "rw"),
                                      (ghost, "x", "ro")])
                else:
                    ctx.index_launch(_scale, dom, [(owned, "y", "rw")])
        return region

    return control


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.integers(2, 6), st.integers(1, 4))
def test_auto_traced_equals_untraced(body_codes, loop_iters, shards):
    auto_rt = Runtime(num_shards=shards, auto_trace=True)
    r1 = auto_rt.execute(make_control(body_codes, loop_iters))
    plain_rt = Runtime(num_shards=shards)
    r2 = plain_rt.execute(make_control(body_codes, loop_iters))
    for f in ("x", "y"):
        a = auto_rt.store.raw(r1, r1.field_space[f])
        b = plain_rt.store.raw(r2, r2.field_space[f])
        assert np.array_equal(a, b), (body_codes, loop_iters, f)
    # Identical task graphs op-for-op and point-for-point.
    auto_tasks = {(t.op.name, t.point)
                  for t in auto_rt.pipeline.fine_result.graph.tasks}
    plain_tasks = {(t.op.name, t.point)
                   for t in plain_rt.pipeline.fine_result.graph.tasks}
    assert auto_tasks == plain_tasks
    assert auto_rt.pipeline.stats.ops == plain_rt.pipeline.stats.ops
    # The auto-traced run is still fence-sound.
    auto_rt.pipeline.validate()
    plain_rt.pipeline.validate()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=3),
       st.integers(5, 8))
def test_auto_tracer_actually_replays(body_codes, loop_iters):
    """With enough iterations the detector must engage: some ops replay.
    (A length-1 body needs 4 ops to witness its length-2 fragment twice,
    so 5 iterations guarantee at least one replayed op for every body.)"""
    rt = Runtime(num_shards=2, auto_trace=True)
    rt.execute(make_control(body_codes, loop_iters))
    assert rt.pipeline.stats.auto_traces >= 1
    assert rt.pipeline.stats.traced_ops > 0
    rt.pipeline.validate()
