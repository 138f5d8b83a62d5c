"""Stress test: traced loops over random bodies match untraced execution."""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import field_bytes, reordered_runtime
from repro.runtime import Runtime


def _bump(point, arg, amount):
    arg["x"].view[...] += amount


def _mix(point, owned, ghost):
    owned["y"].view[...] += float(ghost["x"].view.sum())


def make_control(body_codes, loop_iters, use_trace):
    """A loop whose body is a random (but fixed) op sequence, traced."""

    def control(ctx):
        fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
        region = ctx.create_region(ctx.create_index_space(12), fs, "r")
        owned = ctx.partition_equal(region, 3, name="owned")
        ghost = ctx.partition_ghost(region, owned, 1, name="ghost")
        ctx.fill(region, ["x", "y"], 1.0)
        dom = [0, 1, 2]
        for _ in range(loop_iters):
            if use_trace:
                ctx.begin_trace(99)
            for code in body_codes:
                if code == 0:
                    ctx.index_launch(_bump, dom, [(owned, "x", "rw")],
                                     args=(0.5,))
                else:
                    ctx.index_launch(_mix, dom,
                                     [(owned, "y", "rw"),
                                      (ghost, "x", "ro")])
            if use_trace:
                ctx.end_trace()
        return region

    return control


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=4),
       st.integers(2, 5), st.integers(1, 4))
def test_traced_equals_untraced(body_codes, loop_iters, shards):
    traced_rt = Runtime(num_shards=shards)
    r1 = traced_rt.execute(make_control(body_codes, loop_iters, True))
    plain_rt = Runtime(num_shards=shards)
    r2 = plain_rt.execute(make_control(body_codes, loop_iters, False))
    for f in ("x", "y"):
        a = traced_rt.store.raw(r1, r1.field_space[f])
        b = plain_rt.store.raw(r2, r2.field_space[f])
        assert np.array_equal(a, b), (body_codes, loop_iters, f)
    # All but the first loop iteration replayed from the trace.
    expected_traced = (loop_iters - 1) * len(body_codes)
    assert traced_rt.pipeline.stats.traced_ops == expected_traced
    traced_rt.pipeline.validate()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=3),
       st.integers(2, 4))
def test_traced_runs_replay_out_of_order(body_codes, loop_iters):
    """A traced run out of program order writes the same bytes: replayed
    points carry their recorded edges, and the global fence entering each
    replay orders the rest."""
    rt = Runtime(num_shards=2)
    rt.execute(make_control(body_codes, loop_iters, True))
    reordered = reordered_runtime(3, num_shards=2)
    reordered.execute(make_control(body_codes, loop_iters, True))
    assert field_bytes(reordered) == field_bytes(rt)