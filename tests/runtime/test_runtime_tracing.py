"""Tracing through the runtime API: replicated loops replay correctly."""

import numpy as np
import pytest

from repro.runtime import Runtime


def traced_stencil(ctx, steps=4, use_trace=True):
    fs = ctx.create_field_space([("a", "f8"), ("b", "f8")])
    r = ctx.create_region(ctx.create_index_space(16), fs, "r")
    owned = ctx.partition_equal(r, 4, name="owned")
    ghost = ctx.partition_ghost(r, owned, 1, name="ghost")
    ctx.fill(r, ["a", "b"], 1.0)

    def step(point, out, gin, wf, rf):
        src = gin[rf].view
        out[wf].view[...] = src[:out[wf].view.shape[0]] + 1.0

    dom = list(range(4))
    for t in range(0, steps, 2):
        if use_trace:
            ctx.begin_trace(42)
        ctx.index_launch(step, dom, [(owned, "a", "rw"), (ghost, "b", "ro")],
                         args=("a", "b"))
        ctx.index_launch(step, dom, [(owned, "b", "rw"), (ghost, "a", "ro")],
                         args=("b", "a"))
        if use_trace:
            ctx.end_trace()
    return r


def test_traced_loop_matches_untraced():
    rt_traced = Runtime(num_shards=3)
    r1 = rt_traced.execute(traced_stencil, 8, True)
    rt_plain = Runtime(num_shards=3)
    r2 = rt_plain.execute(traced_stencil, 8, False)
    for f in ("a", "b"):
        a = rt_traced.store.raw(r1, r1.field_space[f])
        b = rt_plain.store.raw(r2, r2.field_space[f])
        assert np.array_equal(a, b)
    # The traced run actually replayed: 3 of 4 loop bodies from the cache.
    assert rt_traced.pipeline.stats.traced_ops == 6
    assert rt_plain.pipeline.stats.traced_ops == 0


def test_traced_run_passes_fence_validation():
    rt = Runtime(num_shards=4)
    rt.execute(traced_stencil, 8, True)
    rt.pipeline.validate()


def test_trace_calls_are_hashed():
    """begin/end_trace are themselves API calls: a shard tracing while
    others do not is a determinism violation."""
    from repro.core import ControlDeterminismViolation

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        tiles = ctx.partition_equal(r, 2)
        ctx.fill(r, "x", 0.0)
        if ctx.shard == 0:
            ctx.begin_trace(1)
        ctx.index_launch(lambda p, a: None, range(2), [(tiles, "x", "ro")])
        if ctx.shard == 0:
            ctx.end_trace()

    with pytest.raises(ControlDeterminismViolation):
        Runtime(num_shards=2).execute(main)


def test_divergent_trace_body_falls_back():
    """Changing the loop body between trace executions abandons the replay
    and completes correctly (safe fallback) instead of raising."""
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        other = ctx.partition_equal(r, 4)
        ctx.fill(r, "x", 0.0)
        for t in range(2):
            ctx.begin_trace(7)
            part = tiles if t == 0 else other     # different partition!
            ctx.index_launch(lambda p, a: a["x"].view.__iadd__(1.0),
                             range(4), [(part, "x", "rw")])
            ctx.end_trace()
        return r

    rt = Runtime(num_shards=2)
    r = rt.execute(main)
    assert (rt.store.raw(r, r.field_space["x"]) == 2.0).all()
    assert rt.pipeline.stats.trace_fallbacks == 1
    assert rt.pipeline.stats.traced_ops == 0
    rt.pipeline.validate()


def auto_stencil(ctx, steps=8):
    """The same stencil loop with ZERO begin/end_trace calls."""
    return traced_stencil(ctx, steps, use_trace=False)


class TestAutoTracing:
    def test_auto_traced_loop_matches_untraced(self):
        rt_auto = Runtime(num_shards=3, auto_trace=True)
        r1 = rt_auto.execute(auto_stencil, 12)
        rt_plain = Runtime(num_shards=3)
        r2 = rt_plain.execute(auto_stencil, 12)
        for f in ("a", "b"):
            a = rt_auto.store.raw(r1, r1.field_space[f])
            b = rt_plain.store.raw(r2, r2.field_space[f])
            assert np.array_equal(a, b)
        # The repeat detector found the loop and replayed it without a
        # single application annotation.
        assert rt_auto.pipeline.stats.auto_traces >= 1
        assert rt_auto.pipeline.stats.traced_ops > 0
        assert rt_plain.pipeline.stats.traced_ops == 0
        rt_auto.pipeline.validate()

    def test_auto_trace_off_by_default(self):
        rt = Runtime(num_shards=2)
        rt.execute(auto_stencil, 12)
        assert rt.pipeline.stats.traced_ops == 0
        assert rt.pipeline.stats.auto_traces == 0

    def test_auto_trace_survives_execution_fence(self):
        """An execution fence mid-loop suspends auto replay; the run still
        completes correctly and no identified fragment spans the fence."""
        def main(ctx):
            fs = ctx.create_field_space([("x", "f8")])
            r = ctx.create_region(ctx.create_index_space(8), fs, "r")
            tiles = ctx.partition_equal(r, 4)
            ctx.fill(r, "x", 0.0)
            for t in range(10):
                ctx.index_launch(lambda p, a: a["x"].view.__iadd__(1.0),
                                 range(4), [(tiles, "x", "rw")])
                if t == 5:
                    ctx.execution_fence()
            return r

        rt = Runtime(num_shards=2, auto_trace=True)
        r = rt.execute(main)
        assert (rt.store.raw(r, r.field_space["x"]) == 10.0).all()
        rt.pipeline.validate()

    def test_explicit_traces_still_work_with_auto_enabled(self):
        rt = Runtime(num_shards=3, auto_trace=True)
        r = rt.execute(traced_stencil, 8, True)
        assert rt.pipeline.stats.traced_ops >= 6
        rt.pipeline.validate()
        rt_plain = Runtime(num_shards=3)
        r2 = rt_plain.execute(traced_stencil, 8, False)
        for f in ("a", "b"):
            a = rt.store.raw(r, r.field_space[f])
            b = rt_plain.store.raw(r2, r2.field_space[f])
            assert np.array_equal(a, b)
