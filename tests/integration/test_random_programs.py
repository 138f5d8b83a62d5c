"""End-to-end property test: random control programs behave identically
replicated and sequential (the system-level face of Theorem 1).

Hypothesis generates random sequences of fills, group launches over
owned/ghost partitions with varying privileges and sharding functions, and
scalar reductions; each program runs with 1 and with N shards and must
produce bit-identical region contents, identical task-graph signatures,
and pass the fence-coverage validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sharding import BLOCKED, CYCLIC, HASHED
from repro.runtime import DefaultMapper, Runtime


def _bump(point, arg, amount):
    arg["x"].view[...] += amount


def _scale(point, arg, factor):
    arg["y"].view[...] *= factor


def _blend(point, owned, ghost):
    """owned.y += mean of ghost.x (a halo-style read)."""
    owned["y"].view[...] += float(ghost["x"].view.mean())


def _tile_sum(point, arg):
    return float(arg["x"].view.sum())


OPS = ["bump", "scale", "blend", "reduce"]


def make_control(script, tiles=4, cells=16):
    """Build a control program from a list of (op, value) codes."""

    def control(ctx):
        fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
        region = ctx.create_region(ctx.create_index_space(cells), fs, "r")
        owned = ctx.partition_equal(region, tiles, name="owned")
        ghost = ctx.partition_ghost(region, owned, 1, name="ghost")
        ctx.fill(region, ["x", "y"], 1.0)
        dom = list(range(tiles))
        totals = []
        for code, value in script:
            if code == 0:
                ctx.index_launch(_bump, dom, [(owned, "x", "rw")],
                                 args=(value,))
            elif code == 1:
                ctx.index_launch(_scale, dom, [(owned, "y", "rw")],
                                 args=(value,))
            elif code == 2:
                ctx.index_launch(_blend, dom,
                                 [(owned, "y", "rw"), (ghost, "x", "ro")])
            else:
                fm = ctx.index_launch(_tile_sum, dom, [(owned, "x", "ro")])
                totals.append(fm.reduce(lambda a, b: a + b))
        return region, totals

    return control


def graph_signature(rt):
    def key(task):
        return (task.op.name, task.op.seq, task.point)
    return (sorted(key(t) for t in rt.task_graph().tasks),
            sorted((key(a), key(b)) for a, b in rt.task_graph().deps))


scripts = st.lists(
    st.tuples(st.integers(0, 3),
              st.floats(0.5, 2.0, allow_nan=False)),
    min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(scripts, st.integers(2, 5),
       st.sampled_from([CYCLIC, BLOCKED, HASHED]))
def test_replication_transparent(script, shards, sharding):
    seq_rt = Runtime(num_shards=1, mapper=DefaultMapper(sharding))
    seq_region, seq_totals = seq_rt.execute(make_control(script))
    rep_rt = Runtime(num_shards=shards, mapper=DefaultMapper(sharding))
    rep_region, rep_totals = rep_rt.execute(make_control(script))

    for field in ("x", "y"):
        a = seq_rt.store.raw(seq_region,
                             seq_region.field_space[field])
        b = rep_rt.store.raw(rep_region,
                             rep_region.field_space[field])
        assert np.array_equal(a, b)
    assert seq_totals == rep_totals
    assert graph_signature(seq_rt) == graph_signature(rep_rt)
    rep_rt.pipeline.validate()


@settings(max_examples=15, deadline=None)
@given(scripts)
def test_rerun_is_deterministic(script):
    """The same program twice: identical graphs and contents (no hidden
    global state in the runtime)."""
    rt1 = Runtime(num_shards=3)
    r1, t1 = rt1.execute(make_control(script))
    rt2 = Runtime(num_shards=3)
    r2, t2 = rt2.execute(make_control(script))
    assert t1 == t2
    a = rt1.store.raw(r1, r1.field_space["y"])
    b = rt2.store.raw(r2, r2.field_space["y"])
    assert np.array_equal(a, b)
    assert graph_signature(rt1) == graph_signature(rt2)
