"""Kitchen-sink integration: every runtime feature in one control program.

One replicated program that exercises, together: dependent partitioning
from computed data, traced loops, future-driven control flow,
checkpoint/restore, an execution fence, and a GC-deferred deletion — then
the full validation battery (graph signature equivalence across shard
counts, fence coverage, spy, a run out of program order).
Features that work in isolation can still interact badly; this test is the
interaction coverage.
"""

import numpy as np
import pytest

from helpers import field_bytes, reordered_runtime
from repro.runtime import Runtime
from repro.tools import load_region, save_region, validate_run


def kitchen_sink(ctx, checkpoint_dir):
    fs = ctx.create_field_space([("x", "f8"), ("w", "f8")], "F")
    data = ctx.create_region(ctx.create_index_space(16), fs, "data")
    tiles = ctx.partition_equal(data, 4, name="tiles")
    ghost = ctx.partition_ghost(data, tiles, 1, name="ghost")
    ctx.fill(data, ["x", "w"], 1.0)

    # 1. Traced relaxation loop with ghost reads.
    def relax(point, owned, gh):
        src = gh["x"].view
        owned["w"].view[...] = src[:owned["w"].view.shape[0]] * 0.5

    def commit(point, owned):
        owned["x"].view[...] = owned["w"].view + 0.25

    for _step in range(3):
        ctx.begin_trace(31)
        ctx.index_launch(relax, range(4),
                         [(tiles, "w", "rw"), (ghost, "x", "ro")])
        ctx.index_launch(commit, range(4), [(tiles, ["x", "w"], "rw")])
        ctx.end_trace()

    # 2. Future-driven control flow: measure, then branch.
    fm = ctx.index_launch(lambda p, a: float(a["x"].view.sum()), range(4),
                          [(tiles, "x", "ro")])
    total = fm.reduce(lambda a, b: a + b)
    if total > 4.0:
        ctx.index_launch(lambda p, a: a["x"].view.__imul__(2.0), range(4),
                         [(tiles, "x", "rw")])
    else:                                          # pragma: no cover
        ctx.index_launch(lambda p, a: a["x"].view.__iadd__(9.0), range(4),
                         [(tiles, "x", "rw")])

    # 3. Dependent partition computed from region data: cells above the
    #    mean form one piece, the rest the other.
    def snapshot(a):
        return tuple(float(v) for v in a["x"].view)

    values = list(ctx.get_value(ctx.launch(snapshot, [(data, "x", "ro")])))
    mean = sum(values) / len(values)
    hot = [i for i, v in enumerate(values) if v >= mean]
    cold = [i for i, v in enumerate(values) if v < mean]
    if not cold:                     # degenerate uniform data: still split
        cold = [hot.pop()]
    if not hot:
        hot = [cold.pop()]
    split = ctx.partition_by_points(data, {0: hot, 1: cold}, name="split")
    ctx.index_launch(
        lambda p, a: [a["x"].__setitem__(q, a["x"][q] + p)
                      for q in sorted(a.region.index_space.point_set())],
        [0, 1], [(split, "x", "rw")])

    # 4. Execution fence, then checkpoint the region.
    ctx.execution_fence()
    save_region(ctx, data, checkpoint_dir)

    # 5. A scratch region deleted from a finalizer (GC-deferred).
    scratch = ctx.create_region(ctx.create_index_space(4), fs, "scratch")
    ctx.fill(scratch, "x", 0.0)
    with ctx.finalizer():
        ctx.delete_region(scratch)

    return data


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_all_features_compose(tmp_path, shards):
    rt = Runtime(num_shards=shards)
    data = rt.execute(kitchen_sink, str(tmp_path / f"s{shards}"))
    x = rt.store.raw(data, data.field_space["x"]).copy()

    rt1 = Runtime(num_shards=1)
    data1 = rt1.execute(kitchen_sink, str(tmp_path / "ref"))
    x1 = rt1.store.raw(data1, data1.field_space["x"])
    assert np.array_equal(x, x1)

    rt.pipeline.validate()
    assert validate_run(rt).clean
    assert rt.deferred.outstanding == 0
    reordered = reordered_runtime(11, num_shards=shards)
    reordered.execute(kitchen_sink, str(tmp_path / f"r{shards}"))
    assert field_bytes(reordered) == field_bytes(rt)


def test_checkpoint_restores_in_new_runtime(tmp_path):
    rt = Runtime(num_shards=2)
    data = rt.execute(kitchen_sink, str(tmp_path))
    expected = rt.store.raw(data, data.field_space["x"]).copy()

    def restore(ctx):
        fs = ctx.create_field_space([("x", "f8"), ("w", "f8")], "F")
        r = ctx.create_region(ctx.create_index_space(16), fs, "data")
        ctx.fill(r, ["x", "w"], 0.0)
        load_region(ctx, r, str(tmp_path))
        return r

    rt2 = Runtime(num_shards=3)
    r2 = rt2.execute(restore)
    got = rt2.store.raw(r2, r2.field_space["x"])
    assert np.array_equal(got, expected)
