"""Future arguments: data-flow between tasks without control-flow hazards."""

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
    assert (rt.store.raw(r.tree_id, r.field_space["x"]) == 4.0).all()


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
    a = rt1.store.raw(r1.tree_id, r1.field_space["x"])
    b = rt3.store.raw(r3.tree_id, r3.field_space["x"])
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
    assert (rt.store.raw(r.tree_id, r.field_space["x"]) == 15.0).all()


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
