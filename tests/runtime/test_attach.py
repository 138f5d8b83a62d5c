"""Attach/detach of external resources (paper §4.3)."""

import numpy as np
import pytest

from repro.runtime import Runtime
from repro.runtime.attach import (attach_array, attach_file,
                                  attach_file_group, detach_array,
                                  detach_file, detach_file_group)


def test_attach_array_roundtrip():
    external = np.arange(8.0)

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        attach_array(ctx, r, "x", external)
        ctx.launch(lambda a: a["x"].view.__iadd__(10.0), [(r, "x", "rw")])
        detach_array(ctx, r, "x", external)
        return r

    Runtime(num_shards=2).execute(main)
    assert list(external) == [10.0, 11, 12, 13, 14, 15, 16, 17]


def test_attach_file_roundtrip(tmp_path):
    src = tmp_path / "in.npy"
    dst = tmp_path / "out.npy"
    np.save(src, np.full(6, 2.0))

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(6), fs, "r")
        attach_file(ctx, r, "x", str(src))
        ctx.launch(lambda a: a["x"].view.__imul__(3.0), [(r, "x", "rw")])
        detach_file(ctx, r, "x", str(dst))

    Runtime(num_shards=3).execute(main)
    assert (np.load(dst) == 6.0).all()


def test_group_attach_detach(tmp_path):
    for c in range(4):
        np.save(tmp_path / f"in{c}.npy", np.full(2, float(c)))

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        attach_file_group(ctx, tiles, "x",
                          lambda c: str(tmp_path / f"in{c}.npy"))
        ctx.index_launch(lambda p, a: a["x"].view.__iadd__(1.0), range(4),
                         [(tiles, "x", "rw")])
        detach_file_group(ctx, tiles, "x",
                          lambda c: str(tmp_path / f"out{c}.npy"))

    Runtime(num_shards=2).execute(main)
    for c in range(4):
        assert (np.load(tmp_path / f"out{c}.npy") == c + 1.0).all()


def test_attach_ordering_respected():
    """Tasks launched after attach observe the attached data; detach sees
    the tasks' writes (the operations participate in the analysis)."""
    external = np.full(4, 5.0)

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 0.0)
        attach_array(ctx, r, "x", external)
        fut = ctx.launch(lambda a: float(a["x"].view.sum()),
                         [(r, "x", "ro")])
        return ctx.get_value(fut)

    total = Runtime(num_shards=1).execute(main)
    assert total == 20.0


def test_finalizer_detach_deferred(tmp_path):
    """Detach issued from a GC finalizer at shard-dependent times must not
    violate determinism; the deferred consensus applies it once."""
    dst = tmp_path / "final.npy"

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "r")
        ctx.fill(r, "x", 4.0)
        # Each shard's collector "runs" at a different, unhashed moment.
        with ctx.finalizer():
            ctx.delete_region(r)
        return r

    rt = Runtime(num_shards=3)
    r = rt.execute(main)
    # All shards announced; the deferred manager applied the deletion.
    assert rt.deferred.outstanding == 0
    assert not rt.store.has_field(r, r.field_space["x"])


def test_finalizer_at_shard_dependent_times(tmp_path):
    """The §4.3 scenario proper: each shard's collector fires at a
    *different point* in the control program.  Deferred consensus means no
    determinism violation and exactly one application of the deletion."""
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        regions = []
        for i in range(4):
            r = ctx.create_region(ctx.create_index_space(4), fs, f"r{i}")
            ctx.fill(r, "x", float(i))
            regions.append(r)
        # Shard k's GC happens to run after it touches region k: the
        # announcements interleave differently on every shard.
        for i, r in enumerate(regions):
            if i == ctx.shard % 4:
                with ctx.finalizer():
                    ctx.delete_region(regions[0])
        ctx.fill(regions[1], "x", 9.0)    # hashed work continues fine
        return regions

    rt = Runtime(num_shards=3)
    regions = rt.execute(main)
    assert rt.deferred.outstanding == 0
    assert not rt.store.has_field(regions[0],
                                  regions[0].field_space["x"])
    assert rt.store.has_field(regions[1],
                              regions[1].field_space["x"])


def test_real_weakref_finalizer(tmp_path):
    """Genuine Python GC: a weakref.finalize hook announces the deferred
    deletion when the guard object is collected — collection happens at
    whatever point each shard's replay drops the reference."""
    import gc
    import weakref

    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(4), fs, "gc_region")
        ctx.fill(r, "x", 1.0)

        class Guard:
            pass

        def finalize():
            with ctx.finalizer():
                ctx.delete_region(r)

        guard = Guard()
        weakref.finalize(guard, finalize)
        # Every shard performs identical hashed work, but drops the guard
        # (triggering collection) at a shard-dependent point within it.
        for i in range(4):
            ctx.fill(r, "x", float(i))
            if i == ctx.shard and guard is not None:
                del guard
                guard = None
                gc.collect()
        if guard is not None:
            del guard
            gc.collect()
        ctx.fill(r, "x", 42.0)
        return r

    rt = Runtime(num_shards=3)
    r = rt.execute(main)
    assert rt.deferred.outstanding == 0
    assert not rt.store.has_field(r, r.field_space["x"])
