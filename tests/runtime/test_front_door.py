"""Ill-formed control-program calls are rejected at the call that makes
them, with a typed error, on the in-process and the loopback backend alike
— not accepted, and not failing deep inside the runtime."""

import numpy as np
import pytest

from front_door_cases import ILL_FORMED
from repro.legate import LegateContext
from repro.runtime import Runtime
from repro.tools import save_region

BACKENDS = ["inprocess", "loopback"]


def _region(ctx):
    fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
    return ctx.create_region(ctx.create_index_space(8), fs, "r")


def _run(backend, main):
    return Runtime(num_shards=2, backend=backend).execute(main)


def _touch(arg):
    arg["x"].view[...] += 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_end_trace_without_an_open_trace_is_rejected(backend):
    def main(ctx):
        r = _region(ctx)
        ctx.launch(_touch, [(r, "x", "rw")])
        ctx.end_trace()

    with pytest.raises(ValueError, match="no trace open"):
        _run(backend, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_trace_left_open_at_return_is_rejected(backend):
    def main(ctx):
        r = _region(ctx)
        ctx.begin_trace(7)
        ctx.launch(_touch, [(r, "x", "rw")])

    with pytest.raises(ValueError, match="trace 7 still open"):
        _run(backend, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_paired_traces_are_accepted(backend):
    def main(ctx):
        r = _region(ctx)
        ctx.fill(r, "x", 0.0)
        for _ in range(3):
            ctx.begin_trace(7)
            ctx.launch(_touch, [(r, "x", "rw")])
            ctx.end_trace()
        return r

    rt = Runtime(num_shards=2, backend=backend)
    r = rt.execute(main)
    assert (rt.store.raw(r, r.field_space["x"]) == 3.0).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_field_in_launch_is_rejected(backend):
    def main(ctx):
        r = _region(ctx)
        ctx.launch(_touch, [(r, "z", "rw")])

    with pytest.raises(ValueError, match="r has no field 'z'"):
        _run(backend, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_deleted_field_in_fill_is_rejected(backend):
    def main(ctx):
        r = _region(ctx)
        ctx.delete_field(r, "y")
        ctx.fill(r, "y", 1.0)

    with pytest.raises(ValueError, match="r has no field 'y'"):
        _run(backend, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_string_privilege_spec_is_rejected(backend):
    def main(ctx):
        r = _region(ctx)
        ctx.launch(_touch, [(r, "x", 3)])

    with pytest.raises(TypeError, match="privilege spec 3"):
        _run(backend, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_get_value_of_a_non_future_is_rejected(backend):
    def main(ctx):
        r = _region(ctx)
        futures = ctx.index_launch(lambda point, arg: point, range(2),
                                   [(ctx.partition_equal(r, 2), "x", "ro")])
        return ctx.get_value(futures)

    with pytest.raises(TypeError, match="get_value takes a Future"):
        _run(backend, main)


def _noop(*_args):
    """A body that touches no data, so only the front door can object."""


#: Every call that names a region, as ``use(ctx, region, partition)``.
USES = {
    "launch": lambda ctx, r, p: ctx.launch(_noop, [(r, "x", "rw")]),
    "index_launch": lambda ctx, r, p: ctx.index_launch(
        _noop, (0, 1), [(p, "x", "rw")]),
    "fill": lambda ctx, r, p: ctx.fill(r, "x", 1.0),
    "partition_equal": lambda ctx, r, p: ctx.partition_equal(r, 4),
    "partition_ghost": lambda ctx, r, p: ctx.partition_ghost(r, p, 1),
}


@pytest.mark.parametrize("use", sorted(USES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_deleted_region_is_rejected_at_the_call(backend, use):
    def main(ctx):
        r = _region(ctx)
        p = ctx.partition_equal(r, 2)
        ctx.launch(_noop, [(r, "x", "rw")])     # lowered while still live
        ctx.delete_region(r)
        USES[use](ctx, r, p)

    with pytest.raises(ValueError, match=f"{use} on region r, which this "
                                         f"runtime has deleted"):
        _run(backend, main)


def _foreign():
    """A region, and a partition of it, that another runtime created."""
    def main(ctx):
        r = _region(ctx)
        return r, ctx.partition_equal(r, 2)

    return Runtime(num_shards=1).execute(main)


@pytest.mark.parametrize("use", sorted(USES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_foreign_region_is_rejected_at_the_call(backend, use):
    r, p = _foreign()

    def main(ctx):
        _region(ctx)
        USES[use](ctx, r, p)

    with pytest.raises(ValueError, match=f"{use} on region r, which "
                                         f"another runtime created"):
        _run(backend, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_each_replica_deletes_in_its_own_program_order(backend):
    """In-process replicas replay after the driver has deleted the region:
    their uses before the deletion are still valid."""
    def main(ctx):
        r, keep = _region(ctx), _region(ctx)
        ctx.fill(keep, "x", 0.0)
        ctx.launch(_touch, [(r, "x", "rw")])
        ctx.delete_region(r)
        ctx.launch(_touch, [(keep, "x", "rw")])
        return keep

    rt = Runtime(num_shards=2, backend=backend)
    keep = rt.execute(main)
    assert (rt.store.raw(keep, keep.field_space["x"]) == 1.0).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_finalizer_deletion_is_not_a_use_after_delete(backend):
    """A deletion deferred through a finalizer is not in program order."""
    def main(ctx):
        r = _region(ctx)
        ctx.fill(r, "x", 0.0)
        with ctx.finalizer():
            ctx.delete_region(r)
        ctx.launch(_touch, [(r, "x", "rw")])

    _run(backend, main)


def _ghost(ctx, r):
    """Four overlapping pieces: each tile of two cells plus a neighbour."""
    return ctx.partition_ghost(r, ctx.partition_equal(r, 4), 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_interfering_group_launch_is_rejected(backend):
    """Neighbouring points of a ghost-partition write share cells, so the
    points of the launch are not independent."""
    def main(ctx):
        r = _region(ctx)
        ctx.index_launch(_noop, range(4), [(_ghost(ctx, r), "x", "rw")])

    with pytest.raises(ValueError, match=r"index_launch of _noop: points 0 "
                                         r"and 1 interfere"):
        _run(backend, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_group_writing_what_another_point_reads_is_rejected(backend):
    def main(ctx):
        r = _region(ctx)
        tiles = ctx.partition_equal(r, 4)
        ctx.index_launch(_noop, range(4), [(tiles, "x", "rw"),
                                           (_ghost(ctx, r), "x", "ro")])

    with pytest.raises(ValueError, match="interfere through requirements"):
        _run(backend, main)


@pytest.mark.parametrize("spec", ["rw", "wd", "red<*>"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_two_writers_in_one_task_are_rejected(backend, spec):
    def main(ctx):
        r = _region(ctx)
        ctx.launch(_noop, [(r, "x", "red<+>"), (r, ["x", "y"], spec)])

    with pytest.raises(ValueError, match=r"launch: requirements 0 and 1 "
                                         r"both write field\(s\) x of r"):
        _run(backend, main)


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_writers_in_one_point_are_rejected(backend):
    def main(ctx):
        r = _region(ctx)
        tiles = ctx.partition_equal(r, 4)
        ctx.index_launch(_noop, range(4), [(tiles, "x", "rw"),
                                           (_ghost(ctx, r), "x", "wd")])

    with pytest.raises(ValueError, match=r"index_launch of _noop at point 0: "
                                         r"requirements 0 and 1 both write"):
        _run(backend, main)


def _add_point(point, arg):
    arg["x"].view[...] += point + 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_same_operator_reduction_through_the_ghost_is_accepted(backend):
    def main(ctx):
        r = _region(ctx)
        ctx.fill(r, "x", 0.0)
        ghost = _ghost(ctx, r)
        for _ in range(2):                   # the second launch is memoised
            ctx.index_launch(_noop, range(4), [(ghost, "x", "red<+>")])
        return r

    rt = Runtime(num_shards=2, backend=backend)
    r = rt.execute(main)
    assert rt.store.raw(r, r.field_space["x"]).shape == (8,)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_one_point_ghost_write_is_accepted(backend):
    def main(ctx):
        r = _region(ctx)
        ctx.fill(r, "x", 0.0)
        ctx.index_launch(_add_point, (1,), [(_ghost(ctx, r), "x", "rw")])
        return r

    rt = Runtime(num_shards=2, backend=backend)
    r = rt.execute(main)
    assert rt.store.raw(r, r.field_space["x"]).tolist() \
        == [0, 2, 2, 2, 2, 0, 0, 0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_axpy_of_an_array_with_itself_is_accepted(backend):
    """``rw`` and ``ro`` on the same data in one task is legal."""
    def main(ctx):
        lg = LegateContext(ctx, num_tiles=4)
        a = lg.from_values(np.arange(8.0))
        a.axpy(2.0, a)
        return a.to_numpy()

    got = Runtime(num_shards=2, backend=backend).execute(main)
    assert (got == 3.0 * np.arange(8.0)).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_each_replica_deletes_fields_in_its_own_program_order(backend,
                                                              tmp_path):
    """A launch (or a checkpoint) on a field that a later call deletes is
    legal on every shard, although the driver has deleted it by the time a
    replica launches."""
    def main(ctx):
        r = _region(ctx)
        ctx.fill(r, ["x", "y"], 0.0)
        ctx.launch(_touch_y, [(r, "y", "rw")])
        ctx.index_launch(_noop, range(2),
                         [(ctx.partition_equal(r, 2), "y", "ro")])
        save_region(ctx, r, str(tmp_path))
        ctx.delete_field(r, "y")
        ctx.launch(_touch, [(r, "x", "rw")])
        return r

    rt = Runtime(num_shards=2, backend=backend)
    r = rt.execute(main)
    assert "y" not in r.field_space
    assert (rt.store.raw(r, r.field_space["x"]) == 1.0).all()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.x.npy",
                                                           "r.y.npy"]


def _touch_y(arg):
    arg["y"].view[...] += 1


DELETIONS = ["delete_field_of_an_unknown_field", "a_field_deleted_twice",
             "delete_field_of_a_deleted_region", "a_region_deleted_twice"]


def _rejects_at_its_call(case, shards, backend):
    """Run one ill-formed case; the error must come from its call (or, for
    a trace left open, from the return), not from its legal setup."""
    reached = []

    def main(ctx):
        env = case.setup(ctx)
        reached.append(ctx.shard)
        case.call(ctx, env)
        reached.append("returned")

    with pytest.raises(case.error, match=case.match):
        Runtime(num_shards=shards, backend=backend).execute(main)
    # The driver runs first and raises: no replica gets as far.
    assert reached == ([0, "returned"] if case.at_return else [0])


@pytest.mark.parametrize("case", DELETIONS)
@pytest.mark.parametrize("shards,backend", [(1, "inprocess"), (2, "inprocess"),
                                            (2, "loopback")])
def test_an_ill_formed_deletion_raises_at_the_call(shards, backend, case):
    _rejects_at_its_call(ILL_FORMED[case], shards, backend)


@pytest.mark.parametrize("case", sorted(ILL_FORMED))
def test_each_ill_formed_case_raises_at_its_call(case):
    _rejects_at_its_call(ILL_FORMED[case], 2, "inprocess")


def test_every_rejection_here_is_an_ill_formed_case():
    """The fuzz tier draws its ill-formed calls from ``ILL_FORMED``: each
    rejection test of this module has its case there."""
    tests = [name[len("test_"):] for name in globals()
             if name.startswith("test_") and "rejected" in name]
    missing = [t for t in tests
               if not any(k == t or k.startswith(t + "[")
                          for k in ILL_FORMED)]
    assert len(tests) >= 12 and not missing, missing
