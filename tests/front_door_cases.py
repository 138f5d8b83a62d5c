"""Ill-formed control-program calls, one per rejection case of
``tests/runtime/test_front_door.py``.

Each case is a legal ``setup`` and then the one ``call`` the front door
must reject, with the error type and message it must raise.  The front
door tests run every case as written; the fuzz tier inserts one into a
random deferred-array program (``tests/fuzz/test_front_door_fuzz.py``).
Region and task names here do not collide with the array frontend's.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.runtime import Runtime

__all__ = ["IllFormed", "ILL_FORMED", "USES", "region", "noop", "touch",
           "ghost", "foreign"]


@dataclass(frozen=True)
class IllFormed:
    setup: Callable[[Any], Any]          # legal calls; returns what call uses
    call: Callable[[Any, Any], Any]      # the one ill-formed call
    error: type
    match: str
    # Raised when the control program returns, not at the call itself.
    at_return: bool = False


def region(ctx):
    fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
    return ctx.create_region(ctx.create_index_space(8), fs, "r")


def noop(*_args):
    """A body that touches no data, so only the front door can object."""


def touch(arg):
    arg["x"].view[...] += 1


def ghost(ctx, r):
    """Four overlapping pieces: each tile of two cells plus a neighbour."""
    return ctx.partition_ghost(r, ctx.partition_equal(r, 4), 1)


def foreign():
    """A region, and a partition of it, that another runtime created."""
    def main(ctx):
        r = region(ctx)
        return r, ctx.partition_equal(r, 2)

    return Runtime(num_shards=1).execute(main)


#: Every call that names a region, as ``use(ctx, region, partition)``.
USES = {
    "launch": lambda ctx, r, p: ctx.launch(noop, [(r, "x", "rw")]),
    "index_launch": lambda ctx, r, p: ctx.index_launch(
        noop, (0, 1), [(p, "x", "rw")]),
    "fill": lambda ctx, r, p: ctx.fill(r, "x", 1.0),
    "partition_equal": lambda ctx, r, p: ctx.partition_equal(r, 4),
    "partition_ghost": lambda ctx, r, p: ctx.partition_ghost(r, p, 1),
}


def _deleted(ctx):
    r = region(ctx)
    p = ctx.partition_equal(r, 2)
    ctx.launch(noop, [(r, "x", "rw")])       # lowered while still live
    ctx.delete_region(r)
    return r, p


def _without_y(ctx):
    r = region(ctx)
    ctx.delete_field(r, "y")
    return r


def _tiles_and_ghost(ctx):
    r = region(ctx)
    return ctx.partition_equal(r, 4), ghost(ctx, r)


def _futures(ctx):
    r = region(ctx)
    return ctx.index_launch(lambda point, arg: point, range(2),
                            [(ctx.partition_equal(r, 2), "x", "ro")])


ILL_FORMED: Dict[str, IllFormed] = {
    "end_trace_without_an_open_trace_is_rejected": IllFormed(
        region, lambda ctx, r: ctx.end_trace(), ValueError, "no trace open"),
    "a_trace_left_open_at_return_is_rejected": IllFormed(
        region, lambda ctx, r: ctx.begin_trace(7), ValueError,
        "trace 7 still open", at_return=True),
    "unknown_field_in_launch_is_rejected": IllFormed(
        region, lambda ctx, r: ctx.launch(noop, [(r, "z", "rw")]),
        ValueError, "r has no field 'z'"),
    "deleted_field_in_fill_is_rejected": IllFormed(
        _without_y, lambda ctx, r: ctx.fill(r, "y", 1.0), ValueError,
        "r has no field 'y'"),
    "non_string_privilege_spec_is_rejected": IllFormed(
        region, lambda ctx, r: ctx.launch(noop, [(r, "x", 3)]), TypeError,
        "privilege spec 3"),
    "get_value_of_a_non_future_is_rejected": IllFormed(
        _futures, lambda ctx, fm: ctx.get_value(fm), TypeError,
        "get_value takes a Future"),
    "an_interfering_group_launch_is_rejected": IllFormed(
        lambda ctx: ghost(ctx, region(ctx)),
        lambda ctx, g: ctx.index_launch(noop, range(4), [(g, "x", "rw")]),
        ValueError, r"index_launch of noop: points 0 and 1 interfere"),
    "a_group_writing_what_another_point_reads_is_rejected": IllFormed(
        _tiles_and_ghost,
        lambda ctx, tg: ctx.index_launch(
            noop, range(4), [(tg[0], "x", "rw"), (tg[1], "x", "ro")]),
        ValueError, "interfere through requirements"),
    "two_writers_in_one_point_are_rejected": IllFormed(
        _tiles_and_ghost,
        lambda ctx, tg: ctx.index_launch(
            noop, range(4), [(tg[0], "x", "rw"), (tg[1], "x", "wd")]),
        ValueError, r"index_launch of noop at point 0: requirements 0 and 1 "
                    r"both write"),
    # Deletions go through the front door as well.
    "delete_field_of_an_unknown_field": IllFormed(
        region, lambda ctx, r: ctx.delete_field(r, "z"), ValueError,
        r"r has no field 'z' \(its fields: x, y\)"),
    "a_field_deleted_twice": IllFormed(
        _without_y, lambda ctx, r: ctx.delete_field(r, "y"), ValueError,
        r"r has no field 'y' \(its fields: x\)"),
    "delete_field_of_a_deleted_region": IllFormed(
        _deleted, lambda ctx, rp: ctx.delete_field(rp[0], "x"), ValueError,
        "delete_field on region r, which this runtime has deleted"),
    "a_region_deleted_twice": IllFormed(
        _deleted, lambda ctx, rp: ctx.delete_region(rp[0]), ValueError,
        "delete_region on region r, which this runtime has deleted"),
}
for _spec in ("rw", "wd", "red<*>"):
    ILL_FORMED[f"two_writers_in_one_task_are_rejected[{_spec}]"] = IllFormed(
        region, lambda ctx, r, spec=_spec: ctx.launch(
            noop, [(r, "x", "red<+>"), (r, ["x", "y"], spec)]),
        ValueError, r"launch: requirements 0 and 1 both write field\(s\) x "
                    r"of r")
for _use, _fn in USES.items():
    ILL_FORMED[f"a_deleted_region_is_rejected_at_the_call[{_use}]"] = \
        IllFormed(_deleted, lambda ctx, rp, fn=_fn: fn(ctx, *rp), ValueError,
                  f"{_use} on region r, which this runtime has deleted")
    ILL_FORMED[f"a_foreign_region_is_rejected_at_the_call[{_use}]"] = \
        IllFormed(lambda ctx: (region(ctx), foreign())[1],
                  lambda ctx, rp, fn=_fn: fn(ctx, *rp), ValueError,
                  f"{_use} on region r, which another runtime created")
