"""Ill-formed control-program calls are rejected at the call that makes
them, with a typed error, on the in-process and the loopback backend alike
— not accepted, and not failing deep inside the runtime."""

import pytest

from repro.runtime import Runtime

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
    assert (rt.store.raw(r.tree_id, r.field_space["x"]) == 3.0).all()


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
