"""Every shard builds its own handles.

A replica takes from the driver only what it cannot compute itself — a
launch's value and a field's data — and looks both up by structural name.
Its index spaces, field spaces, regions, partitions, futures and future
maps are its own objects, keyed as the driver's are.
"""

from unittest import mock

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.legate import LegateContext
from repro.runtime import Future, FutureMap, Runtime
from repro.runtime.store import RegionStore

WIDTHS = [(n, backend) for backend in ("inprocess", "loopback")
          for n in (1, 2, 4)]


def _value(_point, arg):
    return float(arg["x"].view.sum())


def _every_handle(ctx, handles):
    """Each create_* and partition_* call, a launch, an index launch, its
    point futures and a field deletion; keeps every handle the shard got."""
    fs = ctx.create_field_space([("x", "f8"), ("y", "f8")], "fs")
    line = ctx.create_index_space(8, "line")
    grid = ctx.create_index_space((4, 4), "grid")
    r = ctx.create_region(line, fs, "r")
    g = ctx.create_region(grid, fs, "g")
    equal = ctx.partition_equal(r, 2, name="equal")
    tiles = ctx.partition_tiles(g, (2, 2), name="tiles")
    ghost = ctx.partition_ghost(r, equal, 1, name="ghost")
    by_field = ctx.partition_by_field(r, [0, 1], lambda p: p[0] % 2,
                                      name="by_field")
    image = ctx.partition_by_image(r, equal, lambda p: [(p[0] + 1) % 8],
                                   name="image")
    preimage = ctx.partition_by_preimage(r, equal, lambda p: [p],
                                         name="preimage")
    points = ctx.partition_by_points(r, {0: [0, 1], 1: [4, 5]},
                                     name="points")
    rects = ctx.partition_rects(r, [((0,), (3,)), ((4,), (7,))],
                                name="rects")
    ctx.fill(r, "x", 1.0)
    one = ctx.launch(lambda a: float(a["x"].view.sum()), [(r, "x", "ro")])
    fm = ctx.index_launch(_value, range(2), [(equal, "x", "ro")])
    point_futures = [fm[p] for p in range(2)]
    ctx.get_value(one)
    ctx.delete_field(r, "y")
    parts = [equal, tiles, ghost, by_field, image, preimage, points, rects]
    handles[ctx.shard] = ([fs, line, grid, r, g] + parts
                          + [sub for part in parts for sub in part]
                          + [one, fm] + point_futures)
    return "y" in fs


@pytest.mark.parametrize("shards,backend", WIDTHS)
def test_no_handle_is_shared_and_the_keys_agree(shards, backend):
    handles = {}
    rt = Runtime(num_shards=shards, backend=backend)
    assert rt.execute(_every_handle, handles) is False
    assert sorted(handles) == list(range(shards))
    owner = {}
    for shard, objs in handles.items():
        for obj in objs:
            assert owner.setdefault(id(obj), shard) == shard, (
                f"{obj!r} is held by shards {owner[id(obj)]} and {shard}")
    keys = [[obj.structural_key for obj in handles[s]] for s in handles]
    assert None not in keys[0]
    assert all(k == keys[0] for k in keys)
    # every shard removed the deleted field from its own field space
    assert all("y" not in objs[0] for objs in handles.values())


def test_every_shard_reads_the_drivers_array_through_its_own_handle():
    """`to_numpy` on each shard reads the one array the driver allocated,
    found by the root's structural key and the field's name."""
    reads = []
    raw = RegionStore.raw

    def recording_raw(self, region, f):
        array = raw(self, region, f)
        reads.append((region, array))
        return array

    def program(ctx):
        lg = LegateContext(ctx, 2)
        a = lg.from_values(np.arange(8.0), "a")
        return (a * 2.0).to_numpy()

    with mock.patch.object(RegionStore, "raw", recording_raw):
        out = Runtime(num_shards=2).execute(program)
    assert np.array_equal(out, np.arange(8.0) * 2.0)
    (driver, array), (replica, same) = reads
    assert driver is not replica
    assert driver.structural_key == replica.structural_key
    assert same is array


# -- a kernel that raises ------------------------------------------------------

def _fail(_arg):
    raise ValueError("kernel failed")


def _one(_arg):
    return 1.0


def _raise_then_read(ctx, seen):
    """A raising launch, then one returning 1.0; the error is caught at
    the first read and the second still reads its value."""
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(4), fs, "r")
    ctx.fill(r, "x", 1.0)
    bad = ctx.launch(_fail, [(r, "x", "ro")])
    good = ctx.launch(_one, [(r, "x", "ro")])
    try:
        caught = ctx.get_value(bad)
    except ValueError as exc:
        caught = f"{type(exc).__name__}({exc})"
    seen[ctx.shard] = (caught, ctx.get_value(good))
    return seen[ctx.shard]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_a_raising_kernel_loses_no_other_launch(shards):
    digests = []
    for backend in ("inprocess", "loopback"):
        seen = {}
        rt = Runtime(num_shards=shards, backend=backend)
        assert rt.execute(_raise_then_read, seen) == \
            ("ValueError(kernel failed)", 1.0)
        assert seen == {s: ("ValueError(kernel failed)", 1.0)
                        for s in range(shards)}
        digests.append(rt.determinism_digests())
    assert digests[0] == digests[1]
    assert len(set(digests[0])) == 1


@pytest.mark.parametrize("backend", ["shm", "tcp"])
def test_a_raising_kernel_is_caught_alike_by_forked_replicas(backend):
    rt = Runtime(num_shards=2, backend=backend)
    assert rt.execute(_raise_then_read, {}) == \
        ("ValueError(kernel failed)", 1.0)
    reference = Runtime(num_shards=2)
    reference.execute(_raise_then_read, {})
    assert rt.determinism_digests() == reference.determinism_digests()


def _read_first_only(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(4), fs, "r")
    good = ctx.launch(_one, [(r, "x", "ro")])
    ctx.launch(_fail, [(r, "x", "ro")])
    return ctx.get_value(good)


@pytest.mark.parametrize("backend", ["inprocess", "loopback"])
def test_a_kernel_error_no_future_reads_ends_the_execute(backend):
    """Reading an earlier launch runs the queue past it, and the later
    launch's kernel raises there: the run raises the error, so one no
    future reads is not lost."""
    with pytest.raises(ValueError, match="kernel failed"):
        Runtime(num_shards=2, backend=backend).execute(_read_first_only)


def _fail_at_1(point, _arg):
    if point == 1:
        raise ValueError("point 1 failed")
    return float(point)


def _two_groups(ctx, seen):
    """Two independent group launches; a point of the first raises."""
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(8), fs, "r")
    s = ctx.create_region(ctx.create_index_space(8), fs, "s")
    bad = ctx.index_launch(_fail_at_1, range(4),
                           [(ctx.partition_equal(r, 4), "x", "ro")])
    other = ctx.index_launch(_value, range(4),
                             [(ctx.partition_equal(s, 4), "x", "ro")])
    outcome = []
    for fm in (bad, other):
        try:
            outcome.append(fm.get_all())
        except ValueError as exc:
            outcome.append(str(exc))
    seen[ctx.shard] = outcome


def test_a_launch_partly_run_when_a_kernel_raised_holds_the_error():
    """Under a seeded random order the second launch's points may run
    before, around or after the failing point: all of them ran (its
    values), some (the error) or none (it runs at the next drain)."""
    outcomes = set()
    for seed in range(24):
        seen = {}
        injector = FaultInjector(FaultPlan(seed=seed, reorder=True))
        Runtime(num_shards=2, injector=injector).execute(_two_groups, seen)
        assert seen[0] == seen[1]
        bad, other = seen[0]
        assert bad == "point 1 failed"
        outcomes.add(repr(other))
    assert outcomes == {"'point 1 failed'",
                        repr({p: 0.0 for p in range(4)})}


def test_a_future_reads_its_value_by_name():
    values = {}
    fm = FutureMap(3, values)
    with pytest.raises(RuntimeError, match="before its producing task"):
        fm.get_all()
    values[3] = {0: 1.0, 1: 2.0}
    assert fm[1].structural_key == (3, 1) and fm[1].get() == 2.0
    assert Future(3, values).is_ready()
