"""Physical storage and privilege-checked accessors."""

import numpy as np
import pytest

from repro.oracle import (READ_ONLY, READ_WRITE, RegionRequirement,
                          WRITE_DISCARD, reduce_priv)
from repro.regions import FieldSpace, IndexSpace, LogicalRegion
from repro.runtime.store import PrivilegeError, RegionStore


@pytest.fixture
def store_and_region():
    fs = FieldSpace([("a", "f8"), ("b", "i8")])
    region = LogicalRegion(IndexSpace.line(8), fs, name="r")
    store = RegionStore()
    store.allocate(region)
    return store, region, fs


class TestAllocation:
    def test_arrays_allocated_per_field(self, store_and_region):
        store, region, fs = store_and_region
        assert store.raw(region, fs["a"]).shape == (8,)
        assert store.raw(region, fs["b"]).dtype == np.dtype("i8")

    def test_allocate_requires_root(self, store_and_region):
        store, region, _fs = store_and_region
        part = region.partition_equal(2)
        with pytest.raises(ValueError):
            store.allocate(part[0])

    def test_allocate_requires_a_structural_key(self):
        """Storage is named by the root's structural key: two unnamed
        roots would share one array."""
        region = LogicalRegion(IndexSpace.line(4), FieldSpace([("a", "f8")]))
        with pytest.raises(TypeError, match="no structural key"):
            RegionStore().allocate(region)

    def test_late_field_allocation(self, store_and_region):
        store, region, fs = store_and_region
        c = region.field_space.add_field("c", "f4")
        store.allocate_field(region, c)
        assert store.has_field(region, c)

    def test_deallocation(self, store_and_region):
        store, region, fs = store_and_region
        store.deallocate_field(region, fs["a"])
        assert not store.has_field(region, fs["a"])

    def test_2d_offset_regions(self):
        fs = FieldSpace([("a", "f8")])
        from repro.regions import Rect
        space = IndexSpace(rect=Rect((2, 3), (5, 7)))
        region = LogicalRegion(space, fs, name="offset")
        store = RegionStore()
        store.allocate(region)
        assert store.raw(region, fs["a"]).shape == (4, 5)


class TestFill:
    def test_fill_root(self, store_and_region):
        store, region, fs = store_and_region
        store.fill(region, fs["a"], 2.5)
        assert (store.raw(region, fs["a"]) == 2.5).all()

    def test_fill_subregion(self, store_and_region):
        store, region, fs = store_and_region
        part = region.partition_equal(2)
        store.fill(part[1], fs["a"], 9.0)
        arr = store.raw(region, fs["a"])
        assert (arr[:4] == 0).all() and (arr[4:] == 9.0).all()

    def test_fill_unstructured(self, store_and_region):
        store, region, fs = store_and_region
        part = region.partition_by_spaces(
            {0: IndexSpace(points=[(1,), (6,)])})
        store.fill(part[0], fs["a"], 3.0)
        arr = store.raw(region, fs["a"])
        assert arr[1] == 3.0 and arr[6] == 3.0 and arr[0] == 0.0


class TestAccessors:
    def test_rw_view_writes_through(self, store_and_region):
        store, region, fs = store_and_region
        part = region.partition_equal(2)
        req = RegionRequirement(part[0], fs["a"], READ_WRITE)
        acc = store.accessor(req, fs["a"])
        acc.view[...] = 7.0
        assert (store.raw(region, fs["a"])[:4] == 7.0).all()

    def test_ro_view_is_frozen(self, store_and_region):
        store, region, fs = store_and_region
        req = RegionRequirement(region, fs["a"], READ_ONLY)
        acc = store.accessor(req, fs["a"])
        for _ in range(2):      # the slice is cached after the first view
            with pytest.raises((ValueError, RuntimeError)):
                acc.view[...] = 1.0
        assert store.raw(region, fs["a"]).flags.writeable

    def test_point_access_bounds_checked(self, store_and_region):
        store, region, fs = store_and_region
        part = region.partition_equal(2)
        req = RegionRequirement(part[0], fs["a"], READ_WRITE)
        acc = store.accessor(req, fs["a"])
        acc[2] = 5.0
        assert acc[2] == 5.0
        with pytest.raises(PrivilegeError):
            acc[6] = 1.0      # outside part[0]

    def test_write_denied_for_readers(self, store_and_region):
        store, region, fs = store_and_region
        req = RegionRequirement(region, fs["a"], READ_ONLY)
        acc = store.accessor(req, fs["a"])
        with pytest.raises(PrivilegeError):
            acc[0] = 1.0

    def test_unnamed_field_rejected(self, store_and_region):
        store, region, fs = store_and_region
        req = RegionRequirement(region, fs["a"], READ_ONLY)
        with pytest.raises(PrivilegeError):
            store.accessor(req, fs["b"])

    def test_reduce_operators(self, store_and_region):
        store, region, fs = store_and_region
        store.fill(region, fs["a"], 2.0)
        for op, expected in [("+", 5.0), ("*", 6.0), ("min", 2.0),
                             ("max", 3.0)]:
            store.fill(region, fs["a"], 2.0)
            req = RegionRequirement(region, fs["a"], reduce_priv(op))
            acc = store.accessor(req, fs["a"])
            acc.reduce(0, 3.0)
            assert store.raw(region, fs["a"])[0] == expected, op

    def test_reduce_requires_reduce_privilege(self, store_and_region):
        store, region, fs = store_and_region
        req = RegionRequirement(region, fs["a"], READ_WRITE)
        acc = store.accessor(req, fs["a"])
        with pytest.raises(PrivilegeError):
            acc.reduce(0, 1.0)

    def test_gather_scatter(self, store_and_region):
        store, region, fs = store_and_region
        part = region.partition_by_spaces(
            {0: IndexSpace(points=[(1,), (3,), (5,)])})
        req = RegionRequirement(part[0], fs["a"], READ_WRITE)
        acc = store.accessor(req, fs["a"])
        acc.scatter([10.0, 20.0, 30.0])
        assert list(acc.gather()) == [10.0, 20.0, 30.0]
        raw = store.raw(region, fs["a"])
        assert raw[1] == 10.0 and raw[3] == 20.0 and raw[5] == 30.0


class TestRegionArgMemo:
    """A point requirement's region argument builds each field's accessor
    once; the accessor reads its array from the store at each use."""

    def test_accessor_and_slice_are_reused(self, store_and_region):
        from repro.runtime.runtime import RegionArg

        store, region, fs = store_and_region
        req = RegionRequirement(region.partition_equal(2)[1], fs["a"],
                                READ_WRITE)
        arg = RegionArg(store, req)
        acc = arg["a"]
        acc.view[...] = 4.0
        assert arg["a"] is acc
        assert list(store.raw(region, fs["a"])) == [0.0] * 4 + \
            [4.0] * 4

    def test_reallocated_field_is_not_served_stale(self, store_and_region):
        from repro.runtime.runtime import RegionArg

        store, region, fs = store_and_region
        arg = RegionArg(store, RegionRequirement(region, fs["a"], READ_WRITE))
        arg["a"].view[...] = 1.0
        store.deallocate_field(region, fs["a"])
        with pytest.raises(KeyError):
            arg["a"].view
        store.allocate_field(region, fs["a"])
        arg["a"].view[...] = 2.0
        assert (store.raw(region, fs["a"]) == 2.0).all()
