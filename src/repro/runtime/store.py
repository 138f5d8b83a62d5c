"""Physical storage for region fields.

Each (region tree, field) is backed by one NumPy array spanning the root
index space's bounding rectangle, named by the root's structural key and
the field's name, so every shard's own handle finds the driver's array
(a root without a structural key is refused).  Subregions are accessed
through privilege-checked :class:`FieldAccessor` views: structured
subregions get zero-copy slices, unstructured ones get gather/scatter
access by point list.

The functional runtime runs every point task on the driver, from its
dependence-ordered queue, so a single array per field is the
authoritative copy; per-node instances and data movement are a
performance concern handled by the simulator layer (DESIGN.md §2).
Control code reads a field through :meth:`RegionStore.raw`, which first
runs the points still queued (``before_read``).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from ..oracle import Privilege, RegionRequirement
from ..regions import Field, LogicalRegion

__all__ = ["RegionStore", "FieldAccessor", "PrivilegeError"]


class PrivilegeError(RuntimeError):
    """A task touched a field in a way its privileges do not allow."""


def _key(region: LogicalRegion, f: Field) -> Tuple[Hashable, str]:
    return region.root().structural_key, f.name


class RegionStore:
    """Root-region-wide arrays for every allocated field."""

    def __init__(self) -> None:
        self._arrays: Dict[Tuple[Hashable, str], np.ndarray] = {}
        self._offsets: Dict[Hashable, Tuple[int, ...]] = {}
        # Run by raw() before it hands an array to control code; the owning
        # runtime sets it to the queue's drain.
        self.before_read: Callable[[], None] = lambda: None

    def allocate(self, root: LogicalRegion) -> None:
        """Allocate backing arrays for every field of a root region."""
        if not root.is_root:
            raise ValueError("allocate on the root region only")
        if root.structural_key is None:
            raise TypeError(f"{root!r} has no structural key")
        bounds = root.index_space.bounds()
        self._offsets[root.structural_key] = bounds.lo
        for f in root.field_space.fields:
            key = _key(root, f)
            if key not in self._arrays:
                self._arrays[key] = np.zeros(bounds.extents, dtype=f.dtype)

    def allocate_field(self, root: LogicalRegion, f: Field) -> None:
        """Allocate one late-added field."""
        bounds = root.index_space.bounds()
        self._arrays.setdefault(_key(root, f),
                                np.zeros(bounds.extents, dtype=f.dtype))

    def deallocate_field(self, region: LogicalRegion, f: Field) -> None:
        """Drop one field's backing array."""
        self._arrays.pop(_key(region, f), None)

    def raw(self, region: LogicalRegion, f: Field) -> np.ndarray:
        """The root-wide backing array of one field (authoritative copy),
        once every queued point has run."""
        self.before_read()
        return self._arrays[_key(region, f)]

    def has_field(self, region: LogicalRegion, f: Field) -> bool:
        """Whether the field's backing array is currently allocated."""
        return _key(region, f) in self._arrays

    def fill(self, region: LogicalRegion, f: Field, value) -> None:
        """Set one field to ``value`` over a (sub)region."""
        key = _key(region, f)
        arr, off = self._arrays[key], self._offsets[key[0]]
        if region.index_space.structured:
            rect = region.index_space.rect
            sl = tuple(slice(l - o, h - o + 1)
                       for l, h, o in zip(rect.lo, rect.hi, off))
            arr[sl] = value
        else:
            for p in region.index_space:
                arr[tuple(c - o for c, o in zip(p, off))] = value

    def accessor(self, req: RegionRequirement, f: Field) -> "FieldAccessor":
        """A privilege-checked accessor for one requirement's field."""
        if f not in req.fields:
            raise PrivilegeError(
                f"field {f.name} not named by the region requirement")
        key = _key(req.region, f)
        if key not in self._arrays:
            raise KeyError(f"field {f.name} of {req.region.name} is not "
                           f"allocated")
        return FieldAccessor(self._arrays, self._offsets[key[0]],
                             req.region, f, req.privilege)


class FieldAccessor:
    """Privilege-checked access to one field over one region."""

    def __init__(self, arrays: Dict[Tuple[Hashable, str], np.ndarray],
                 offset: Tuple[int, ...], region: LogicalRegion,
                 field: Field, privilege: Privilege):
        # The store's arrays and this field's key in them: the array is
        # looked up at each use, so a kept accessor never pins a deleted
        # field's storage and always reaches a reallocated one.
        self._arrays = arrays
        self._key = _key(region, field)
        self._offset = offset
        self.region = region
        self.field = field
        self.privilege = privilege
        self._read_only = not privilege.writes and not privilege.is_reduce
        self._slice: Optional[Tuple[slice, ...]] = None

    # -- structured fast path ---------------------------------------------------

    @property
    def view(self) -> np.ndarray:
        """Zero-copy NumPy view over a structured subregion (its slice is
        computed from the rect once per accessor).

        Read-only privileges return a non-writeable view, so accidental
        writes raise immediately.
        """
        sl = self._slice
        if sl is None:
            rect = self.region.index_space.rect   # raises if unstructured
            sl = self._slice = tuple(
                slice(l - o, h - o + 1)
                for l, h, o in zip(rect.lo, rect.hi, self._offset))
        v = self._arrays[self._key][sl]   # a new view, even of the whole
        if self._read_only:
            v.flags.writeable = False
        return v

    # -- generic point access ------------------------------------------------------

    @property
    def _array(self) -> np.ndarray:
        return self._arrays[self._key]

    def _index(self, point) -> Tuple[int, ...]:
        p = (point,) if isinstance(point, int) else tuple(point)
        if not self.region.index_space.contains(p):
            raise PrivilegeError(
                f"point {p} outside region {self.region.name}")
        return tuple(c - o for c, o in zip(p, self._offset))

    def __getitem__(self, point):
        if not (self.privilege.reads or self.privilege.writes):
            raise PrivilegeError(
                f"{self.privilege!r} does not allow reading {self.field.name}")
        return self._array[self._index(point)]

    def __setitem__(self, point, value) -> None:
        if not self.privilege.writes:
            raise PrivilegeError(
                f"{self.privilege!r} does not allow writing {self.field.name}")
        self._array[self._index(point)] = value

    def reduce(self, point, value) -> None:
        """Apply the privilege's reduction operator at ``point``."""
        if not self.privilege.is_reduce:
            raise PrivilegeError("reduce() requires a REDUCE privilege")
        idx = self._index(point)
        op = self.privilege.redop
        if op == "+":
            self._array[idx] += value
        elif op == "*":
            self._array[idx] *= value
        elif op == "min":
            self._array[idx] = min(self._array[idx], value)
        elif op == "max":
            self._array[idx] = max(self._array[idx], value)
        else:
            raise PrivilegeError(f"unknown reduction operator {op!r}")

    def gather(self) -> np.ndarray:
        """Values over the region's points, in sorted point order (copy)."""
        pts = sorted(self.region.index_space.point_set())
        return np.array([self._array[tuple(c - o for c, o in
                                           zip(p, self._offset))]
                         for p in pts])

    def scatter(self, values) -> None:
        """Write values over the region's points in sorted point order."""
        if not self.privilege.writes:
            raise PrivilegeError("scatter requires a writing privilege")
        pts = sorted(self.region.index_space.point_set())
        for p, v in zip(pts, values):
            self._array[tuple(c - o for c, o in zip(p, self._offset))] = v
