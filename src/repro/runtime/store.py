"""Physical storage for region fields.

Each (region tree, field) is backed by one NumPy array spanning the root
index space's bounding rectangle.  Subregions are accessed through
privilege-checked :class:`FieldAccessor` views: structured subregions get
zero-copy slices, unstructured ones get gather/scatter access by point list.

The functional runtime executes synchronously, so a single array per field
is the authoritative copy; per-node instances and data movement are a
performance concern handled by the simulator layer (DESIGN.md §2).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..oracle import Privilege, RegionRequirement
from ..regions import Field, LogicalRegion

__all__ = ["RegionStore", "FieldAccessor", "PrivilegeError"]


class PrivilegeError(RuntimeError):
    """A task touched a field in a way its privileges do not allow."""


class RegionStore:
    """Root-region-wide arrays for every allocated field."""

    def __init__(self) -> None:
        self._arrays: Dict[Tuple[int, int], np.ndarray] = {}
        self._offsets: Dict[int, Tuple[int, ...]] = {}

    def allocate(self, root: LogicalRegion) -> None:
        """Allocate backing arrays for every field of a root region."""
        if not root.is_root:
            raise ValueError("allocate on the root region only")
        bounds = root.index_space.bounds()
        self._offsets[root.tree_id] = bounds.lo
        for f in root.field_space.fields:
            key = (root.tree_id, f.fid)
            if key not in self._arrays:
                self._arrays[key] = np.zeros(bounds.extents, dtype=f.dtype)

    def allocate_field(self, root: LogicalRegion, f: Field) -> None:
        """Allocate one late-added field."""
        bounds = root.index_space.bounds()
        self._arrays.setdefault((root.tree_id, f.fid),
                                np.zeros(bounds.extents, dtype=f.dtype))

    def deallocate_field(self, tree_id: int, f: Field) -> None:
        """Drop one field's backing array."""
        self._arrays.pop((tree_id, f.fid), None)

    def raw(self, tree_id: int, f: Field) -> np.ndarray:
        """The root-wide backing array of one field (authoritative copy)."""
        return self._arrays[(tree_id, f.fid)]

    def has_field(self, tree_id: int, f: Field) -> bool:
        """Whether the field's backing array is currently allocated."""
        return (tree_id, f.fid) in self._arrays

    def fill(self, region: LogicalRegion, f: Field, value) -> None:
        """Set one field to ``value`` over a (sub)region."""
        arr = self._arrays[(region.tree_id, f.fid)]
        off = self._offsets[region.tree_id]
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
        arr = self._arrays[(req.region.tree_id, f.fid)]
        return FieldAccessor(arr, self._offsets[req.region.tree_id],
                             req.region, f, req.privilege)


class FieldAccessor:
    """Privilege-checked access to one field over one region."""

    def __init__(self, array: np.ndarray, offset: Tuple[int, ...],
                 region: LogicalRegion, field: Field, privilege: Privilege):
        self._array = array
        self._offset = offset
        self.region = region
        self.field = field
        self.privilege = privilege

    # -- structured fast path ---------------------------------------------------

    @property
    def view(self) -> np.ndarray:
        """Zero-copy NumPy view over a structured subregion.

        Read-only privileges return a non-writeable view, so accidental
        writes raise immediately.
        """
        rect = self.region.index_space.rect   # raises if unstructured
        sl = tuple(slice(l - o, h - o + 1)
                   for l, h, o in zip(rect.lo, rect.hi, self._offset))
        v = self._array[sl]
        if not self.privilege.writes and not self.privilege.is_reduce:
            v = v.view()
            v.flags.writeable = False
        return v

    # -- generic point access ------------------------------------------------------

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
