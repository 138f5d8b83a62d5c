"""Index spaces: named sets of points that name the rows of regions.

An :class:`IndexSpace` is the Legion abstraction for "a set of points".
Structured index spaces are dense rectangles; unstructured ones are explicit
point sets (used e.g. by the circuit app, whose graph partitioning is
irregular).  Index spaces are value objects with a stable identity so that
the dependence analysis can memoize intersection queries between them.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence

from .point import Point, Rect

__all__ = ["IndexSpace"]

_ids = itertools.count()


class IndexSpace:
    """A named set of n-dimensional integer points.

    Two representations are supported:

    * *structured*: a dense :class:`Rect` (the common case; O(1) storage and
      intersection tests);
    * *unstructured*: an explicit frozenset of points.

    Index spaces compare by identity (`uid`), mirroring Legion where each
    `ispace` creation returns a fresh handle even for equal bounds.
    """

    __slots__ = ("uid", "name", "_rect", "_points", "_pset", "structural_key",
                 "structural_bytes")

    def __init__(
        self,
        rect: Optional[Rect] = None,
        points: Optional[Iterable[Point]] = None,
        name: str = "",
    ):
        if (rect is None) == (points is None):
            raise ValueError("provide exactly one of rect= or points=")
        self.uid = next(_ids)
        self.name = name or f"ispace{self.uid}"
        self.structural_key = self.structural_bytes = None
        self._rect = rect
        self._points: Optional[FrozenSet[Point]] = (
            frozenset(points) if points is not None else None
        )
        self._pset: Optional[FrozenSet[Point]] = self._points
        if self._points is not None:
            dims = {len(p) for p in self._points}
            if len(dims) > 1:
                raise ValueError("all points must share dimensionality")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_extent(cls, *extents: int, name: str = "") -> "IndexSpace":
        """Dense 0-based index space with the given per-dimension extents."""
        if not extents:
            raise ValueError("at least one extent required")
        return cls(
            rect=Rect(tuple(0 for _ in extents), tuple(e - 1 for e in extents)),
            name=name,
        )

    @classmethod
    def line(cls, n: int, name: str = "") -> "IndexSpace":
        """1-D index space of ``n`` points 0..n-1."""
        return cls.from_extent(n, name=name)

    # -- queries --------------------------------------------------------------

    @property
    def structured(self) -> bool:
        return self._rect is not None

    @property
    def rect(self) -> Rect:
        if self._rect is None:
            raise ValueError(f"{self.name} is unstructured")
        return self._rect

    @property
    def dim(self) -> int:
        if self._rect is not None:
            return self._rect.dim
        if not self._points:
            return 0
        return len(next(iter(self._points)))

    @property
    def volume(self) -> int:
        if self._rect is not None:
            return self._rect.volume
        return len(self._points or ())

    @property
    def empty(self) -> bool:
        return self.volume == 0

    def bounds(self) -> Rect:
        """Tight bounding rectangle of the point set."""
        if self._rect is not None:
            return self._rect
        pts = self._points or frozenset()
        if not pts:
            return Rect((0,), (-1,))
        dim = len(next(iter(pts)))
        lo = tuple(min(p[d] for p in pts) for d in range(dim))
        hi = tuple(max(p[d] for p in pts) for d in range(dim))
        return Rect(lo, hi)

    def contains(self, point: Sequence[int] | int) -> bool:
        if self._rect is not None:
            return self._rect.contains(point)
        p = (point,) if isinstance(point, int) else tuple(point)
        return p in (self._points or frozenset())

    def point_set(self) -> FrozenSet[Point]:
        """The explicit point set, materialized once and cached.

        Index spaces are immutable, so the materialization (expensive for
        big rects) is safe to keep for the life of the space.
        """
        if self._pset is None:
            self._pset = frozenset(self._rect)  # type: ignore[arg-type]
        return self._pset

    def intersects(self, other: "IndexSpace") -> bool:
        """True when the two index spaces share at least one point."""
        if self.empty or other.empty:
            return False
        if self.dim != other.dim:
            return False
        if self.structured and other.structured:
            return self.rect.overlaps(other.rect)
        # Mixed / unstructured: bounding-box reject then exact check.
        if not self.bounds().overlaps(other.bounds()):
            return False
        small, large = sorted((self, other), key=lambda s: s.volume)
        return any(large.contains(p) for p in small.point_set())

    # -- set algebra -----------------------------------------------------------

    def union(self, other: "IndexSpace", name: str = "") -> "IndexSpace":
        """A new index space holding every point of either operand."""
        self._check_dim(other)
        return IndexSpace(points=self.point_set() | other.point_set(),
                          name=name or f"{self.name}|{other.name}")

    def intersection_space(self, other: "IndexSpace",
                           name: str = "") -> "IndexSpace":
        """A new index space holding the points common to both operands."""
        self._check_dim(other)
        if self.structured and other.structured:
            inter = self.rect.intersection(other.rect)
            if not inter.empty:
                return IndexSpace(rect=inter,
                                  name=name or f"{self.name}&{other.name}")
            return IndexSpace(points=[],
                              name=name or f"{self.name}&{other.name}")
        return IndexSpace(points=self.point_set() & other.point_set(),
                          name=name or f"{self.name}&{other.name}")

    def difference(self, other: "IndexSpace", name: str = "") -> "IndexSpace":
        """A new index space holding this space's points not in ``other``.

        The core of Legion's dependent-partitioning difference operator —
        e.g. ``interior = owned - boundary``.
        """
        self._check_dim(other)
        return IndexSpace(points=self.point_set() - other.point_set(),
                          name=name or f"{self.name}-{other.name}")

    def _check_dim(self, other: "IndexSpace") -> None:
        if not (self.empty or other.empty) and self.dim != other.dim:
            raise ValueError("set algebra requires equal dimensionality")

    def __iter__(self) -> Iterator[Point]:
        if self._rect is not None:
            return iter(self._rect)
        return iter(sorted(self._points or ()))

    def __len__(self) -> int:
        return self.volume

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IndexSpace) and other.uid == self.uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._rect is not None:
            return f"IndexSpace({self.name}, rect={self._rect})"
        return f"IndexSpace({self.name}, |points|={len(self._points or ())})"
