"""Logical regions and partitions: Legion's hierarchical data model.

A :class:`LogicalRegion` is a table (index space x field space).  Regions can
be *partitioned* into subregions, which can themselves be partitioned, so
programs build *region trees* by recursively partitioning a root region.  The
key structural property used throughout the dependence analysis (paper §4) is
that **any region in the tree is a superset of every region in its subtree**,
so a partition is a sound upper bound for the set of subregions a group task
launch touches.

Partitions carry two symbolic properties the analysis exploits:

* *disjoint* — no two subregions share a point (e.g. a tiling); aliased
  partitions (e.g. ghost partitions) may overlap.
* *complete* — the subregions cover the parent exactly.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from .field_space import FieldSpace
from .index_space import IndexSpace
from .point import Rect

__all__ = ["LogicalRegion", "Partition"]

_region_ids = itertools.count()
_partition_ids = itertools.count()


class LogicalRegion:
    """A node of a region tree: an index space crossed with a field space.

    ``parent`` is the partition this region is a subregion of (``None`` for
    the root).  ``tree_id`` identifies the whole tree; regions in different
    trees never alias.  ``structural_key`` names it by how the program
    built it: a root by its given name (a ``Context``'s by its creating
    call), a subregion by (partition key, colour); ``uid`` is in-process
    identity only.
    """

    __slots__ = ("uid", "name", "index_space", "field_space", "parent",
                 "partitions", "tree_id", "depth", "structural_key",
                 "structural_bytes")

    def __init__(
        self,
        index_space: IndexSpace,
        field_space: FieldSpace,
        name: str = "",
        parent: Optional["Partition"] = None,
    ):
        self.uid = next(_region_ids)
        self.name = name or f"region{self.uid}"
        self.index_space = index_space
        self.field_space = field_space
        self.parent = parent
        self.partitions: List["Partition"] = []
        self.structural_key = (name or None) if parent is None else None
        self.structural_bytes = None
        if parent is None:
            self.tree_id = self.uid
            self.depth = 0
        else:
            self.tree_id = parent.parent_region.tree_id
            self.depth = parent.parent_region.depth + 1

    # -- tree structure ------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def root(self) -> "LogicalRegion":
        node = self
        while node.parent is not None:
            node = node.parent.parent_region
        return node

    def ancestors(self) -> Iterator["LogicalRegion"]:
        """This region followed by every ancestor up to the root."""
        node: Optional[LogicalRegion] = self
        while node is not None:
            yield node
            node = node.parent.parent_region if node.parent else None

    def is_ancestor_of(self, other: "LogicalRegion") -> bool:
        """True when ``self`` lies on ``other``'s path to the root (inclusive)."""
        return any(anc is self for anc in other.ancestors())

    # -- partitioning ---------------------------------------------------------

    def partition_by_spaces(
        self,
        subspaces: Dict[Hashable, IndexSpace],
        disjoint: Optional[bool] = None,
        complete: Optional[bool] = None,
        name: str = "",
    ) -> "Partition":
        """Partition this region into subregions with the given index spaces.

        ``disjoint``/``complete`` may be supplied when the caller knows them
        symbolically; otherwise they are computed geometrically.
        """
        part = Partition(self, subspaces, disjoint=disjoint, complete=complete,
                         name=name)
        self.partitions.append(part)
        return part

    def partition_equal(self, num_pieces: int, dim: int = 0, name: str = "") -> "Partition":
        """Disjoint, complete blockwise partition along one dimension.

        This is Legion's ``partition equal``: the index space is split into
        ``num_pieces`` contiguous, near-equal blocks.
        """
        rect = self.index_space.rect
        lo, hi = rect.lo[dim], rect.hi[dim]
        extent = hi - lo + 1
        subspaces: Dict[Hashable, IndexSpace] = {}
        for color in range(num_pieces):
            start = lo + (extent * color) // num_pieces
            stop = lo + (extent * (color + 1)) // num_pieces - 1
            sub = rect.slice_dim(dim, start, stop)
            subspaces[color] = IndexSpace(rect=sub, name=f"{self.name}.eq{color}")
        return self.partition_by_spaces(
            subspaces, disjoint=True, complete=True,
            name=name or f"{self.name}_equal{num_pieces}")

    def partition_tiles(
        self, tiles: Tuple[int, ...], name: str = ""
    ) -> "Partition":
        """Disjoint, complete n-D tiling with ``tiles[d]`` blocks along dim d.

        Colors are n-D tuples (or plain ints for 1-D).
        """
        rect = self.index_space.rect
        if len(tiles) != rect.dim:
            raise ValueError("tiles must match index-space dimensionality")
        subspaces: Dict[Hashable, IndexSpace] = {}
        for color in itertools.product(*(range(t) for t in tiles)):
            sub = rect
            for d, (c, t) in enumerate(zip(color, tiles)):
                lo, hi = rect.lo[d], rect.hi[d]
                extent = hi - lo + 1
                start = lo + (extent * c) // t
                stop = lo + (extent * (c + 1)) // t - 1
                sub = sub.slice_dim(d, start, stop)
            key: Hashable = color if len(color) > 1 else color[0]
            subspaces[key] = IndexSpace(rect=sub, name=f"{self.name}.tile{color}")
        return self.partition_by_spaces(
            subspaces, disjoint=True, complete=True,
            name=name or f"{self.name}_tiles{tiles}")

    def partition_ghost(
        self, base: "Partition", halo: int, dim: Optional[int] = None, name: str = ""
    ) -> "Partition":
        """Aliased ghost partition: each subregion of ``base`` grown by ``halo``.

        The grown boxes are clamped to this region's bounds.  Growing happens
        in every dimension unless ``dim`` is given.  The result is aliased
        (neighboring ghosts overlap) which is exactly the case that forces
        conservative cross-shard fences in the coarse analysis (paper §4.1).
        """
        bounds = self.index_space.rect
        subspaces: Dict[Hashable, IndexSpace] = {}
        for color, sub in base.subregions.items():
            r = sub.index_space.rect
            lo = list(r.lo)
            hi = list(r.hi)
            dims = range(r.dim) if dim is None else (dim,)
            for d in dims:
                lo[d] = max(bounds.lo[d], lo[d] - halo)
                hi[d] = min(bounds.hi[d], hi[d] + halo)
            subspaces[color] = IndexSpace(
                rect=Rect(tuple(lo), tuple(hi)), name=f"{self.name}.ghost{color}")
        return self.partition_by_spaces(
            subspaces, disjoint=False, complete=True,
            name=name or f"{self.name}_ghost{halo}")

    # -- identity ---------------------------------------------------------------

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogicalRegion) and other.uid == self.uid

    def __repr__(self) -> str:  # pragma: no cover
        return f"LogicalRegion({self.name}, ispace={self.index_space.name})"


class Partition:
    """A set of (colored) subregions of a parent region.

    Partitions are first-class: group task launches name a partition plus a
    *projection function* from launch-space points to colors, and the coarse
    analysis treats the partition itself as the upper bound of everything the
    group touches.  The k-th partition cut from a region is keyed (region
    key, k), its subregions (partition key, colour); ``None`` if unkeyed.
    """

    __slots__ = ("uid", "name", "parent_region", "subregions",
                 "disjoint", "complete", "structural_key", "structural_bytes")

    def __init__(
        self,
        parent_region: LogicalRegion,
        subspaces: Dict[Hashable, IndexSpace],
        disjoint: Optional[bool] = None,
        complete: Optional[bool] = None,
        name: str = "",
    ):
        self.uid = next(_partition_ids)
        self.name = name or f"partition{self.uid}"
        self.parent_region = parent_region
        parent_key = parent_region.structural_key
        key = self.structural_key = None if parent_key is None \
            else (parent_key, len(parent_region.partitions))
        self.structural_bytes = None
        self.subregions: Dict[Hashable, LogicalRegion] = {}
        for color, space in subspaces.items():
            if not parent_region.index_space.bounds().contains_rect(space.bounds()):
                raise ValueError(
                    f"subspace {space.name} escapes parent {parent_region.name}")
            sub = self.subregions[color] = LogicalRegion(
                space, parent_region.field_space,
                name=f"{self.name}[{color}]", parent=self)
            sub.structural_key = None if key is None else (key, color)
        self.disjoint = self._compute_disjoint() if disjoint is None else disjoint
        self.complete = self._compute_complete() if complete is None else complete

    def _compute_disjoint(self) -> bool:
        subs = list(self.subregions.values())
        for i, a in enumerate(subs):
            for b in subs[i + 1:]:
                if a.index_space.intersects(b.index_space):
                    return False
        return True

    def _compute_complete(self) -> bool:
        total = sum(s.index_space.volume for s in self.subregions.values())
        if self.disjoint:
            return total == self.parent_region.index_space.volume
        covered = set()
        for s in self.subregions.values():
            covered |= s.index_space.point_set()
        return covered == self.parent_region.index_space.point_set()

    # -- access -----------------------------------------------------------------

    def __getitem__(self, color: Hashable) -> LogicalRegion:
        return self.subregions[color]

    def __iter__(self) -> Iterator[LogicalRegion]:
        return iter(self.subregions.values())

    def __len__(self) -> int:
        return len(self.subregions)

    @property
    def colors(self) -> Iterable[Hashable]:
        return self.subregions.keys()

    def color_of(self, region: LogicalRegion) -> Hashable:
        for color, sub in self.subregions.items():
            if sub is region:
                return color
        raise KeyError(f"{region.name} is not a subregion of {self.name}")

    def __hash__(self) -> int:
        return hash(("partition", self.uid))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and other.uid == self.uid

    def __repr__(self) -> str:  # pragma: no cover
        kind = "disjoint" if self.disjoint else "aliased"
        return f"Partition({self.name}, {kind}, |subs|={len(self.subregions)})"
