"""Region-tree queries used by the dependence analysis.

The coarse analysis over-approximates any set of regions by their least
common ancestor in the region tree (paper §4), and the dependence oracle
needs a *may-alias* test between two regions of the same tree.

Two structured regions of one tree are answered by a direct rectangle
test: a region's rectangle lies inside its parent's (partitions check
that at creation), so an ancestor overlaps a descendant exactly when the
descendant is non-empty, and the pieces of a disjoint partition — with
everything below them — have disjoint rectangles.  The rectangle test
therefore gives the answer the region-tree walk below would, without
walking (the walk is kept as the reference in tests/helpers.py).
Unstructured regions keep the walk: two regions provably do not alias when
the partition at which their root paths diverge is disjoint; otherwise
the exact point-set intersection decides.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .region import LogicalRegion, Partition

__all__ = ["lowest_common_ancestor", "divergence_partition", "may_alias",
           "upper_bound"]


def _path_to_root(region: LogicalRegion) -> Tuple[LogicalRegion, ...]:
    return tuple(region.ancestors())


def lowest_common_ancestor(
    a: LogicalRegion, b: LogicalRegion
) -> Optional[LogicalRegion]:
    """The deepest region that is an ancestor of both, or None across trees."""
    if a.tree_id != b.tree_id:
        return None
    path_a = _path_to_root(a)[::-1]
    path_b = _path_to_root(b)[::-1]
    lca: Optional[LogicalRegion] = None
    for ra, rb in zip(path_a, path_b):
        if ra is rb:
            lca = ra
        else:
            break
    return lca


def divergence_partition(
    a: LogicalRegion, b: LogicalRegion
) -> Optional[Partition]:
    """The partition at which the root paths of ``a`` and ``b`` diverge.

    Returns ``None`` when one region is an ancestor of the other, when the
    regions are in different trees, or when the paths diverge through
    *different* partitions of the LCA (in which case no partition's
    disjointness helps).
    """
    lca = lowest_common_ancestor(a, b)
    if lca is None or lca is a or lca is b:
        return None
    part_a = _child_partition_below(lca, a)
    part_b = _child_partition_below(lca, b)
    if part_a is not None and part_a is part_b:
        return part_a
    return None


def _child_partition_below(
    ancestor: LogicalRegion, descendant: LogicalRegion
) -> Optional[Partition]:
    """The partition of ``ancestor`` that ``descendant``'s path goes through."""
    node = descendant
    while node.parent is not None:
        if node.parent.parent_region is ancestor:
            return node.parent
        node = node.parent.parent_region
    return None


def may_alias(a: LogicalRegion, b: LogicalRegion) -> bool:
    """Sound may-alias test between two regions.

    Same region (which aliases itself unless it is empty), different
    trees, then — both structured — the rectangle overlap test, read
    straight off the corners; otherwise the symbolic walk (ancestor
    relation, divergence at a disjoint partition) before the exact
    geometric test.
    """
    if a is b:
        return not a.index_space.empty
    if a.tree_id != b.tree_id:
        return False
    ra, rb = a.index_space._rect, b.index_space._rect
    if ra is not None and rb is not None:
        if len(ra.lo) != len(rb.lo):
            return False
        for alo, ahi, blo, bhi in zip(ra.lo, ra.hi, rb.lo, rb.hi):
            if (alo if alo > blo else blo) > (ahi if ahi < bhi else bhi):
                return False
        return True
    lca = lowest_common_ancestor(a, b)
    if lca is a or lca is b:
        # An ancestor is a superset of every descendant, so they share points
        # unless the descendant is empty.
        return not (a.index_space.empty or b.index_space.empty)
    part = divergence_partition(a, b)
    if part is not None and part.disjoint:
        # Distinct subregions of a disjoint partition: different colors of
        # ``part`` on each path, hence provably disjoint point sets.
        return False
    return a.index_space.intersects(b.index_space)


def upper_bound(a: LogicalRegion, b: LogicalRegion) -> Optional[LogicalRegion]:
    """A region guaranteed to contain both ``a`` and ``b`` (their LCA)."""
    return lowest_common_ancestor(a, b)
