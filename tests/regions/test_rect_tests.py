"""The rectangle tests answer exactly what the region-tree walk answered.

``may_alias`` and ``region_contains`` decide two structured regions of one
tree from their rectangles alone.  On every well-formed structured tree —
disjoint tilings, ghost (aliased) partitions, hand-cut rectangle
partitions, empty pieces, partitions of partitions — both must equal the
tree-walk references kept in tests/helpers.py, and the memoised test
must agree with both — an empty piece named twice included.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import tree_may_alias, tree_region_contains

from repro.regions import (FieldSpace, IndexSpace, LogicalRegion, Rect,
                           cached_may_alias, may_alias, region_contains)


def _empty(rect):
    return any(lo > hi for lo, hi in zip(rect.lo, rect.hi))


@st.composite
def _sub_rect(draw, parent):
    """A rectangle inside ``parent``, empty now and then."""
    lo, hi = [], []
    for plo, phi in zip(parent.lo, parent.hi):
        a = draw(st.integers(plo, max(plo, phi + 1)))
        b = draw(st.integers(a - 1, max(a - 1, phi)))
        lo.append(a)
        hi.append(b)
    return Rect(tuple(lo), tuple(hi))


@st.composite
def structured_trees(draw):
    """The regions of two random structured trees of one dimension."""
    dim = draw(st.sampled_from([1, 2]))
    fs = FieldSpace([("x", "f8")])
    regions = []
    for name in ("a", "b"):
        extents = [draw(st.integers(1, 9)) for _ in range(dim)]
        root = LogicalRegion(IndexSpace.from_extent(*extents), fs, name=name)
        tree = [root]
        for _ in range(draw(st.integers(0, 5))):
            parent = draw(st.sampled_from(tree))
            rect = parent.index_space.rect
            kind = draw(st.sampled_from(["equal", "ghost", "rects"]))
            if kind != "rects" and _empty(rect):
                kind = "rects"
            if kind == "equal":
                part = parent.partition_equal(
                    draw(st.integers(1, 5)), dim=draw(st.integers(0, dim - 1)))
            elif kind == "ghost":
                base = parent.partition_equal(draw(st.integers(1, 4)))
                tree += list(base)
                part = parent.partition_ghost(base, draw(st.integers(0, 2)))
            else:
                part = parent.partition_by_spaces(
                    {c: IndexSpace(rect=draw(_sub_rect(rect)))
                     for c in range(draw(st.integers(1, 4)))})
            tree += list(part)
        # Every tree holds an empty piece, so its self-pair is drawn.
        lo = root.index_space.rect.lo
        tree += list(root.partition_by_spaces(
            {0: IndexSpace(rect=Rect(lo, tuple(x - 1 for x in lo)))}))
        regions += tree
    return regions


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(structured_trees())
def test_rectangle_tests_match_the_tree_walk(regions):
    assert any(a.index_space.empty for a in regions)
    for a in regions:
        assert may_alias(a, a) is cached_may_alias(a, a) \
            is (not a.index_space.empty), a.name
        for b in regions:
            assert may_alias(a, b) == tree_may_alias(a, b), (a.name, b.name)
            assert region_contains(a, b) == tree_region_contains(a, b), \
                (a.name, b.name)
