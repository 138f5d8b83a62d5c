"""The front door's group check decides exactly what the model's rule
decides.

``check_group`` settles most requirement pairs of a group launch without
expanding a point (``unsettled_pairs``) and asks the rule,
``semantics.group_interference``, only about the rest.  The property
below draws group launches, well formed or not, over disjoint, aliased,
nested, incomplete and unstructured partitions, whole-region targets,
every privilege kind and injective and many-to-one projections, and holds
the fast paths to the rule: a launch they settle has no interfering
points, and the check rejects a launch for interference exactly when the
rule finds a witness, naming the witness's points.
"""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.core import CoarseRequirement, IDENTITY_PROJECTION
from repro.core.operation import ProjectionFunction
from repro.core.semantics import group_interference
from repro.oracle import READ_ONLY, READ_WRITE, WRITE_DISCARD, reduce_priv
from repro.regions import FieldSpace, IndexSpace, LogicalRegion, Rect
from repro.runtime.frontdoor import check_group, unsettled_pairs

PROJECTIONS = [
    IDENTITY_PROJECTION,
    ProjectionFunction(7331, "rotate1", lambda p, dom: (p + 1) % 4),
    ProjectionFunction(7332, "colour0", lambda p, dom: 0),
]
PRIVILEGES = [READ_ONLY, READ_WRITE, WRITE_DISCARD, reduce_priv("+"),
              reduce_priv("*")]


def _env():
    """Two trees; every partition has the colours 0..3."""
    fs = FieldSpace([("a", "f8"), ("b", "f8")])
    cells = LogicalRegion(IndexSpace.line(16), fs, name="cells")
    owned = cells.partition_equal(4, name="owned")

    def rects(name, bounds):
        return cells.partition_by_spaces(
            {c: IndexSpace(rect=Rect((lo,), (hi,)))
             for c, (lo, hi) in enumerate(bounds)}, name=name)

    parts = [
        owned,
        cells.partition_ghost(owned, 1, name="ghost"),
        owned[1].partition_equal(4, name="nested"),
        rects("holes", [(0, 1), (4, 5), (8, 9), (12, 13)]),
        rects("shifted", [(1, 4), (5, 8), (9, 12), (13, 15)]),
        rects("shared", [(0, 5), (4, 9), (8, 13), (12, 15)]),
        cells.partition_by_spaces(
            {c: IndexSpace(points=pts) for c, pts in enumerate(
                [[(0,), (15,)], [(3,), (7,)], [(7,), (11,)], [(2,)]])},
            name="scatter"),
    ]
    other = LogicalRegion(IndexSpace.line(8), fs, name="other")
    parts.append(other.partition_equal(4, name="apart"))
    regions = [cells, owned[2], other]
    return fs, parts, regions


FS, PARTS, REGIONS = _env()


def _req(part, name, priv, proj=IDENTITY_PROJECTION):
    return CoarseRequirement(PARTS[part], frozenset([FS[name]]), priv, proj)


@st.composite
def group_launches(draw):
    norm = []
    for _ in range(draw(st.integers(1, 3))):
        fields = frozenset(FS[n] for n in draw(st.sampled_from(
            [("a",), ("b",), ("a", "b")])))
        priv = draw(st.sampled_from(PRIVILEGES))
        if draw(st.integers(0, 4)) == 0:
            norm.append(CoarseRequirement(draw(st.sampled_from(REGIONS)),
                                          fields, priv))
        else:
            # the identity projection half the time: the fast paths only
            # settle pairs under it
            proj = draw(st.sampled_from([IDENTITY_PROJECTION] * 2
                                        + PROJECTIONS[1:]))
            norm.append(CoarseRequirement(
                draw(st.sampled_from(PARTS)), fields, priv, proj))
    dom = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4,
                              unique=True)))
    return tuple(norm), dom


def _verdict(norm, dom):
    try:
        check_group("t", norm, dom)
    except ValueError as exc:
        return str(exc)
    return None


@given(group_launches())
@settings(max_examples=600, deadline=None, derandomize=True)
# Two disjoint partitions of one tree under the identity projection: a
# point's piece of one overlaps another point's piece of the other.
@example(((_req(0, "a", READ_WRITE), _req(4, "a", READ_ONLY)), (0, 1)))
@example(((_req(0, "a", READ_WRITE), _req(2, "a", READ_ONLY)), (1, 2)))
@example(((_req(3, "b", WRITE_DISCARD), _req(4, "b", reduce_priv("+"))),
          (0, 1, 2, 3)))
# The same disjoint partition, written and read: settled, independent.
@example(((_req(0, "a", READ_WRITE), _req(0, "a", READ_ONLY)), (0, 1, 2)))
def test_fast_paths_decide_what_the_rule_decides(launch):
    norm, dom = launch
    points = list(zip(*[cr.point_requirements(dom, dom) for cr in norm]))
    witness = group_interference(points)
    across, _within = unsettled_pairs(norm, len(dom))
    if not across:
        assert witness is None, (norm, dom, witness)
    verdict = _verdict(norm, dom)
    if verdict is not None and "both write" in verdict:
        return      # one point's own requirements, decided before the rule
    if witness is None:
        assert verdict is None, verdict
    else:
        p, q = dom[witness[0]], dom[witness[1]]
        assert verdict is not None and re.search(
            rf"points {p!r} and {q!r} interfere through requirements "
            rf"{witness[2]} .* and {witness[3]} ", verdict), verdict


def test_the_rule_names_the_first_interfering_pair():
    owned, ghost = PARTS[0], PARTS[1]
    reqs = [CoarseRequirement(owned, frozenset([FS["a"]]), READ_WRITE,
                              IDENTITY_PROJECTION),
            CoarseRequirement(ghost, frozenset([FS["a"]]), READ_ONLY,
                              IDENTITY_PROJECTION)]
    dom = (0, 1, 2, 3)
    points = list(zip(*[cr.point_requirements(dom, dom) for cr in reqs]))
    # point 0 writes cell 3, which point 1's ghost piece reads
    assert group_interference(points) == (0, 1, 0, 1)
    assert group_interference(points[:1]) is None
    assert group_interference([points[0], points[2]]) is None
