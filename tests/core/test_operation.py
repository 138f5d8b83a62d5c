"""Operations, projections, and point-task expansion."""

import pytest

from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                  Operation, PointTask, ProjectionFunction)
from repro.core.sharding import BLOCKED, CYCLIC
from repro.oracle import READ_ONLY, READ_WRITE
from repro.regions import FieldSpace, IndexSpace, LogicalRegion


@pytest.fixture
def env():
    fs = FieldSpace([("a", "f8")])
    region = LogicalRegion(IndexSpace.line(16), fs, name="r")
    part = region.partition_equal(4)
    return fs, region, part


class TestProjection:
    def test_identity(self, env):
        fs, _region, part = env
        cr = CoarseRequirement(part, frozenset([fs["a"]]), READ_ONLY,
                               IDENTITY_PROJECTION)
        assert cr.point_requirements((2,), (0, 1, 2, 3))[0].region is part[2]

    def test_custom_projection(self, env):
        fs, _region, part = env
        shift = ProjectionFunction(991, "shift",
                                   lambda p, dom: (p + 1) % len(dom))
        cr = CoarseRequirement(part, frozenset([fs["a"]]), READ_ONLY, shift)
        assert cr.point_requirements((3,), (0, 1, 2, 3))[0].region \
            is part[0]

    def test_duplicate_pid_rejected(self):
        with pytest.raises(ValueError):
            ProjectionFunction(0, "identity-again", lambda p, d: p)

    def test_region_requirement_ignores_projection(self, env):
        fs, region, _part = env
        cr = CoarseRequirement(region, frozenset([fs["a"]]), READ_ONLY)
        assert cr.point_requirements((7,), ())[0].region is region
        assert cr.bound_region() is region

    def test_partition_bound_is_parent(self, env):
        _fs, region, part = env
        cr = CoarseRequirement(part, frozenset(), READ_ONLY)
        assert cr.bound_region() is region


class TestOperation:
    def test_group_requires_sharding(self, env):
        fs, _region, part = env
        with pytest.raises(ValueError):
            Operation("task",
                      [CoarseRequirement(part, frozenset([fs["a"]]),
                                         READ_WRITE)],
                      launch_domain=[0, 1, 2, 3])

    def test_group_points_and_shards(self, env):
        fs, _region, part = env
        op = Operation("task",
                       [CoarseRequirement(part, frozenset([fs["a"]]),
                                          READ_WRITE, IDENTITY_PROJECTION)],
                       launch_domain=[0, 1, 2, 3], sharding=CYCLIC)
        assert op.is_group and op.num_points == 4
        assert [op.shard_of(p, 2) for p in op.points()] == [0, 1, 0, 1]

    def test_blocked_sharding(self, env):
        fs, _region, part = env
        op = Operation("task",
                       [CoarseRequirement(part, frozenset([fs["a"]]),
                                          READ_WRITE, IDENTITY_PROJECTION)],
                       launch_domain=[0, 1, 2, 3], sharding=BLOCKED)
        assert [op.shard_of(p, 2) for p in op.points()] == [0, 0, 1, 1]

    def test_individual_op(self, env):
        fs, region, _part = env
        op = Operation("fill",
                       [CoarseRequirement(region, frozenset([fs["a"]]),
                                          READ_WRITE)],
                       owner_shard=3)
        assert not op.is_group
        assert op.points() == (None,)
        assert op.shard_of(None, 2) == 1      # owner modulo shard count

    def test_point_requirements(self, env):
        fs, _region, part = env
        op = Operation("task",
                       [CoarseRequirement(part, frozenset([fs["a"]]),
                                          READ_WRITE, IDENTITY_PROJECTION)],
                       launch_domain=[0, 1, 2, 3], sharding=CYCLIC)
        reqs = op.point_requirements(2)
        assert len(reqs) == 1
        assert reqs[0].region is part[2]
        assert reqs[0].privilege is READ_WRITE


class TestPointTask:
    def test_identity(self, env):
        fs, _region, part = env
        op = Operation("task",
                       [CoarseRequirement(part, frozenset([fs["a"]]),
                                          READ_WRITE, IDENTITY_PROJECTION)],
                       launch_domain=[0, 1], sharding=CYCLIC)
        a1 = PointTask(op, 0, 0)
        a2 = PointTask(op, 0, 0)
        b = PointTask(op, 1, 1)
        assert a1 == a2 and hash(a1) == hash(a2)
        assert a1 != b
