"""Operations: the units the two-stage DCR analysis pipeline processes.

An :class:`Operation` is anything a control program asks the runtime to do —
an individual task launch, a *group* (index) task launch over a launch
domain, a fill, an attach/detach.  Group launches are the linchpin of DCR's
scalability (paper §2, §4.1): the coarse stage analyzes a whole group as a
single representative task whose region argument is an *upper bound* in the
region tree (the partition named by the launch), so coarse cost is
independent of the number of points.

Projection functions map launch points to subregions (the ``f`` in
``t(p[f(i_j)])``, §4).  Like sharding functions they are registered with
stable ids so the fence-elision proof can compare them symbolically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple, Union)

from ..oracle import Privilege, RegionRequirement
from ..regions import LogicalRegion, Partition
from .sharding import ShardingFunction

__all__ = ["ProjectionFunction", "IDENTITY_PROJECTION", "CoarseRequirement",
           "Operation", "PointTask", "projection_registry"]

_op_ids = itertools.count()
_proj_registry: Dict[int, "ProjectionFunction"] = {}


class ProjectionFunction:
    """A pure function from launch points to partition colors.

    ``fn(point, launch_domain)`` returns the *color* of the subregion the
    point-task uses.  The identity projection (id 0) maps each point to the
    same-named color, covering the ubiquitous ``task(p[i])`` idiom.
    """

    def __init__(self, pid: int, name: str,
                 fn: Callable[[Hashable, Tuple[Hashable, ...]], Hashable]):
        if pid in _proj_registry:
            raise ValueError(f"projection id {pid} already registered")
        self.pid = pid
        self.name = name
        self._fn = fn
        _proj_registry[pid] = self

    def __call__(self, point: Hashable,
                 launch_domain: Tuple[Hashable, ...]) -> Hashable:
        return self._fn(point, launch_domain)

    def __hash__(self) -> int:
        return hash(self.pid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjectionFunction) and other.pid == self.pid

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProjectionFunction({self.pid}:{self.name})"


def projection_registry() -> Dict[int, ProjectionFunction]:
    return dict(_proj_registry)


IDENTITY_PROJECTION = ProjectionFunction(0, "identity", lambda p, dom: p)


@dataclass(frozen=True)
class CoarseRequirement:
    """One region argument at group granularity.

    ``upper`` is either a concrete region (individual ops) or a partition
    (group launches) — in both cases a region-tree upper bound of everything
    the operation's points touch.  ``projection`` refines a partition to a
    per-point subregion in the fine stage.

    The concrete requirement of each point is memoised per partition
    colour (:meth:`point_requirements`), so a requirement object that is
    reused across launches — as a ``Context`` reuses one per call-site
    shape — builds each point requirement once, and the class tags and
    sorted field ids cached on those stay warm from launch to launch.
    """

    upper: Union[LogicalRegion, Partition]
    fields: frozenset
    privilege: Privilege
    projection: Optional[ProjectionFunction] = None
    # colour -> RegionRequirement; a region target has the one key None
    _by_colour: Dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def bound_region(self) -> LogicalRegion:
        """The region-tree node that over-approximates the footprint."""
        if isinstance(self.upper, Partition):
            return self.upper.parent_region
        return self.upper

    def point_requirements(self, points: Sequence[Hashable],
                           launch_domain: Tuple[Hashable, ...]
                           ) -> Tuple[RegionRequirement, ...]:
        """The concrete requirement each of ``points`` uses, memoised per
        projected colour: bounded by the partition's size, not by the
        launch domains seen.  A region target has the one key ``None``."""
        memo = self._by_colour
        upper = self.upper
        if not isinstance(upper, Partition):
            req = memo.get(None)
            if req is None:
                req = memo[None] = RegionRequirement(upper, self.fields,
                                                     self.privilege)
            return (req,) * len(points)
        proj = self.projection
        if proj is not None and proj is not IDENTITY_PROJECTION:
            points = [proj(p, launch_domain) for p in points]
        reqs = []
        for colour in points:
            req = memo.get(colour)
            if req is None:
                req = memo[colour] = RegionRequirement(
                    upper[colour], self.fields, self.privilege)
            reqs.append(req)
        return tuple(reqs)


class Operation:
    """One entry of the replicated control program's operation stream."""

    def __init__(
        self,
        kind: str,
        coarse_reqs: Sequence[CoarseRequirement],
        launch_domain: Optional[Sequence[Hashable]] = None,
        sharding: Optional[ShardingFunction] = None,
        owner_shard: int = 0,
        name: str = "",
        body: Optional[Callable] = None,
        cost: float = 0.0,
    ):
        self.uid = next(_op_ids)
        self.kind = kind
        self.name = name or f"{kind}{self.uid}"
        self.coarse_reqs = tuple(coarse_reqs)
        self.launch_domain: Optional[Tuple[Hashable, ...]] = (
            tuple(launch_domain) if launch_domain is not None else None)
        if self.launch_domain is not None and sharding is None:
            raise ValueError("group launches require a sharding function")
        self.sharding = sharding
        self.owner_shard = owner_shard   # for individual (non-group) ops
        self.body = body                 # executed per point by the runtime
        self.body_args: Tuple = ()       # scalar args captured at launch
        self.fill_value = None           # for kind == "fill"
        self.cost = cost                 # modeled execution time per point (s)
        self.seq: int = -1               # program-order index, set by pipeline

    # -- group structure ------------------------------------------------------

    @property
    def is_group(self) -> bool:
        return self.launch_domain is not None

    @property
    def num_points(self) -> int:
        return len(self.launch_domain) if self.launch_domain else 1

    def points(self) -> Tuple[Hashable, ...]:
        if self.launch_domain is not None:
            return self.launch_domain
        return (None,)

    def shard_of(self, point: Hashable, num_shards: int) -> int:
        """The shard that owns analysis of the given launch point."""
        dom = self.launch_domain
        if dom is None:
            return self.owner_shard % num_shards
        assert self.sharding is not None
        return self.sharding(point, len(dom), num_shards)

    def point_requirements(self, point: Hashable) -> Tuple[RegionRequirement, ...]:
        """Concrete region requirements for one point task, read from each
        coarse requirement's per-colour memo (requirements are immutable
        value objects, so one per colour serves every launch)."""
        dom = self.launch_domain or ()
        return tuple([cr.point_requirements((point,), dom)[0]
                      for cr in self.coarse_reqs])

    def __repr__(self) -> str:  # pragma: no cover
        dom = f", |dom|={len(self.launch_domain)}" if self.is_group else ""
        return f"Operation({self.name}, kind={self.kind}{dom})"


class PointTask:
    """A single point of an operation, as analyzed by the fine stage.

    ``preds`` is the fine stage's edge store: the point tasks this one
    depends on, written once — by the fine stage when it finds them, or by
    a trace replay from the recording — and never changed after.  Every
    other view of the point graph is derived from it."""

    __slots__ = ("op", "point", "shard", "requirements", "preds", "_hash")

    def __init__(self, op: Operation, point: Hashable, shard: int,
                 requirements: Optional[Tuple[RegionRequirement, ...]] = None):
        self.op = op
        self.point = point
        self.shard = shard
        # The fine stage passes the requirements it built for the whole
        # launch; a trace replay passes the recorded point's, since the
        # signature it matched determines every field of them.
        self.requirements = op.point_requirements(point) \
            if requirements is None else requirements
        self.preds: Tuple["PointTask", ...] = ()
        self._hash = hash((op.uid, point))

    @staticmethod
    def launch(op: Operation, points: Sequence[Hashable],
               shards: Sequence[int],
               requirements: Sequence[Tuple[RegionRequirement, ...]]
               ) -> List["PointTask"]:
        """The point tasks of one launch of ``op``, built in one call from
        parallel sequences: what ``PointTask(op, point, shard, reqs)``
        builds for each point, without a constructor call per point."""
        new, uid = PointTask.__new__, op.uid
        tasks = []
        for point, shard, reqs in zip(points, shards, requirements):
            task = new(PointTask)
            task.op = op
            task.point = point
            task.shard = shard
            task.requirements = reqs
            task.preds = ()
            task._hash = hash((uid, point))
            tasks.append(task)
        return tasks

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PointTask) and other.op is self.op
                and other.point == self.point)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PointTask({self.op.name}[{self.point}]@{self.shard})"
