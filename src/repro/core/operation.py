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
from dataclasses import dataclass
from typing import (Callable, Dict, Hashable, Optional, Sequence, Tuple,
                    Union)

from ..oracle import Privilege, RegionRequirement
from ..regions import Field, LogicalRegion, Partition
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
    """

    upper: Union[LogicalRegion, Partition]
    fields: frozenset
    privilege: Privilege
    projection: Optional[ProjectionFunction] = None

    def bound_region(self) -> LogicalRegion:
        """The region-tree node that over-approximates the footprint."""
        if isinstance(self.upper, Partition):
            return self.upper.parent_region
        return self.upper

    def point_region(self, point: Hashable,
                     launch_domain: Tuple[Hashable, ...]) -> LogicalRegion:
        """The concrete subregion used by one launch point."""
        if isinstance(self.upper, Partition):
            proj = self.projection or IDENTITY_PROJECTION
            return self.upper[proj(point, launch_domain)]
        return self.upper


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
        self._preqs: Dict = {}           # point -> requirements memo

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
        if not self.is_group:
            return self.owner_shard % num_shards
        assert self.sharding is not None
        return self.sharding(point, len(self.launch_domain or ()), num_shards)

    def point_requirements(self, point: Hashable) -> Tuple[RegionRequirement, ...]:
        """Concrete region requirements for one point task.

        Memoized per point: requirements are immutable value objects, and
        the fine stage (plus every differential reference) materializes the
        same point repeatedly — once per shard replica at minimum.
        """
        reqs = self._preqs.get(point)
        if reqs is None:
            dom = self.launch_domain or ()
            reqs = tuple(
                RegionRequirement(cr.point_region(point, dom), cr.fields,
                                  cr.privilege)
                for cr in self.coarse_reqs
            )
            self._preqs[point] = reqs
        return reqs

    def __repr__(self) -> str:  # pragma: no cover
        dom = f", |dom|={len(self.launch_domain)}" if self.is_group else ""
        return f"Operation({self.name}, kind={self.kind}{dom})"


class PointTask:
    """A single point of an operation, as analyzed by the fine stage."""

    __slots__ = ("op", "point", "shard", "requirements", "_hash")

    def __init__(self, op: Operation, point: Hashable, shard: int,
                 requirements: Optional[Tuple[RegionRequirement, ...]] = None):
        self.op = op
        self.point = point
        self.shard = shard
        # A trace replay passes the recorded point's requirements: the
        # signature it matched determines every field of them.
        self.requirements = op.point_requirements(point) \
            if requirements is None else requirements
        self._hash = hash((op.uid, point))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PointTask) and other.op is self.op
                and other.point == self.point)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PointTask({self.op.name}[{self.point}]@{self.shard})"
