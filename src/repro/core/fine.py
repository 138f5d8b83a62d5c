"""Fine-stage dependence analysis (paper §4.1, Fig. 9 bottom).

Once an operation's coarse dependences are satisfied it enters the fine
stage, where each shard evaluates the sharding function and performs the
*precise* point-level dependence analysis — but only for the points it owns.
The union of all shards' fine analyses (plus the ordering provided by
cross-shard fences) reproduces exactly the task graph a sequential analysis
of the fully expanded program would compute.

This module computes that precise point graph with per-shard cost
attribution, classifies edges as shard-local vs. cross-shard, and provides
the soundness check used by the test-suite: every cross-shard point
dependence must be covered by a fence the coarse stage inserted (otherwise
an elision was wrong).

Scaling note: the point epochs are the shared index of
:mod:`repro.core.epochs`, instantiated here with the fine class key
``(privilege, region uid, field ids)`` — the exact inputs of the pairwise
requirement test — and ``requirements_conflict`` as the decision, so a scan
makes one packed-int dict probe per bucket instead of one oracle call per
entry (that call chain dominated the whole analysis at 1024+ ops).
``scans_per_shard`` still counts one unit per epoch entry visited,
identical to the naive per-entry loop (pinned by the differential tests
against tests/helpers.py).  What keeps the epochs — and with them scans
and edges — proportional to a region's *live* users is retirement: a group
write retires every older user inside the union of the pieces it wrote
(:meth:`FineAnalysis._update`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs.profiler import Profiler, get_profiler
from ..oracle import RegionRequirement, requirements_conflict
from ..regions import LogicalRegion, Partition
from .coarse import CoarseResult
from .epochs import CLASS_BITS, ClassTable, FieldState, sorted_fids
from .operation import Operation, PointTask
from .taskgraph import TaskGraph

__all__ = ["FineResult", "FineAnalysis", "interned_requirements_conflict"]


@dataclass
class FineResult:
    """Precise point-task graph plus per-shard accounting."""

    graph: TaskGraph = field(default_factory=TaskGraph)
    local_edges: Set[Tuple[PointTask, PointTask]] = field(default_factory=set)
    cross_edges: Set[Tuple[PointTask, PointTask]] = field(default_factory=set)
    points_per_shard: Dict[int, int] = field(default_factory=dict)
    scans_per_shard: Dict[int, int] = field(default_factory=dict)

    def point_tasks(self) -> List[PointTask]:
        return [t for t in self.graph.tasks]  # type: ignore[misc]


def _class_key(req: RegionRequirement, region: LogicalRegion) -> Tuple:
    return (req.privilege, region.uid, req.field_ids())


def _classes_conflict(breq: RegionRequirement, _bregion: LogicalRegion,
                      qreq: RegionRequirement, _qregion: LogicalRegion
                      ) -> bool:
    return requirements_conflict(breq, qreq)


# ``requirements_conflict(a, b)`` depends only on (privilege, region,
# field ids) of each side: that triple is the fine requirement class.
_CLASSES = ClassTable("_fine_cid", _class_key, _classes_conflict)


def interned_requirements_conflict(a: RegionRequirement,
                                   b: RegionRequirement) -> bool:
    """``requirements_conflict`` through the flat decision table: one
    int-pair dict probe once both classes are warm (the fence-coverage
    validation asks this for every requirement pair of every cross edge)."""
    table = _CLASSES
    ca = table.class_of(a, a.region)
    cb = table.class_of(b, b.region)
    if a._fine_cid[0] != table.gen:
        # Interning b reset the table; re-intern a in the new generation.
        ca = table.class_of(a, a.region)
    hit = table.decisions.get((ca << CLASS_BITS) | cb)
    return table.decide(ca, cb) if hit is None else hit


class FineAnalysis:
    """Incremental precise analysis over expanded point tasks.

    ``analyze(op)`` expands the operation into point tasks, computes their
    dependences against all prior points (epoch-pruned), and attributes the
    per-point analysis work to the owning shard.  Edge classification
    (local/cross) feeds both the simulator's cost model and the fence
    soundness check.
    """

    def __init__(self, num_shards: int,
                 profiler: Optional[Profiler] = None):
        self.num_shards = num_shards
        self.profiler = profiler if profiler is not None else get_profiler()
        self.result = FineResult()
        self._state: Dict[Tuple[int, int], FieldState] = {}
        # Precise in-edges added while analyzing the most recent op, so the
        # pipeline can hand them to the trace recorder without rescanning.
        self.last_op_edges: List[Tuple[PointTask, PointTask]] = []

    def analyze(self, op: Operation) -> List[PointTask]:
        self.last_op_edges = []
        tasks: List[PointTask] = []
        for point in op.points():
            shard = op.shard_of(point, self.num_shards)
            task = PointTask(op, point, shard)
            tasks.append(task)
            self.result.points_per_shard[shard] = \
                self.result.points_per_shard.get(shard, 0) + 1
        # Points within one group launch are pairwise independent by
        # construction (the group-launch well-formedness condition), so they
        # are analyzed against prior state only, mirroring how each shard's
        # fine stage treats a whole group as one arrival.
        for task in tasks:
            self._analyze_point(task)
        self._update(op, tasks)
        prof = self.profiler
        if prof.enabled:
            m = prof.metrics
            m.count("fine.points", len(tasks))
            m.count("fine.edges", len(self.last_op_edges))
            m.count("fine.cross_edges",
                    sum(1 for a, b in self.last_op_edges
                        if a.shard != b.shard))
        return tasks

    def register_replayed(self, op: Operation,
                          tasks: List[PointTask]) -> None:
        """Fold trace-replayed point tasks into the epoch state (no scan).

        Keeps post-trace analysis correct: later operations must find the
        replayed writers/readers in the epochs, or they would silently
        order themselves against pre-trace state.
        """
        self._update(op, tasks)

    def _update(self, op: Operation, tasks: List[PointTask]) -> None:
        """Enter an operation's points into the epochs and retire what
        they dominate.

        An individual write retires the older users its region contains.
        The points of a group launch that writes through a *disjoint*
        partition retire together, once per launch: every older user whose
        region lies inside the **union of the pieces the launch wrote**
        goes, whether or not any single piece contains it.  Such a user is
        ordered before each piece that overlaps it (a write conflicts with
        everything), and a later operation that conflicts with it at some
        cell conflicts with the piece that wrote that cell, so every
        future ordering against it is implied through this launch.  The
        bound is what was written, never what the partition could cover: a
        launch over part of the colour space retires only under those
        pieces.  Without the group rule, readers that straddle two written
        tiles are never retired and the fine analysis turns quadratic in
        program length.
        """
        grouped = [k for k, cr in enumerate(op.coarse_reqs)
                   if cr.privilege.writes and isinstance(cr.upper, Partition)
                   and cr.upper.disjoint] if op.is_group else ()
        for task in tasks:
            self._update_point(task, grouped)
        if not (grouped and tasks):
            return
        own = {id(t) for t in tasks}
        for k in grouped:
            cr = op.coarse_reqs[k]
            tree_id = cr.upper.parent_region.tree_id
            pieces = tuple(dict.fromkeys(
                t.requirements[k].region for t in tasks))
            for fid in sorted_fids(cr):
                self._state[(tree_id, fid)].retire(pieces, own)

    def _analyze_point(self, task: PointTask) -> None:
        result = self.result
        result.graph.tasks.add(task)
        deps: Set[PointTask] = set()
        states = self._state
        scans = result.scans_per_shard
        op = task.op
        tshard = task.shard
        for req in task.requirements:
            region = req.region
            tree_id = region.tree_id
            for fid in sorted_fids(req):
                state = states.get((tree_id, fid))
                if state is None:
                    continue
                scanned, found = state.scan(op, req, region)
                if scanned:
                    scans[tshard] = scans.get(tshard, 0) + scanned
                for hits in found:
                    for b in hits:
                        deps.update(b.users)
        if not deps:
            return
        graph_deps = result.graph.deps
        local_add = result.local_edges.add
        cross_add = result.cross_edges.add
        edge_append = self.last_op_edges.append
        for prev in deps:
            edge = (prev, task)
            graph_deps.add(edge)
            edge_append(edge)
            if prev.shard == tshard:
                local_add(edge)
            else:
                cross_add(edge)

    def _update_point(self, task: PointTask,
                      grouped: Sequence[int]) -> None:
        op = task.op
        for k, req in enumerate(task.requirements):
            region = req.region
            tree_id = region.tree_id
            retire = k not in grouped
            for fid in sorted_fids(req):
                key = (tree_id, fid)
                state = self._state.get(key)
                if state is None:
                    state = self._state[key] = FieldState(_CLASSES)
                state.update(op, task, req, region, retire)

    # -- soundness of fence elision ------------------------------------------------

    def uncovered_cross_edges(
        self, coarse: CoarseResult
    ) -> List[Tuple[PointTask, PointTask]]:
        """Cross-shard precise dependences not ordered by any fence.

        Must be empty for a sound analysis: this is the property the coarse
        stage's conservative fence insertion guarantees and its symbolic
        elision must preserve.  Conflict tests go through the interned
        decision table and coverage through the fence channels, so each
        (edge, requirement pair) probe is O(1).
        """
        bad = []
        for prev, task in self.result.cross_edges:
            covered = any(
                interned_requirements_conflict(preq, nreq)
                and coarse.covers_cross_edge(
                    prev.op.seq, task.op.seq, nreq.region,
                    nreq.fields | preq.fields)
                for preq in prev.requirements
                for nreq in task.requirements)
            if not covered:
                bad.append((prev, task))
        return bad
