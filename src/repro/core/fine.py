"""Fine-stage dependence analysis (paper §4.1, Fig. 9 bottom).

Once an operation's coarse dependences are satisfied it enters the fine
stage, where in the paper each shard evaluates the sharding function and
performs the *precise* point-level dependence analysis for the points it
owns.  The union of all shards' fine analyses (plus the ordering provided
by cross-shard fences) reproduces exactly the task graph a sequential
analysis of the fully expanded program would compute.

This module computes that precise point graph and its soundness check:
every cross-shard point dependence must be covered by a fence the coarse
stage inserted (otherwise an elision was wrong).  It is not yet local: one
:class:`FineAnalysis` analyses **every** shard's points and attributes
each point's work and edges to the shard that owns it (ROADMAP item 1 is
what makes the analysis local).

One edge store: each point task's predecessors are written once, as the
tuple ``PointTask.preds``, when :meth:`FineAnalysis._analyze_launch` finds
them (a trace replay writes them from the recording).  The result keeps
the point tasks in analysis order; the graph, the shard-local and
cross-shard edge sets and a record's in-edges are views derived from them
on demand.  The soundness check (:meth:`FineAnalysis.uncovered_cross_edges`)
is one walk over the tasks' predecessors that tests each cross-shard one
against the fences, so it builds no edge set either.

Launch granularity: the points of a group launch are pairwise
independent, so a launch is one arrival.  The epochs are walked once per
(requirement, field, probed epoch) per launch; a bucket's verdict for all
the launch's points is one probe of a memo keyed by (bucket class, launch
class) — the launch class being the interned tuple of the points' class
ids — that is computed from the per-pair decisions.  Each point's hits are
gathered in per-point order (requirement, field, epoch, bucket), so its
dependence set and the edge order are those of a point-by-point scan.  A
launch never scans its own entries, so every point is charged the probed
epoch's size, as the per-point loop reported.

Scaling note: the point epochs are the shared index of
:mod:`repro.core.epochs`, instantiated here with the fine class key
``(privilege, region uid, field ids)`` — the exact inputs of the pairwise
requirement test — and ``requirements_conflict`` as the decision, so a scan
makes one packed-int dict probe per bucket instead of one oracle call per
entry (that call chain dominated the whole analysis at 1024+ ops), and one
per bucket per launch rather than per point.
``scans_per_shard`` still counts one unit per epoch entry visited,
identical to the naive per-entry loop (pinned by the differential tests
against tests/helpers.py).  What keeps the epochs — and with them scans
and edges — proportional to a region's *live* users is retirement: a group
write retires every older user inside the union of the pieces it wrote
(:meth:`FineAnalysis._update`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..obs.profiler import Profiler, get_profiler
from ..oracle import RegionRequirement, requirements_conflict
from ..regions import LogicalRegion, Partition
from .coarse import CoarseResult
from .epochs import ClassTable, FieldState, sorted_fids
from .operation import Operation, PointTask
from .taskgraph import PointGraph

__all__ = ["FineResult", "FineAnalysis"]


class FineResult:
    """Precise point-task graph plus per-shard accounting.

    The edge store is each point task's ``preds``, and ``tasks`` holds the
    point tasks in analysis order.  ``graph``, ``local_edges`` and
    ``cross_edges`` are views derived from them on demand, cached until the
    next task joins: an edit a caller makes to one (a negative control
    clearing ``graph.deps``) is what the next reader at that state sees.
    """

    def __init__(self) -> None:
        self.tasks: List[PointTask] = []
        self.points_per_shard: Dict[int, int] = {}
        self.scans_per_shard: Dict[int, int] = {}
        self._graph: Optional[PointGraph] = None
        self._split: Optional[Tuple[int, Set, Set]] = None

    @property
    def graph(self) -> PointGraph:
        graph = self._graph
        if graph is None or graph.size != len(self.tasks):
            graph = self._graph = PointGraph(self.tasks, len(self.tasks))
        return graph

    def _edges_by_kind(self) -> Tuple[int, Set, Set]:
        split = self._split
        if split is None or split[0] != len(self.tasks):
            local: Set[Tuple[PointTask, PointTask]] = set()
            cross: Set[Tuple[PointTask, PointTask]] = set()
            for task in self.tasks:
                shard = task.shard
                for prev in task.preds:
                    (local if prev.shard == shard else cross).add(
                        (prev, task))
            split = self._split = (len(self.tasks), local, cross)
        return split

    @property
    def local_edges(self) -> Set[Tuple[PointTask, PointTask]]:
        return self._edges_by_kind()[1]

    @property
    def cross_edges(self) -> Set[Tuple[PointTask, PointTask]]:
        return self._edges_by_kind()[2]


def _class_key(req: RegionRequirement, region: LogicalRegion) -> Tuple:
    return (req.privilege, region.uid, req.field_ids())


def _classes_conflict(breq: RegionRequirement, _bregion: LogicalRegion,
                      qreq: RegionRequirement, _qregion: LogicalRegion
                      ) -> bool:
    return requirements_conflict(breq, qreq)


class FineAnalysis:
    """Incremental precise analysis over expanded point tasks.

    ``analyze(op)`` expands the operation into point tasks, records their
    dependences on all prior points (epoch-pruned) as each task's
    ``preds``, and attributes the per-point analysis work to the owning
    shard.
    """

    def __init__(self, num_shards: int,
                 profiler: Optional[Profiler] = None):
        self.num_shards = num_shards
        self.profiler = profiler if profiler is not None else get_profiler()
        self.result = FineResult()
        # ``requirements_conflict(a, b)`` depends only on (privilege, region,
        # field ids) of each side: that triple is the requirement class.
        self._classes = ClassTable("_fine_cid", _class_key, _classes_conflict)
        self._state: Dict[Tuple[int, int], FieldState] = {}

    def analyze(self, op: Operation) -> List[PointTask]:
        tasks: List[PointTask] = []
        points = self.result.points_per_shard
        for point, reqs in zip(op.points(), op.launch_requirements()):
            shard = op.shard_of(point, self.num_shards)
            tasks.append(PointTask(op, point, shard, reqs))
            points[shard] = points.get(shard, 0) + 1
        # Points within one group launch are pairwise independent (the
        # group-launch well-formedness condition, which Context.index_launch
        # checks at the call), so they are analyzed against prior state
        # only: the whole group is one arrival, and the epochs are walked
        # once per (requirement, field).
        self._analyze_launch(op, tasks)
        self._update(op, tasks)
        edges, cross = self.admit(tasks)
        prof = self.profiler
        if prof.enabled:
            m = prof.metrics
            m.count("fine.points", len(tasks))
            m.count("fine.edges", edges)
            m.count("fine.cross_edges", cross)
        return tasks

    def admit(self, tasks: List[PointTask]) -> Tuple[int, int]:
        """Join point tasks, their ``preds`` written, to the result and
        return their (edge, cross edge) counts.  The fine stage admits what
        it analyses, the pipeline what a replay serves."""
        self.result.tasks += tasks
        edges = cross = 0
        for task in tasks:
            preds = task.preds
            if not preds:
                continue
            edges += len(preds)
            shard = task.shard
            for prev in preds:
                if prev.shard != shard:
                    cross += 1
        return edges, cross

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
        if not tasks:
            return
        grouped = [k for k, cr in enumerate(op.coarse_reqs)
                   if cr.privilege.writes and isinstance(cr.upper, Partition)
                   and cr.upper.disjoint] if op.is_group else ()
        # Every point of requirement k touches the same (tree, field)
        # states; they are looked up (and made, in the per-point order)
        # once per launch, and the points still enter them one by one.
        states = self._state
        plan = []
        for k, req in enumerate(tasks[0].requirements):
            tree_id = req.region.tree_id
            targets = []
            for fid in sorted_fids(req):
                state = states.get((tree_id, fid))
                if state is None:
                    state = states[(tree_id, fid)] = FieldState(self._classes)
                targets.append(state)
            plan.append((k, k not in grouped, targets))
        for task in tasks:
            reqs = task.requirements
            for k, retire, targets in plan:
                req = reqs[k]
                region = req.region
                for state in targets:
                    state.update(op, task, req, region, retire)
        if not grouped:
            return
        own = {id(t) for t in tasks}
        for k in grouped:
            cr = op.coarse_reqs[k]
            tree_id = cr.upper.parent_region.tree_id
            pieces = tuple(dict.fromkeys(
                [t.requirements[k].region for t in tasks]))
            for fid in sorted_fids(cr):
                self._state[(tree_id, fid)].retire(pieces, own)

    def _analyze_launch(self, op: Operation, tasks: List[PointTask]) -> None:
        """Find every point's dependences on the prior epoch state in one
        walk per (requirement, field, probed epoch).

        A bucket's decision for all the launch's points at once is one
        memoized mask lookup keyed by (bucket class, launch class).  Each
        point's hits are gathered in the per-point order — requirement,
        field, epoch, bucket — so its dependence set is built by the same
        insertion sequence, and the edges come out in the same order, as
        when every point was scanned on its own.  A launch never scans its
        own entries, so each point is charged the probed epoch's size."""
        result = self.result
        if not tasks:
            return
        states = self._state
        table = self._classes
        deps: List[Optional[Set[PointTask]]] = [None] * len(tasks)
        scanned = 0
        for k, cr in enumerate(op.coarse_reqs):
            reqs = [t.requirements[k] for t in tasks]
            tree_id = reqs[0].region.tree_id
            lcid = -1
            for fid in sorted_fids(cr):
                state = states.get((tree_id, fid))
                if state is None:
                    continue
                for epoch, reduce_only in state.probes(cr.privilege):
                    if not epoch._size:
                        continue
                    if lcid < 0:
                        lcid = table.launch_class(reqs)
                    matched = epoch.match_launch(op, lcid, reduce_only)
                    if matched is None:
                        scanned += self._match_points(epoch, op, reqs,
                                                      reduce_only, deps)
                        continue
                    n, found = matched
                    scanned += n
                    for b, mask in found:
                        for i in mask:
                            d = deps[i]
                            if d is None:
                                d = deps[i] = set()
                            d.update(b.users)
        scans = result.scans_per_shard
        if scanned:
            for task in tasks:
                scans[task.shard] = scans.get(task.shard, 0) + scanned
        for task, d in zip(tasks, deps):
            if d:
                task.preds = tuple(d)

    @staticmethod
    def _match_points(epoch, op: Operation, reqs: List[RegionRequirement],
                      reduce_only: bool,
                      deps: List[Optional[Set[PointTask]]]) -> int:
        """Per-point matching for an epoch that holds entries of ``op``
        itself (a re-analysed op), which every point must skip; returns
        the entries one point scans (the skip does not depend on the
        point)."""
        scanned = 0
        for i, req in enumerate(reqs):
            scanned, hits = epoch.match(op, req, req.region, reduce_only)
            for b in hits:
                d = deps[i]
                if d is None:
                    d = deps[i] = set()
                d.update(b.users)
        return scanned

    # -- soundness of fence elision ------------------------------------------------

    def uncovered_cross_edges(
        self, coarse: CoarseResult
    ) -> List[Tuple[PointTask, PointTask]]:
        """Cross-shard precise dependences not ordered by any fence, in
        analysis order: one walk over every task's ``preds``.

        Must be empty for a sound analysis: this is the property the coarse
        stage's conservative fence insertion guarantees and its symbolic
        elision must preserve.  An edge is covered when some conflicting
        requirement pair of it has a fence in ``(prev.op.seq,
        task.op.seq]`` whose scope reaches the pair's data.  Conflicts come
        from the interned decision table and coverage through the fence
        channels, so each pair probe is O(1).
        """
        covers = coarse.covers_cross_edge
        conflicting_pairs = self._classes.conflicting_pairs
        bad = []
        for task in self.result.tasks:
            shard, later = task.shard, task.op.seq
            for prev in task.preds:
                if prev.shard == shard:
                    continue
                earlier = prev.op.seq
                for preq, nreq in conflicting_pairs(prev.requirements,
                                                    task.requirements):
                    if covers(earlier, later, nreq.region,
                              nreq.fields | preq.fields):
                        break
                else:
                    bad.append((prev, task))
        return bad
