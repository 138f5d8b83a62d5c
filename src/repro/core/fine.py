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
independent, so a fresh launch is analysed as one unit.  Its point→shard
assignment comes from one memo per (sharding id, launch domain) owned by
the instance, and its point tasks are built in one call.  It enters each
(requirement, field) epoch as **one entry** holding its points' users and
requirements, bucketed by the requirement's *launch class* — the interned
tuple of the points' class ids.  The epochs are walked once per
(requirement, field, probed epoch) per launch; a bucket's verdict for all
the launch's points is one probe of a memo keyed by (bucket launch class,
query launch class) that names the conflicting (query point, bucket
point) pairs, computed from the per-pair decisions, so every point's
dependence set is the one a point-by-point scan builds.  A launch never
scans its own entries, so every point is charged the probed epoch's user
count, as the per-point loop reported.

Scaling note: the point epochs are the shared index of
:mod:`repro.core.epochs`, instantiated here with the fine class key
``(privilege, region uid, field ids)`` — the exact inputs of the pairwise
requirement test — and ``requirements_conflict`` as the decision, so a
scan makes one packed-int dict probe per bucket of launch entries instead
of one oracle call per user (that call chain dominated the whole analysis
at 1024+ ops).  ``scans_per_shard`` still counts one unit per user
visited, identical to the naive per-entry loop (pinned by the
differential tests against tests/helpers.py).  What keeps the epochs —
and with them scans and edges — proportional to a region's *live* users
is retirement: a group write retires every older user inside the union of
the pieces it wrote (:meth:`FineAnalysis._update`), one memoised (bound,
launch class) probe per bucket, and what is left of a launch's entry
stays as a smaller entry.
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
        # (sharding id, launch domain) -> (each point's shard, (shard,
        # points) in first-appearance order): sharding functions are pure.
        self._shards: Dict[Tuple[int, Tuple], Tuple[Tuple[int, ...],
                                                    Tuple[Tuple[int, int],
                                                          ...]]] = {}

    def _assignment(self, op: Operation
                    ) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
        """The shard of each of ``op``'s points and the points per shard,
        evaluated once per (sharding function, launch domain)."""
        dom = op.launch_domain
        if dom is None:
            shard = op.owner_shard % self.num_shards
            return (shard,), ((shard, 1),)
        sharding = op.sharding
        key = (sharding.sid, dom)
        hit = self._shards.get(key)
        if hit is None:
            n, width = len(dom), self.num_shards
            shards = tuple([sharding(p, n, width) for p in dom])
            counts: Dict[int, int] = {}
            for shard in shards:
                counts[shard] = counts.get(shard, 0) + 1
            hit = self._shards[key] = (shards, tuple(counts.items()))
        return hit

    def analyze(self, op: Operation) -> List[PointTask]:
        shards, counts = self._assignment(op)
        points = op.points()
        dom = op.launch_domain or ()
        # Each requirement's point requirements, in point order: the
        # launch's users for that requirement.
        launch = [cr.point_requirements(points, dom) for cr in op.coarse_reqs]
        tasks = PointTask.launch(op, points, shards, list(zip(*launch))
                                 if launch else [()] * len(points))
        tally = self.result.points_per_shard
        for shard, n in counts:
            tally[shard] = tally.get(shard, 0) + n
        lcids = [self._classes.launch_class(reqs) for reqs in launch]
        # Points within one group launch are pairwise independent (the
        # group-launch well-formedness condition, which Context.index_launch
        # checks at the call), so they are analyzed against prior state
        # only: the whole group is one arrival, and the epochs are walked
        # once per (requirement, field).
        self._analyze_launch(op, tasks, counts, launch, lcids)
        self._update(op, tasks, launch, lcids)
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

    def _update(self, op: Operation, tasks: List[PointTask],
                launch: Optional[List[Tuple[RegionRequirement, ...]]] = None,
                lcids: Optional[List[int]] = None) -> None:
        """Enter an operation's points into the epochs, one entry per
        (requirement, field), and retire what they dominate.

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
        program length.  A launch that also writes outside a disjoint
        partition retires point by point, so it enters point by point, in
        the order the points retire.
        """
        if not tasks:
            return
        table = self._classes
        if launch is None:
            launch = list(zip(*[t.requirements for t in tasks]))
            lcids = [table.launch_class(reqs) for reqs in launch]
        coarse_reqs = op.coarse_reqs
        grouped = [k for k, cr in enumerate(coarse_reqs)
                   if cr.privilege.writes and isinstance(cr.upper, Partition)
                   and cr.upper.disjoint] if op.is_group else []
        single = [k for k, cr in enumerate(coarse_reqs)
                  if cr.privilege.writes and k not in grouped]
        if single and len(tasks) > 1:
            for task in tasks:
                reqs = task.requirements
                self._enter(op, (task,), [(req,) for req in reqs],
                            [table.single(req, req.region) for req in reqs],
                            single)
        else:
            self._enter(op, tuple(tasks), launch, lcids, single)
        if not grouped:
            return
        own = {id(t) for t in tasks}
        states = self._state
        for k in grouped:
            cr = coarse_reqs[k]
            tree_id = cr.upper.parent_region.tree_id
            lcid = lcids[k]
            for fid in sorted_fids(cr):
                states[(tree_id, fid)].retire(~lcid, lcid, own)

    def _enter(self, op: Operation, users: Tuple[PointTask, ...],
               launch, lcids: List[int], single: List[int]) -> None:
        """Enter ``users`` as one entry per (requirement, field) state,
        making the states on first use; a write of a requirement in
        ``single`` first retires under its one region."""
        states = self._state
        for k, (cr, reqs, lcid) in enumerate(zip(op.coarse_reqs, launch,
                                                 lcids)):
            region = reqs[0].region
            bound = region if k in single else None
            tree_id = region.tree_id
            for fid in sorted_fids(cr):
                state = states.get((tree_id, fid))
                if state is None:
                    state = states[(tree_id, fid)] = FieldState(self._classes)
                state.update(op, users, reqs, lcid, bound)

    def _analyze_launch(self, op: Operation, tasks: List[PointTask],
                        counts: Tuple[Tuple[int, int], ...],
                        launch: List[Tuple[RegionRequirement, ...]],
                        lcids: List[int]) -> None:
        """Find every point's dependences on the prior epoch state in one
        walk per (requirement, field, probed epoch).

        Each bucket is one memoised probe keyed by (bucket launch class,
        query launch class) that names the conflicting (query point,
        bucket point) pairs; every entry of the bucket then hands the
        named users to the named points.  A launch never scans its own
        entries, so each point is charged the probed epoch's size."""
        states = self._state
        deps: List[Optional[Set[PointTask]]] = [None] * len(tasks)
        scanned = 0
        for cr, reqs, lcid in zip(op.coarse_reqs, launch, lcids):
            tree_id = reqs[0].region.tree_id
            for fid in sorted_fids(cr):
                state = states.get((tree_id, fid))
                if state is None:
                    continue
                for epoch, reduce_only in state.probes(cr.privilege):
                    if not epoch._size:
                        continue
                    n, found = epoch.match(op, lcid, reduce_only)
                    scanned += n
                    for entries, pairs in found:
                        for e in entries:
                            users = e[2]
                            for i, j in pairs:
                                d = deps[i]
                                if d is None:
                                    d = deps[i] = set()
                                d.add(users[j])
        if scanned:
            scans = self.result.scans_per_shard
            for shard, n in counts:
                scans[shard] = scans.get(shard, 0) + scanned * n
        for task, d in zip(tasks, deps):
            if d:
                task.preds = tuple(d)

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
        covers = coarse.fences.covers_fids
        probes_of = self._classes.probes
        # A replay's tasks carry their recording's requirement tuples, so
        # each recorded pair of tuples is classed once per walk (every task
        # is alive throughout, so the ids are stable).
        seen: Dict[Tuple[int, int], List] = {}
        bad = []
        for task in self.result.tasks:
            shard, later = task.shard, task.op.seq
            reqs = task.requirements
            for prev in task.preds:
                if prev.shard == shard:
                    continue
                key = (id(prev.requirements), id(reqs))
                probes = seen.get(key)
                if probes is None:
                    probes = seen[key] = probes_of(prev.requirements, reqs)
                earlier = prev.op.seq
                for region, fids in probes:
                    if covers(earlier, later, region, fids):
                        break
                else:
                    bad.append((prev, task))
        return bad
