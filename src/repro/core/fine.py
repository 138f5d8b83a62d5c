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
against the fences, so it builds no edge set either; it classes each pair
of requirement tuples once, and the launches of a shape share theirs.

Launch granularity: the points of a group launch are pairwise
independent, so a fresh launch is analysed as one unit.  What a launch
derives from its shape alone — points and shards, each requirement's
point requirements and launch class, each point's requirement tuple and
the field plan — is one :class:`LaunchPlan`, kept by the instance per
(the front door's ``coarse_reqs`` tuple, launch domain, sharding), and
its point tasks are built in one call from the plan's tuples.  It enters each
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

from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs.profiler import Profiler, get_profiler
from ..oracle import RegionRequirement, requirements_conflict
from ..regions import LogicalRegion, Partition
from .coarse import CoarseResult
from .epochs import ClassTable, FieldState, sorted_fids
from .operation import Operation, PointTask
from .taskgraph import PointGraph

__all__ = ["FineResult", "FineAnalysis"]

_MAX_PLANS = 1 << 12     # a full plan memo is cleared: recomputation only


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


# Per requirement: (privilege, its (tree id, field id) state keys in fid
# order, a group write through a disjoint partition, another write).
_Field = Tuple[Any, Tuple[Tuple[int, int], ...], bool, bool]


class LaunchPlan:
    """What every launch of one shape derives alike, derived once.

    A shape is a call-site's coarse requirements (the one tuple the front
    door hands to each of its launches), the launch domain and the
    sharding (the owner shard of an individual launch).  The plan holds
    the points and each point's shard, the per-shard counts, each
    requirement's point requirements (``launch``) and launch class, each
    point's requirement tuple (``reqs``, which its point task carries) and
    the per-requirement field plan.  Because every launch of a shape hands
    its point tasks the same requirement tuples, the soundness walk's
    per-pair memo hits across launches.  ``singles`` is, for a launch of
    several points with a write outside a disjoint partition, each
    point's width-1 requirements and launch classes (such a launch enters
    point by point), and None otherwise.
    """

    __slots__ = ("coarse_reqs", "points", "shards", "counts", "launch",
                 "lcids", "reqs", "fields", "singles")

    def __init__(self, table: ClassTable, coarse_reqs: Tuple, group: bool,
                 points: Tuple, shards: Tuple[int, ...],
                 counts: Tuple[Tuple[int, int], ...],
                 launch: List[Tuple[RegionRequirement, ...]],
                 reqs: List[Tuple[RegionRequirement, ...]]) -> None:
        self.coarse_reqs = coarse_reqs      # keeps the key's id taken
        self.points = points
        self.shards = shards
        self.counts = counts
        self.launch = launch
        self.lcids = [table.launch_class(r) for r in launch]
        self.reqs = reqs
        fields = []
        for cr in coarse_reqs:
            writes = cr.privilege.writes
            grouped = writes and group and isinstance(cr.upper, Partition) \
                and cr.upper.disjoint
            tree_id = cr.bound_region().tree_id
            fields.append((cr.privilege,
                           tuple([(tree_id, fid) for fid in sorted_fids(cr)]),
                           grouped, writes and not grouped))
        self.fields: Tuple[_Field, ...] = tuple(fields)
        self.singles = None
        if len(reqs) > 1 and any(f[3] for f in fields):
            self.singles = [([(req,) for req in point],
                             [table.single(req, req.region) for req in point])
                            for point in reqs]


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
        # (id of the coarse requirements, launch domain, sharding id or
        # owner shard) -> the launch's plan; each plan holds its coarse
        # requirements, so no id in a key passes to another tuple.
        self._plans: Dict[Tuple, LaunchPlan] = {}

    def _plan(self, op: Operation) -> LaunchPlan:
        """``op``'s :class:`LaunchPlan`, derived once per launch shape: the
        front door hands one ``coarse_reqs`` tuple to every launch of a
        call-site shape, and sharding functions are pure.  A full memo is
        cleared, which costs recomputation only."""
        coarse_reqs, dom = op.coarse_reqs, op.launch_domain
        key = (id(coarse_reqs), dom,
               op.owner_shard if dom is None else op.sharding.sid)
        plan = self._plans.get(key)
        if plan is None:
            points = op.points()
            if dom is None:
                shard = op.owner_shard % self.num_shards
                shards: Tuple[int, ...] = (shard,)
            else:
                sharding, n, width = op.sharding, len(dom), self.num_shards
                shards = tuple([sharding(p, n, width) for p in dom])
            tally: Dict[int, int] = {}
            for shard in shards:
                tally[shard] = tally.get(shard, 0) + 1
            # Each requirement's point requirements, in point order: the
            # launch's users for that requirement.
            launch = [cr.point_requirements(points, dom or ())
                      for cr in coarse_reqs]
            reqs = list(zip(*launch)) if launch else [()] * len(points)
            if len(self._plans) >= _MAX_PLANS:
                self._plans.clear()
            plan = self._plans[key] = LaunchPlan(
                self._classes, coarse_reqs, op.is_group, points, shards,
                tuple(tally.items()), launch, reqs)
        return plan

    def analyze(self, op: Operation) -> List[PointTask]:
        plan = self._plan(op)
        tasks = PointTask.launch(op, plan.points, plan.shards, plan.reqs)
        tally = self.result.points_per_shard
        for shard, n in plan.counts:
            tally[shard] = tally.get(shard, 0) + n
        # Points within one group launch are pairwise independent (the
        # group-launch well-formedness condition, which Context.index_launch
        # checks at the call), so they are analyzed against prior state
        # only: the whole group is one arrival, and the epochs are walked
        # once per (requirement, field).
        self._analyze_launch(op, tasks, plan)
        self._update(op, tasks, plan)
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
        order themselves against pre-trace state.  The tasks carry their
        recording's requirements, which the plan is built from here.
        """
        if not tasks:
            return
        reqs = [t.requirements for t in tasks]
        self._update(op, tasks, LaunchPlan(
            self._classes, op.coarse_reqs, op.is_group, (), (), (),
            list(zip(*reqs)), reqs))

    def _update(self, op: Operation, tasks: List[PointTask],
                plan: LaunchPlan) -> None:
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
        fields = plan.fields
        singles = plan.singles
        if singles is not None:
            for task, (launch, lcids) in zip(tasks, singles):
                self._enter(op, (task,), launch, lcids, fields)
        else:
            self._enter(op, tuple(tasks), plan.launch, plan.lcids, fields)
        own = None
        states = self._state
        for (_priv, keys, grouped, _single), lcid in zip(fields, plan.lcids):
            if grouped:
                if own is None:
                    own = {id(t) for t in tasks}
                for key in keys:
                    states[key].retire(~lcid, lcid, own)

    def _enter(self, op: Operation, users: Tuple[PointTask, ...],
               launch, lcids: List[int], fields: Tuple[_Field, ...]) -> None:
        """Enter ``users`` as one entry per (requirement, field) state,
        making the states on first use; a write the field plan marks
        single first retires under its one region."""
        states = self._state
        for (_priv, keys, _grouped, single), reqs, lcid in zip(fields, launch,
                                                               lcids):
            bound = reqs[0].region if single else None
            for key in keys:
                state = states.get(key)
                if state is None:
                    state = states[key] = FieldState(self._classes)
                state.update(op, users, reqs, lcid, bound)

    def _analyze_launch(self, op: Operation, tasks: List[PointTask],
                        plan: LaunchPlan) -> None:
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
        for (priv, keys, _grouped, _single), lcid in zip(plan.fields,
                                                         plan.lcids):
            for key in keys:
                state = states.get(key)
                if state is None:
                    continue
                for epoch, reduce_only in state.probes(priv):
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
            for shard, n in plan.counts:
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
        # Every launch of a shape hands its points the plan's requirement
        # tuples, and a replay the recorded ones, so each pair of tuples
        # is classed once per walk (every task is alive throughout, so the
        # ids are stable).
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
