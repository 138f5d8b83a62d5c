"""Shared non-fixture helpers for the test suite.

Besides the brute-force sequential ground truth, this module keeps *naive
reference implementations* of the coarse and fine stages: the plain
list-scan algorithms the indexed implementations in ``repro.core`` replaced,
with no memoization anywhere on their paths (they use
:func:`naive_requirements_conflict` and the region-tree walks
:func:`tree_may_alias` / :func:`tree_region_contains`, which the
rectangle tests in ``repro.regions`` replaced).  The
differential tests (tests/core/test_indexed_equivalence.py) run both over
the same programs and require byte-identical products — dependences, fence
sequences, elision counts, scan counts, graphs.
"""

from __future__ import annotations

import hashlib


def brute_force_point_graph(ops, num_shards):
    """Reference O(n^2) sequential dependence analysis over point tasks.

    Expands every operation into point tasks and pairwise-checks each task
    against all predecessors — the DEP_seq ground truth the two-stage
    pipeline must reproduce.
    """
    from repro.core.operation import PointTask
    from repro.core.taskgraph import TaskGraph
    from repro.oracle import tasks_interfere

    graph = TaskGraph()
    done = []
    for op in ops:
        tasks = [PointTask(op, p, op.shard_of(p, num_shards))
                 for p in op.points()]
        for t in tasks:
            graph.add_task(t)
            for prev in done:
                if prev.op is t.op:
                    continue
                if tasks_interfere(prev.requirements, t.requirements):
                    graph.add_dep(prev, t)
        done.extend(tasks)
    return graph


def reachability(graph):
    """Transitive closure of a TaskGraph as a set of (earlier, later) pairs.

    Two dependence analyses are equivalent as *schedulers* iff they induce
    the same partial order; the epoch-based analysis deliberately drops
    transitively redundant edges (paper §2, last paragraph), so graphs are
    compared by closure, not edge sets.
    """
    from collections import defaultdict

    succ = defaultdict(set)
    for a, b in graph.deps:
        succ[a].add(b)
    closure = set()
    cache = {}

    def reach(t):
        if t in cache:
            return cache[t]
        cache[t] = set()         # cycle guard; graphs here are DAGs
        out = set()
        for nxt in succ[t]:
            out.add(nxt)
            out |= reach(nxt)
        cache[t] = out
        return out

    for t in graph.tasks:
        for later in reach(t):
            closure.add((t, later))
    return closure


# ---------------------------------------------------------------------------
# Naive reference implementations (pre-index algorithms, zero memoization)
# ---------------------------------------------------------------------------

def tree_may_alias(a, b):
    """The region-tree walk ``may_alias`` answered before structured pairs
    got a rectangle test: same region, trees, ancestry, divergence at a
    disjoint partition, then geometry — the reference the rectangle test
    must agree with on every well-formed tree."""
    from repro.regions import divergence_partition, lowest_common_ancestor

    if a is b:
        return not a.index_space.empty
    if a.tree_id != b.tree_id:
        return False
    lca = lowest_common_ancestor(a, b)
    if lca is a or lca is b:
        return not (a.index_space.empty or b.index_space.empty)
    part = divergence_partition(a, b)
    if part is not None and part.disjoint:
        return False
    return a.index_space.intersects(b.index_space)


def tree_region_contains(outer, inner):
    """Uncached region containment by the tree walk — ancestry, then
    rectangles, then point sets: the predicate the epochs retire on, and
    the reference for ``repro.regions.region_contains``."""
    if outer.tree_id != inner.tree_id:
        return False
    if outer.is_ancestor_of(inner):
        return True
    if outer.index_space.structured and inner.index_space.structured:
        return outer.index_space.rect.contains_rect(inner.index_space.rect)
    return inner.index_space.point_set() <= outer.index_space.point_set()


def naive_requirements_conflict(a, b):
    """The pairwise requirement test with no memoization anywhere on its
    path and the tree-walk alias test."""
    if not a.privilege._conflicts_uncached(b.privilege):
        return False
    if not (frozenset(f.fid for f in a.fields)
            & frozenset(f.fid for f in b.fields)):
        return False
    return tree_may_alias(a.region, b.region)


class NaiveCoarseAnalysis:
    """Plain list-scan coarse stage: the specification the indexed
    ``repro.core.coarse.CoarseAnalysis`` must reproduce byte-for-byte.

    Same epoch semantics, same dependence-pair order, same fence scoping
    (including the both-bounds / cross-tree-global rule) — but every scan
    walks every epoch entry and every predicate is evaluated uncached.
    """

    def __init__(self, num_shards):
        from repro.core.coarse import CoarseResult, Fence

        self.num_shards = num_shards
        self.result = CoarseResult()
        self.result.fences = []          # plain list, linear covers query
        self._Fence = Fence
        self._state = {}

    def analyze(self, op):
        if op.seq < 0:
            raise ValueError("assign op.seq before analysis")
        self.result.ops_analyzed += 1
        dep_ops = {}
        for req in op.coarse_reqs:
            bound = req.bound_region()
            for fid in sorted(f.fid for f in req.fields):
                state = self._state.setdefault(
                    (bound.tree_id, fid), ([], []))
                self._scan(op, req, bound, state, dep_ops)
        for req in op.coarse_reqs:
            bound = req.bound_region()
            for fid in sorted(f.fid for f in req.fields):
                self._update(op, req, bound,
                             self._state[(bound.tree_id, fid)])
        new_deps = set()
        inserted = []
        for prev, pairs in dep_ops.items():
            new_deps.add((prev, op))
            fence = self._fence_for(prev, op, pairs)
            if fence is None:
                self.result.fences_elided += 1
            elif fence not in self.result.fences:
                self.result.fences.append(fence)
                inserted.append(fence)
        self.result.deps |= new_deps
        return new_deps, inserted

    def _scan(self, op, req, bound, state, dep_ops):
        read_epoch, write_epoch = state[1], state[0]

        def check(entries):
            for prev_op, prev_req in entries:
                if prev_op is op:
                    continue
                self.result.users_scanned += 1
                if not prev_req.privilege._conflicts_uncached(req.privilege):
                    continue
                if tree_may_alias(prev_req.bound_region(), bound):
                    dep_ops.setdefault(prev_op, []).append((prev_req, req))

        if req.privilege.writes or req.privilege.is_reduce:
            check(read_epoch)
            check(write_epoch)
        else:
            check(write_epoch)
            check([e for e in read_epoch if e[1].privilege.is_reduce])

    def _update(self, op, req, bound, state):
        entry = (op, req)
        if req.privilege.writes:
            state[1][:] = [e for e in state[1] if not tree_region_contains(
                bound, e[1].bound_region())]
            state[0][:] = [e for e in state[0] if not tree_region_contains(
                bound, e[1].bound_region())]
            state[0].append(entry)
        else:
            if entry not in state[1]:
                state[1].append(entry)

    def _fence_for(self, prev, op, pairs):
        if self.num_shards == 1:
            return None
        if self._provably_shard_local(prev, op, pairs):
            return None
        preq, nreq = pairs[0]
        scope_region = preq.bound_region()
        scope_fields = frozenset()
        for preq, nreq in pairs:
            scope_fields |= (preq.fields | nreq.fields)
            if scope_region is None:
                continue
            for b in (preq.bound_region(), nreq.bound_region()):
                if b.tree_id != scope_region.tree_id:
                    scope_region = None
                    break
                if not tree_region_contains(scope_region, b):
                    scope_region = scope_region.root()
        return self._Fence(at_seq=op.seq, region=scope_region,
                           fields=scope_fields)

    def _provably_shard_local(self, prev, op, pairs):
        from repro.regions import Partition

        if not prev.is_group and not op.is_group:
            return prev.owner_shard % self.num_shards == \
                op.owner_shard % self.num_shards
        if not (prev.is_group and op.is_group):
            return False
        if prev.launch_domain != op.launch_domain:
            return False
        if prev.sharding.sid != op.sharding.sid:
            return False
        for preq, nreq in pairs:
            if not (isinstance(preq.upper, Partition)
                    and isinstance(nreq.upper, Partition)):
                return False
            if preq.upper.uid != nreq.upper.uid:
                return False
            if not preq.upper.disjoint:
                return False
            pproj = preq.projection.pid if preq.projection else 0
            nproj = nreq.projection.pid if nreq.projection else 0
            if pproj != nproj:
                return False
        return True


def naive_covers_cross_edge(fences, earlier_seq, later_seq, region, fields):
    """Linear walk over a fence list — the covers query's specification."""
    for f in fences:
        if earlier_seq < f.at_seq <= later_seq:
            if f.region is None:
                return True
            if (f.fields & fields) and tree_may_alias(f.region, region):
                return True
    return False


class NaiveFineResult:
    """The naive fine stage's products in plain containers it writes
    itself: a ``TaskGraph`` and two edge sets, where the indexed stage's
    ``FineResult`` derives those views from each point task's ``preds``."""

    def __init__(self):
        from repro.core.taskgraph import TaskGraph

        self.graph = TaskGraph()
        self.local_edges = set()
        self.cross_edges = set()
        self.points_per_shard = {}
        self.scans_per_shard = {}


class NaiveFineAnalysis:
    """Plain list-scan fine stage: the specification the indexed
    ``repro.core.fine.FineAnalysis`` must reproduce."""

    def __init__(self, num_shards):
        self.num_shards = num_shards
        self.result = NaiveFineResult()
        self._state = {}

    def analyze(self, op):
        from repro.core.operation import PointTask

        tasks = []
        for point in op.points():
            shard = op.shard_of(point, self.num_shards)
            task = PointTask(op, point, shard)
            tasks.append(task)
            self.result.points_per_shard[shard] = \
                self.result.points_per_shard.get(shard, 0) + 1
        for task in tasks:
            self._analyze_point(task)
        grouped = self._group_writes(op)
        for task in tasks:
            self._update_point(task, grouped)
        self._retire_dominated(op, tasks, grouped)
        return tasks

    @staticmethod
    def _group_writes(op):
        """Indices of the requirements a group launch writes through a
        disjoint partition: its points retire together, not one by one."""
        from repro.regions import Partition

        if not op.is_group:
            return ()
        return [k for k, cr in enumerate(op.coarse_reqs)
                if cr.privilege.writes and isinstance(cr.upper, Partition)
                and cr.upper.disjoint]

    def _retire_dominated(self, op, tasks, grouped):
        """The group rule, with plain point sets: an older user goes when
        every one of its cells was written by some point of this launch."""
        own = {id(t) for t in tasks}
        for k in grouped:
            written = set()
            for t in tasks:
                written |= t.requirements[k].region.index_space.point_set()
            tree_id = op.coarse_reqs[k].upper.parent_region.tree_id
            for f in op.coarse_reqs[k].fields:
                state = self._state.get((tree_id, f.fid))
                if state is None:
                    continue
                for epoch in state:
                    epoch[:] = [
                        e for e in epoch if id(e[0]) in own
                        or not e[1].region.index_space.point_set() <= written]

    def _analyze_point(self, task):
        self.result.graph.add_task(task)
        deps = set()
        for req in task.requirements:
            for fid in sorted(f.fid for f in req.fields):
                state = self._state.get((req.region.tree_id, fid))
                if state is None:
                    continue
                self._scan(task, req, state, deps)
        for prev in deps:
            edge = (prev, task)
            self.result.graph.add_dep(prev, task)
            if prev.shard == task.shard:
                self.result.local_edges.add(edge)
            else:
                self.result.cross_edges.add(edge)

    def _scan(self, task, req, state, deps):
        shard = task.shard
        write_epoch, read_epoch = state

        def check(entries):
            for prev_task, prev_req in entries:
                if prev_task.op is task.op:
                    continue
                self.result.scans_per_shard[shard] = \
                    self.result.scans_per_shard.get(shard, 0) + 1
                if naive_requirements_conflict(prev_req, req):
                    deps.add(prev_task)

        if req.privilege.writes or req.privilege.is_reduce:
            check(read_epoch)
            check(write_epoch)
        else:
            check(write_epoch)
            check([e for e in read_epoch if e[1].privilege.is_reduce])

    def _update_point(self, task, grouped):
        for k, req in enumerate(task.requirements):
            for fid in sorted(f.fid for f in req.fields):
                state = self._state.setdefault(
                    (req.region.tree_id, fid), ([], []))
                entry = (task, req)
                if req.privilege.writes and k in grouped:
                    state[0].append(entry)
                elif req.privilege.writes:
                    state[1][:] = [e for e in state[1]
                                   if not tree_region_contains(req.region,
                                                          e[1].region)]
                    state[0][:] = [e for e in state[0]
                                   if not tree_region_contains(req.region,
                                                          e[1].region)]
                    state[0].append(entry)
                else:
                    if entry not in state[1]:
                        state[1].append(entry)


def run_naive_analysis(ops, num_shards):
    """Drive both naive stages over ``ops`` (seqs must be pre-assigned)."""
    coarse = NaiveCoarseAnalysis(num_shards)
    fine = NaiveFineAnalysis(num_shards)
    for op in ops:
        coarse.analyze(op)
        fine.analyze(op)
    return coarse, fine


def analysis_digest(coarse_result, fine_result):
    """Canonical content hash of a (coarse, fine) analysis product pair.

    Delegates to :func:`repro.core.pipeline.analysis_digest` — the single
    shared implementation also used by the multiprocess backend's
    conformance reports — so the differential tests and the dist tier
    compare exactly the same canonical form.
    """
    from repro.core.pipeline import analysis_digest as _impl
    return _impl(coarse_result, fine_result)


def interned_fence_sequence(coarse_result):
    """The fence stream as :func:`repro.core.pipeline.fence_sequence`
    keyed it before regions carried structural keys: region uids and
    field fids renumbered by first appearance in the stream.  Kept as the
    reference that shows a move of the structural form renamed fences and
    changed none: it still reproduces the counts and sha256 values pinned
    in that form."""
    regions, fields, out = {}, {}, []
    for f in coarse_result.fences:
        if f.region is None:
            key = -1
        else:
            key = regions.setdefault(f.region.uid, len(regions))
        fkeys = [fields.setdefault(fl.fid, len(fields))
                 for fl in sorted(f.fields, key=lambda fl: fl.fid)]
        out.append((f.at_seq, key, tuple(sorted(fkeys))))
    return out


# -- adversarial execution order ---------------------------------------------

#: Seeds at which the adversarial-order tests run the runtime's queue.
REORDER_SEEDS = (0, 1, 2)


def reordered_runtime(seed: int, **kwargs):
    """A runtime whose queue runs points in a seeded random topological
    order of the point graph instead of program order."""
    from repro.faults import FaultInjector, FaultPlan
    from repro.runtime import Runtime
    return Runtime(injector=FaultInjector(FaultPlan(seed=seed, reorder=True)),
                   **kwargs)


def field_bytes(rt) -> dict:
    """Every allocated field of every root region a finished run's
    operations touched, as bytes keyed by (root's structural key, field
    name) — the same keys for the same program in any run."""
    out = {}
    for rec in rt.pipeline.records:
        for task in rec.point_tasks:
            for req in task.requirements:
                root = req.region.root()
                for f in root.field_space.fields:
                    if rt.store.has_field(root, f):
                        out[(root.structural_key, f.name)] = \
                            rt.store.raw(root, f).tobytes()
    return out


def drop_fine_edges(monkeypatch) -> None:
    """The dropped-edge mutant: the fine stage records no ``preds`` for any
    launch, so only program order would still put a point after its
    producers."""
    from repro.core.fine import FineAnalysis
    analyze = FineAnalysis.analyze

    def no_preds(self, op):
        tasks = analyze(self, op)
        for task in tasks:
            task.preds = ()
        return tasks

    monkeypatch.setattr(FineAnalysis, "analyze", no_preds)
