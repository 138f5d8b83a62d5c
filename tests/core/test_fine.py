"""Fine-stage analysis: precise point graphs and fence-elision soundness."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_point_graph, reachability

from repro.core.coarse import CoarseAnalysis
from repro.core.fine import FineAnalysis
from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                  Operation, ProjectionFunction)
from repro.core.sharding import BLOCKED, CYCLIC, HASHED
from repro.oracle import READ_ONLY, READ_WRITE, WRITE_DISCARD, reduce_priv
from repro.regions import FieldSpace, IndexSpace, LogicalRegion


def environment(tiles=4):
    fs = FieldSpace([("state", "f8"), ("flux", "f8")])
    cells = LogicalRegion(IndexSpace.line(tiles * 4), fs, name="cells")
    owned = cells.partition_equal(tiles, name="owned")
    ghost = cells.partition_ghost(owned, 1, name="ghost")
    return fs, cells, owned, ghost


def stencil_ops(fs, cells, owned, ghost, steps=3, sharding=CYCLIC, tiles=4):
    state = frozenset([fs["state"]])
    flux = frozenset([fs["flux"]])
    dom = list(range(tiles))
    ops = [Operation("fill", [CoarseRequirement(cells, state | flux,
                                                WRITE_DISCARD)],
                     name="fill")]
    for t in range(steps):
        ops.append(Operation(
            "task", [CoarseRequirement(owned, state, READ_WRITE,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=sharding, name=f"add[{t}]"))
        ops.append(Operation(
            "task", [CoarseRequirement(owned, flux, READ_WRITE,
                                       IDENTITY_PROJECTION),
                     CoarseRequirement(ghost, state, READ_ONLY,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=sharding, name=f"st[{t}]"))
    return ops


class TestPreciseGraph:
    @pytest.mark.parametrize("sharding", [CYCLIC, BLOCKED, HASHED])
    def test_matches_brute_force_partial_order(self, sharding):
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, sharding=sharding)
        fine = FineAnalysis(num_shards=3)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        brute = brute_force_point_graph(ops, 3)
        assert fine.result.graph.tasks == brute.tasks
        # Epoch pruning may drop transitively-redundant edges; the induced
        # partial orders must be identical.
        assert reachability(fine.result.graph) == reachability(brute)

    def test_edge_classification(self):
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, steps=2)
        fine = FineAnalysis(num_shards=2)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        res = fine.result
        assert res.local_edges | res.cross_edges == set(res.graph.deps)
        assert not (res.local_edges & res.cross_edges)
        for a, b in res.cross_edges:
            assert a.shard != b.shard
        for a, b in res.local_edges:
            assert a.shard == b.shard

    def test_points_attributed_to_shards(self):
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, steps=1)
        fine = FineAnalysis(num_shards=2)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        counts = fine.result.points_per_shard
        assert sum(counts.values()) == 1 + 4 + 4
        # Cyclic sharding balances the two group launches evenly.
        assert counts[0] >= 4 and counts[1] >= 4


SHIFT_TWO = ProjectionFunction(7301, "shift_two", lambda p, dom: p + 2)


class TestSubDomainWriteRetirement:
    """A group write retires what the launched pieces cover — not what the
    partition it names could cover.  ``A`` writes tiles 0-3 of a complete
    partition, ``B`` rewrites two of them, ``C`` reads all four: ``C``
    still depends on ``A`` in the two tiles ``B`` left alone."""

    @pytest.mark.parametrize("sharding", [CYCLIC, BLOCKED, HASHED])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("projection, kept", [
        (IDENTITY_PROJECTION, (2, 3)),      # B writes tiles 0-1
        (SHIFT_TWO, (0, 1)),                # B writes tiles 2-3
    ], ids=["identity", "shift_two"])
    def test_unwritten_tiles_keep_their_writer(self, sharding, shards,
                                               projection, kept):
        fs = FieldSpace([("state", "f8")])
        cells = LogicalRegion(IndexSpace.line(16), fs, name="cells")
        owned = cells.partition_equal(4, name="owned")
        state = frozenset([fs["state"]])

        def launch(name, priv, dom, proj=IDENTITY_PROJECTION):
            return Operation("task", [CoarseRequirement(owned, state, priv,
                                                        proj)],
                             launch_domain=dom, sharding=sharding, name=name)

        ops = [launch("A", READ_WRITE, [0, 1, 2, 3]),
               launch("B", READ_WRITE, [0, 1], projection),
               launch("C", READ_ONLY, [0, 1, 2, 3])]
        fine = FineAnalysis(shards)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        deps = {(a.op.name, a.point, b.op.name, b.point)
                for a, b in fine.result.graph.deps}
        for tile in kept:
            assert ("A", tile, "C", tile) in deps
        assert reachability(fine.result.graph) == \
            reachability(brute_force_point_graph(ops, shards))


class TestFenceSoundness:
    @pytest.mark.parametrize("sharding", [CYCLIC, BLOCKED, HASHED])
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_every_cross_edge_covered(self, sharding, shards):
        """The invariant behind fence elision: any precise dependence that
        crosses shards is ordered by some coarse-stage fence."""
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, sharding=sharding)
        coarse = CoarseAnalysis(shards)
        fine = FineAnalysis(shards)
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        assert fine.uncovered_cross_edges(coarse.result) == []

    def test_detects_missing_fence(self):
        """Sanity-check the checker itself: removing the fences must expose
        uncovered cross-shard edges."""
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost)
        coarse = CoarseAnalysis(2)
        fine = FineAnalysis(2)
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        coarse.result.fences.clear()
        assert fine.uncovered_cross_edges(coarse.result)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 5),
           st.sampled_from([CYCLIC, BLOCKED, HASHED]))
    def test_random_programs_covered(self, shards, tiles, sharding):
        fs, cells, owned, ghost = environment(tiles)
        ops = stencil_ops(fs, cells, owned, ghost, steps=3,
                          sharding=sharding, tiles=tiles)
        coarse = CoarseAnalysis(shards)
        fine = FineAnalysis(shards)
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        assert fine.uncovered_cross_edges(coarse.result) == []

class TestUncoveredCrossEdgesCheck:
    """Direct coverage of the soundness checker itself (ISSUE 4 satellite):
    multi-requirement ops, global fences, and a deliberately broken elision
    proof the checker must catch."""

    def _run(self, ops, shards, coarse_cls=CoarseAnalysis):
        coarse = coarse_cls(shards)
        fine = FineAnalysis(shards)
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        return coarse, fine

    def test_multi_requirement_ops_covered_via_conflicting_pair(self):
        """Edges between two-requirement ops conflict only through specific
        requirement pairs; the checker must find the fence through whichever
        pair actually conflicts, not just the first."""
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])
        dom = list(range(4))
        ops = [
            Operation("fill", [CoarseRequirement(cells, state | flux,
                                                 WRITE_DISCARD)], name="fill"),
            # Writes flux through owned, reads state through ghost.
            Operation("task", [CoarseRequirement(owned, flux, READ_WRITE,
                                                 IDENTITY_PROJECTION),
                               CoarseRequirement(ghost, state, READ_ONLY,
                                                 IDENTITY_PROJECTION)],
                      launch_domain=dom, sharding=CYCLIC, name="a"),
            # Writes state through owned, reads flux through ghost — each
            # of its requirements conflicts with the *other* requirement
            # of the previous op.
            Operation("task", [CoarseRequirement(owned, state, READ_WRITE,
                                                 IDENTITY_PROJECTION),
                               CoarseRequirement(ghost, flux, READ_ONLY,
                                                 IDENTITY_PROJECTION)],
                      launch_domain=dom, sharding=BLOCKED, name="b"),
        ]
        coarse, fine = self._run(ops, 2)
        assert fine.result.cross_edges  # different shardings cross shards
        assert fine.uncovered_cross_edges(coarse.result) == []

    def test_global_fence_covers_any_region(self):
        """A region=None fence orders everything across it, including edges
        whose requirements it could never match by region or field."""
        from repro.core.coarse import Fence
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        a = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=0, name="a")
        b = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=1, name="b")
        coarse, fine = self._run([a, b], 2)
        assert fine.result.cross_edges
        # Swap the analysis's scoped fences for a single global fence at
        # the dependent op: still covered.
        coarse.result.fences.clear()
        coarse.result.fences.append(Fence(at_seq=b.seq, region=None,
                                          fields=frozenset()))
        assert fine.uncovered_cross_edges(coarse.result) == []
        # A global fence *at or before* the earlier op orders nothing
        # between the pair — the checker must reject it.
        coarse.result.fences.clear()
        coarse.result.fences.append(Fence(at_seq=a.seq, region=None,
                                          fields=frozenset()))
        assert fine.uncovered_cross_edges(coarse.result) == [
            edge for edge in fine.result.cross_edges]

    def test_broken_elision_is_caught(self, monkeypatch):
        """If the §4.1 shard-locality proof wrongly claims every dependence
        is local, every fence is elided and the checker must flag the
        cross-shard edges left unordered."""
        monkeypatch.setattr(CoarseAnalysis, "_provably_shard_local",
                            lambda self, prev, op, pairs: True)
        fs, cells, owned, ghost = environment()
        ops = stencil_ops(fs, cells, owned, ghost, sharding=CYCLIC)
        coarse, fine = self._run(ops, 2)
        assert len(coarse.result.fences) == 0
        assert coarse.result.fences_elided > 0
        assert fine.result.cross_edges
        assert fine.uncovered_cross_edges(coarse.result)

    def test_wrongly_narrowed_fence_scope_is_caught(self):
        """A fence whose scope misses the conflicting data must not count
        as covering the edge (this is exactly what the pre-fix _fence_for
        bug could produce)."""
        from repro.core.coarse import Fence
        fs, cells, owned, ghost = environment()
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])
        a = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=0, name="a")
        b = Operation("task", [CoarseRequirement(owned[0], state,
                                                 READ_WRITE)],
                      owner_shard=1, name="b")
        coarse, fine = self._run([a, b], 2)
        # Scope the replacement fence to a disjoint subregion / wrong field:
        # region owned[1] can never alias owned[0], and field flux never
        # intersects the conflicting state field.
        for bad in (Fence(at_seq=b.seq, region=owned[1], fields=state),
                    Fence(at_seq=b.seq, region=owned[0], fields=flux)):
            coarse.result.fences.clear()
            coarse.result.fences.append(bad)
            assert fine.uncovered_cross_edges(coarse.result)


def _touch(*_args):
    pass


def _relaunch_after_delete(ctx):
    """Two launch shapes, each launched before and after a ``delete_field``
    of a field neither names."""
    fs = ctx.create_field_space([("a", "f8"), ("b", "f8"), ("c", "f8")],
                                "fs")
    cells = ctx.create_region(ctx.create_index_space(16), fs, "cells")
    owned = ctx.partition_equal(cells, 4, name="owned")
    ghost = ctx.partition_ghost(cells, owned, 1, name="ghost")
    ctx.fill(cells, ["a", "b", "c"], 1.0)
    for step in range(2):
        if step:
            ctx.delete_field(cells, "b")
        ctx.index_launch(_touch, range(4), [(owned, "a", "rw"),
                                            (ghost, "c", "ro")])
        ctx.index_launch(_touch, range(4), [(owned, "c", "rw"),
                                            (ghost, "a", "ro")])


def _products(rt):
    from repro.core.pipeline import analysis_digest

    pipeline = rt.pipeline
    fine = pipeline.fine

    def name(task):
        return task.op.seq, task.point

    preds = [(name(t), sorted(map(name, t.preds))) for t in fine.result.tasks]
    uncovered = [(name(a), name(b)) for a, b in
                 fine.uncovered_cross_edges(pipeline.coarse.result)]
    return (preds, analysis_digest(pipeline.coarse_result,
                                   pipeline.fine_result), uncovered)


class TestLaunchPlans:
    """A launch shape's plan is keyed by the front door's coarse
    requirements, so whatever clears the lowering memo gives the next
    launch a fresh plan, and reusing a plan changes no product."""

    def test_a_field_deletion_gives_the_next_launch_a_fresh_plan(self):
        from repro.runtime import Runtime

        rt = Runtime(num_shards=2)
        rt.execute(_relaunch_after_delete)
        ops = [r.op for r in rt.pipeline.records if r.op.is_group]
        assert len(ops) == 4
        # each shape is lowered anew after the deletion ...
        assert ops[2].coarse_reqs is not ops[0].coarse_reqs
        assert ops[3].coarse_reqs is not ops[1].coarse_reqs
        plans = rt.pipeline.fine._plans.values()
        assert {id(p.coarse_reqs) for p in plans} >= \
            {id(op.coarse_reqs) for op in ops}
        # ... and its points carry the fresh plan's requirement tuples
        first, again = ([t.requirements for t in rt.pipeline.fine.result.tasks
                         if t.op is op] for op in (ops[0], ops[2]))
        assert first == again
        assert all(a is not b for a, b in zip(first, again))

        planned = _products(rt)
        plan = FineAnalysis._plan

        def unplanned(fine, op):
            fine._plans.clear()         # every launch derives its own plan
            return plan(fine, op)

        with mock.patch.object(FineAnalysis, "_plan", unplanned):
            fresh = Runtime(num_shards=2)
            fresh.execute(_relaunch_after_delete)
        assert planned == _products(fresh)
        assert planned[0] and planned[2] == []
