"""Coarse-stage analysis: group deps, fence insertion and elision (§4.1).

``TestFig10Scenario`` walks the exact example the paper's Fig. 10 draws for
the Fig. 7 stencil program, and ``TestFig11AlternateSharding`` the changed
analysis of Fig. 11.
"""

import pytest

from repro.core.coarse import CoarseAnalysis, Fence
from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                  Operation)
from repro.core.sharding import BLOCKED, CYCLIC
from repro.oracle import READ_ONLY, READ_WRITE, WRITE_DISCARD, reduce_priv
from repro.regions import FieldSpace, IndexSpace, LogicalRegion


def fig7_environment():
    fs = FieldSpace([("state", "f8"), ("flux", "f8")])
    cells = LogicalRegion(IndexSpace.line(16), fs, name="cells")
    owned = cells.partition_equal(4, name="owned")
    interior = cells.partition_equal(4, name="interior")
    ghost = cells.partition_ghost(owned, 1, name="ghost")
    return fs, cells, owned, interior, ghost


def analyze(coarse, *ops):
    out = []
    for i, op in enumerate(ops):
        op.seq = i
        out.append(coarse.analyze(op))
    return out


class TestFig10Scenario:
    """fill; add_one(owned.state); mul_two(interior.flux);
    stencil(interior.flux, ghost.state) — all with cyclic sharding."""

    def build_ops(self, sharding=CYCLIC, mul_sharding=None):
        fs, cells, owned, interior, ghost = fig7_environment()
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])
        both = state | flux
        dom = [0, 1, 2, 3]
        fill = Operation("fill", [CoarseRequirement(cells, both,
                                                    WRITE_DISCARD)],
                         name="fill")
        add_one = Operation(
            "task", [CoarseRequirement(owned, state, READ_WRITE,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=sharding, name="add_one")
        mul_two = Operation(
            "task", [CoarseRequirement(interior, flux, READ_WRITE,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=mul_sharding or sharding,
            name="mul_two")
        stencil = Operation(
            "task", [CoarseRequirement(interior, flux, READ_WRITE,
                                       IDENTITY_PROJECTION),
                     CoarseRequirement(ghost, state, READ_ONLY,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=sharding, name="stencil")
        return fill, add_one, mul_two, stencil

    def test_fence_pattern_matches_paper(self):
        fill, add_one, mul_two, stencil = self.build_ops()
        coarse = CoarseAnalysis(num_shards=2)
        results = analyze(coarse, fill, add_one, mul_two, stencil)

        # add_one depends on fill (cells.state) with a cross-shard fence:
        # fill runs on shard 0 but cyclic sharding puts points 1, 3 on
        # shard 1 (paper's first fence).
        deps1, fences1 = results[1]
        assert {(a.name, b.name) for a, b in deps1} == {("fill", "add_one")}
        assert len(fences1) == 1

        # mul_two likewise fences on cells.flux.
        deps2, fences2 = results[2]
        assert {(a.name, b.name) for a, b in deps2} == {("fill", "mul_two")}
        assert len(fences2) == 1

        # stencil depends on add_one (state: owned vs ghost -> FENCE) and on
        # mul_two (flux: same interior partition, same sharding -> ELIDED).
        deps3, fences3 = results[3]
        assert {(a.name, b.name) for a, b in deps3} == {
            ("add_one", "stencil"), ("mul_two", "stencil")}
        assert len(fences3) == 1
        assert coarse.result.fences_elided == 1

    def test_fig11_alternate_sharding_forces_fence(self):
        """Fig. 11: picking a different sharding function for mul_two means
        the mul_two -> stencil dependence may cross shards -> fence."""
        fill, add_one, mul_two, stencil = self.build_ops(
            sharding=CYCLIC, mul_sharding=BLOCKED)
        coarse = CoarseAnalysis(num_shards=2)
        results = analyze(coarse, fill, add_one, mul_two, stencil)
        _deps3, fences3 = results[3]
        assert len(fences3) == 2               # both dependences fence now
        assert coarse.result.fences_elided == 0

    def test_single_shard_elides_everything(self):
        ops = self.build_ops()
        coarse = CoarseAnalysis(num_shards=1)
        analyze(coarse, *ops)
        assert coarse.result.fences == []
        assert len(coarse.result.deps) == 4


class TestEpochState:
    def setup_method(self):
        self.fs, self.cells, self.owned, self.interior, self.ghost = \
            fig7_environment()
        self.state = frozenset([self.fs["state"]])
        self.dom = [0, 1, 2, 3]

    def group(self, name, part, priv, sharding=CYCLIC):
        return Operation("task",
                         [CoarseRequirement(part, self.state, priv,
                                            IDENTITY_PROJECTION)],
                         launch_domain=self.dom, sharding=sharding,
                         name=name)

    def test_readers_do_not_depend_on_each_other(self):
        coarse = CoarseAnalysis(2)
        w = self.group("w", self.owned, READ_WRITE)
        r1 = self.group("r1", self.ghost, READ_ONLY)
        r2 = self.group("r2", self.ghost, READ_ONLY)
        results = analyze(coarse, w, r1, r2)
        assert {(a.name, b.name) for a, b in results[2][0]} == {("w", "r2")}

    def test_writer_after_readers_depends_on_both(self):
        coarse = CoarseAnalysis(2)
        w = self.group("w", self.owned, READ_WRITE)
        r1 = self.group("r1", self.ghost, READ_ONLY)
        w2 = self.group("w2", self.owned, READ_WRITE)
        results = analyze(coarse, w, r1, w2)
        names = {(a.name, b.name) for a, b in results[2][0]}
        assert names == {("w", "w2"), ("r1", "w2")}

    def test_write_epoch_prunes_transitive(self):
        """w1 -> w2 -> w3: w3 must not re-depend on w1 (dominated)."""
        coarse = CoarseAnalysis(2)
        w1 = self.group("w1", self.owned, READ_WRITE)
        w2 = self.group("w2", self.owned, READ_WRITE)
        w3 = self.group("w3", self.owned, READ_WRITE)
        results = analyze(coarse, w1, w2, w3)
        assert {(a.name, b.name) for a, b in results[2][0]} == {("w2", "w3")}

    def test_same_redop_reducers_independent(self):
        coarse = CoarseAnalysis(2)
        w = self.group("w", self.owned, READ_WRITE)
        red1 = self.group("red1", self.ghost, reduce_priv("+"))
        red2 = self.group("red2", self.ghost, reduce_priv("+"))
        results = analyze(coarse, w, red1, red2)
        assert {(a.name, b.name) for a, b in results[2][0]} == {("w", "red2")}

    def test_reader_after_reducer_depends(self):
        coarse = CoarseAnalysis(2)
        red = self.group("red", self.ghost, reduce_priv("+"))
        r = self.group("r", self.ghost, READ_ONLY)
        results = analyze(coarse, red, r)
        assert {(a.name, b.name) for a, b in results[1][0]} == {("red", "r")}

    def test_different_fields_never_depend(self):
        coarse = CoarseAnalysis(2)
        flux = frozenset([self.fs["flux"]])
        w1 = self.group("w1", self.owned, READ_WRITE)
        w2 = Operation("task",
                       [CoarseRequirement(self.owned, flux, READ_WRITE,
                                          IDENTITY_PROJECTION)],
                       launch_domain=self.dom, sharding=CYCLIC, name="w2")
        results = analyze(coarse, w1, w2)
        assert results[1][0] == set()

    def test_seq_must_be_assigned(self):
        coarse = CoarseAnalysis(2)
        op = self.group("w", self.owned, READ_WRITE)
        with pytest.raises(ValueError):
            coarse.analyze(op)


class TestFenceCoverage:
    def test_global_fence_covers_everything(self):
        from repro.core.coarse import CoarseResult
        fs, cells, owned, _interior, _ghost = fig7_environment()
        result = CoarseResult()
        result.fences.append(Fence(at_seq=3, region=None,
                                   fields=frozenset()))
        assert result.covers_cross_edge(1, 5, owned[0],
                                        frozenset([fs["state"]]))
        assert not result.covers_cross_edge(3, 5, owned[0],
                                            frozenset([fs["state"]]))

    def test_scoped_fence_respects_fields(self):
        from repro.core.coarse import CoarseResult
        fs, cells, owned, _interior, _ghost = fig7_environment()
        result = CoarseResult()
        result.fences.append(Fence(at_seq=3, region=cells,
                                   fields=frozenset([fs["state"]])))
        assert result.covers_cross_edge(1, 5, owned[0],
                                        frozenset([fs["state"]]))
        assert not result.covers_cross_edge(1, 5, owned[0],
                                            frozenset([fs["flux"]]))


class TestFenceScopeRegression:
    """ISSUE 4 satellite (a): ``_fence_for`` must widen the fence scope
    against *both* sides of every dependence pair.  The original code only
    checked the later op's bound, so a fence could fail to cover the
    earlier op's data (same tree) or miss a whole region tree entirely
    (cross-tree dependences)."""

    def test_scope_covers_earlier_ops_bounds(self):
        """Two-requirement regression: the later op's bounds all sit inside
        pairs[0]'s scope, but the earlier op touches ghost[1] — the fence
        must widen to cover it."""
        from repro.regions import cached_region_contains as _region_contains

        fs, cells, owned, _interior, ghost = fig7_environment()
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])
        prev = Operation("task",
                         [CoarseRequirement(owned[0], state, READ_WRITE),
                          CoarseRequirement(ghost[1], flux, READ_WRITE)],
                         owner_shard=0, name="prev")
        nxt = Operation("task",
                        [CoarseRequirement(owned[0], state, READ_ONLY),
                         CoarseRequirement(owned[0], flux, READ_ONLY)],
                        owner_shard=1, name="next")
        coarse = CoarseAnalysis(num_shards=2)
        results = analyze(coarse, prev, nxt)
        _deps, fences = results[1]
        assert len(fences) == 1
        fence = fences[0]
        assert fence.region is not None
        # Every bound on either side of every pair must be inside the scope.
        for bound in (owned[0], ghost[1]):
            assert _region_contains(fence.region, bound), \
                f"fence scope {fence.region.name} misses {bound.name}"
        assert fence.fields == state | flux

    def test_cross_tree_dependence_needs_global_fence(self):
        """A dependence pair spanning two region trees has no common
        ancestor: only a global fence is sound.  Before the fix the scope
        stayed in the first pair's tree and the tree-B cross-shard point
        dependences were uncovered (validate() failed on a correct
        program)."""
        from repro.core.fine import FineAnalysis
        from repro.regions import FieldSpace, IndexSpace, LogicalRegion

        fs, cells, owned, _interior, _ghost = fig7_environment()
        state = frozenset([fs["state"]])
        bfs = FieldSpace([("mass", "f8")])
        B = LogicalRegion(IndexSpace.line(8), bfs, name="B")
        mass = frozenset([bfs["mass"]])
        dom = [0, 1, 2, 3]
        # Different sharding functions defeat the symbolic elision, so the
        # dependence needs a real fence; the owned-partition pairs conflict
        # only color-to-color while the B pairs conflict across *all* point
        # pairs — so most cross edges are covered only if the fence scope
        # reaches tree B.
        prev = Operation("task",
                         [CoarseRequirement(owned, state, READ_WRITE,
                                            IDENTITY_PROJECTION),
                          CoarseRequirement(B, mass, reduce_priv("+"))],
                         launch_domain=dom, sharding=CYCLIC, name="prev")
        nxt = Operation("task",
                        [CoarseRequirement(owned, state, READ_WRITE,
                                           IDENTITY_PROJECTION),
                         CoarseRequirement(B, mass, READ_ONLY)],
                        launch_domain=dom, sharding=BLOCKED, name="next")
        coarse = CoarseAnalysis(num_shards=2)
        fine = FineAnalysis(num_shards=2)
        for i, op in enumerate((prev, nxt)):
            op.seq = i
            coarse.analyze(op)
            fine.analyze(op)
        assert any(f.region is None for f in coarse.result.fences), \
            "cross-tree dependence must fall back to a global fence"
        assert fine.uncovered_cross_edges(coarse.result) == []
