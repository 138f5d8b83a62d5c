"""FenceStore edge cases (ISSUE 10): the empty store, global-only
fences, widened-scope fences (the PR 4 bugfix path), out-of-order
insertion, and trace-replay rebinding through
``DCRPipeline._integrate_replay``.

The covers specification throughout is the naive linear fence walk
(``tests/helpers.naive_covers_cross_edge``); the store must answer
identically through its O(1) channel ranks.
"""

import pytest

from helpers import naive_covers_cross_edge

from repro.core.coarse import CoarseAnalysis, Fence, FenceStore
from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                  Operation)
from repro.core.pipeline import DCRPipeline
from repro.core.sharding import CYCLIC
from repro.oracle import READ_ONLY, READ_WRITE
from repro.regions import FieldSpace, IndexSpace, LogicalRegion


@pytest.fixture
def env():
    fs = FieldSpace([("state", "f8"), ("flux", "f8")])
    cells = LogicalRegion(IndexSpace.line(16), fs, name="cells")
    owned = cells.partition_equal(4, name="owned")
    ghost = cells.partition_ghost(owned, 1, name="ghost")
    pfs = FieldSpace([("mass", "f8")])
    parts = LogicalRegion(IndexSpace.line(8), pfs, name="parts")
    return fs, cells, owned, ghost, pfs, parts


def assert_matches_naive(store, regions_fields, max_seq):
    """Every (earlier, later, region, fields) query answers identically
    through the index and through the linear walk."""
    fences = list(store)
    for region, fields in regions_fields:
        for e in range(-1, max_seq):
            for l in range(e, max_seq + 1):
                assert store.covers(e, l, region, fields) == \
                    naive_covers_cross_edge(fences, e, l, region, fields), \
                    (e, l, region.name, sorted(f.name for f in fields))


class TestFenceStoreEdgeCases:
    def test_empty_store(self, env):
        fs, cells, owned, _ghost, _pfs, _parts = env
        store = FenceStore()
        assert len(store) == 0
        assert not store
        assert list(store) == []
        assert store == []
        assert store.positions() == []
        assert not store.covers(0, 100, cells, frozenset([fs["state"]]))
        # Only the global channel exists: no scoped channel was allocated.
        assert not store._scoped
        store.check_invariants()

    def test_global_only_fences(self, env):
        fs, cells, owned, _ghost, pfs, parts = env
        store = FenceStore()
        assert store.add(Fence(3, None, frozenset()))
        assert store.add(Fence(7, None, frozenset()))
        # A global fence orders *everything*: both region trees, any
        # fields, even fields the fence never mentions.
        for region, field in ((cells, fs["state"]), (owned[2], fs["flux"]),
                              (parts, pfs["mass"])):
            assert store.covers(0, 3, region, frozenset([field]))
            assert store.covers(2, 10, region, frozenset([field]))
            assert not store.covers(3, 6, region, frozenset([field]))
            assert not store.covers(7, 100, region, frozenset([field]))
        assert not store._scoped
        store.check_invariants()

    def test_scoped_fence_requires_alias_and_field(self, env):
        fs, cells, owned, ghost, pfs, parts = env
        state = frozenset([fs["state"]])
        store = FenceStore([Fence(4, owned[1], state)])
        assert store.covers(0, 5, owned[1], state)       # exact scope
        assert store.covers(0, 5, cells, state)          # parent aliases
        assert store.covers(0, 5, ghost[0], state)       # overlapping tile
        assert not store.covers(0, 5, owned[3], state)   # disjoint tile
        assert not store.covers(0, 5, owned[1],
                                frozenset([fs["flux"]]))  # field miss
        assert not store.covers(0, 5, parts,
                                frozenset([pfs["mass"]]))  # other tree
        store.check_invariants()

    def test_widened_scope_fence_covers_subregions(self, env):
        """The PR 4 bugfix path: when a dependence's bounds don't fit one
        subregion scope, the fence widens to the tree root — and must
        then order *every* subregion of that tree."""
        fs, cells, owned, ghost, _pfs, _parts = env
        both = frozenset([fs["state"], fs["flux"]])
        store = FenceStore([Fence(6, cells, both)])
        for sub in (owned[0], owned[3], ghost[1], cells):
            assert store.covers(0, 6, sub, frozenset([fs["state"]]))
            assert store.covers(5, 9, sub, frozenset([fs["flux"]]))
            assert not store.covers(6, 9, sub, both)
        store.check_invariants()

    def test_analysis_widens_scope_across_bounds(self, env):
        """Driving the widening through the real coarse stage: a
        dependence between ops bound to *different* tiles of one tree
        produces a fence no single tile scope can express."""
        fs, _cells, owned, ghost, _pfs, _parts = env
        state = frozenset([fs["state"]])
        ops = [Operation("task", [CoarseRequirement(owned[0], state,
                                                    READ_WRITE)],
                         owner_shard=0, name="a"),
               Operation("task", [CoarseRequirement(ghost[0], state,
                                                    READ_WRITE)],
                         owner_shard=1, name="b")]
        for i, op in enumerate(ops):
            op.seq = i
        coarse = CoarseAnalysis(2)
        for op in ops:
            coarse.analyze(op)
        fences = coarse.result.fences
        assert len(fences) == 1
        scope = fences[0].region
        # ghost[0] spills outside owned[0]: the scope must be wide enough
        # to alias both bounds (in this tree that means the root).
        assert scope is not None
        assert scope.uid not in (owned[0].uid, ghost[0].uid)
        assert fences.covers(-1, 1, owned[0], state)
        assert fences.covers(-1, 1, ghost[0], state)
        fences.check_invariants()

    def test_add_dedupes(self, env):
        fs, cells, _owned, _ghost, _pfs, _parts = env
        f = Fence(2, cells, frozenset([fs["state"]]))
        store = FenceStore()
        assert store.add(f) is True
        assert store.add(f) is False
        assert store.add(Fence(2, cells, frozenset([fs["state"]]))) is False
        assert len(store) == 1
        assert f in store
        store.check_invariants()

    def test_out_of_order_adds(self, env):
        fs, cells, owned, _ghost, _pfs, _parts = env
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])
        specs = [(5, owned[0], state), (2, None, frozenset()),
                 (8, owned[2], flux), (2, owned[1], state),
                 (0, cells, flux)]
        store = FenceStore()
        for at, region, fields in specs:
            assert store.add(Fence(at, region, fields))
        # Iteration order is insertion order (the list-API contract the
        # differential harness pins), while the channels sort by position.
        assert [f.at_seq for f in store] == [5, 2, 8, 2, 0]
        assert store.positions() == [0, 2, 5, 8]
        store.check_invariants()
        assert_matches_naive(
            store, [(owned[0], state), (owned[1], flux), (cells, state),
                    (owned[3], state | flux)], max_seq=10)

    def test_strictly_decreasing_adds(self, env):
        """The worst case for the rank channel: every add lands before
        every earlier one, so each truncates the whole rank array."""
        fs, cells, _owned, _ghost, _pfs, _parts = env
        state = frozenset([fs["state"]])
        store = FenceStore()
        hi = 64
        for at in range(hi, 0, -2):
            assert store.add(Fence(at, cells, state))
            store.check_invariants()
        assert len(store) == hi // 2
        assert_matches_naive(store, [(cells, state)], max_seq=hi + 1)

    def test_list_protocol_and_clear(self, env):
        fs, cells, _owned, _ghost, _pfs, _parts = env
        state = frozenset([fs["state"]])
        fences = [Fence(1, cells, state), Fence(4, None, frozenset())]
        store = FenceStore(fences)
        assert store == fences
        assert store == tuple(fences)
        assert store != fences[:1]
        assert store[0] == fences[0] and store[-1] == fences[1]
        assert list(store)[1] is fences[1]
        store.clear()
        assert len(store) == 0 and store == []
        assert not store.covers(0, 10, cells, state)
        assert not store._scoped
        store.check_invariants()
        # The store is reusable after clear().
        assert store.add(fences[0])
        assert store.covers(0, 2, cells, state)


class TestReplayRebinding:
    """After ``DCRPipeline._integrate_replay`` rebinds a recorded trace's
    fences into the live store, the index must be indistinguishable from
    having analyzed the same program fresh."""

    def _step(self, fs, owned, ghost, tag):
        state = frozenset([fs["state"]])
        flux = frozenset([fs["flux"]])
        dom = [0, 1, 2, 3]
        return [
            Operation("task", [CoarseRequirement(owned, state, READ_WRITE,
                                                 IDENTITY_PROJECTION)],
                      launch_domain=dom, sharding=CYCLIC,
                      name=f"add[{tag}]"),
            Operation("task", [CoarseRequirement(owned, flux, READ_WRITE,
                                                 IDENTITY_PROJECTION),
                               CoarseRequirement(ghost, state, READ_ONLY,
                                                 IDENTITY_PROJECTION)],
                      launch_domain=dom, sharding=CYCLIC,
                      name=f"st[{tag}]"),
        ]

    def _run(self, env, iters, traced):
        fs, _cells, owned, ghost, _pfs, _parts = env
        pipe = DCRPipeline(num_shards=2)
        recs = [pipe.analyze(op)
                for op in self._step(fs, owned, ghost, 0)]
        if traced:
            pipe.trace_cache.record("frag", recs)
        for t in range(1, iters):
            if traced:
                assert pipe.begin_trace("frag") is True
            for op in self._step(fs, owned, ghost, t):
                rec = pipe.analyze(op)
                assert rec.traced == traced
            if traced:
                pipe.end_trace()
        return pipe

    def test_replay_preserves_fence_index(self, env):
        traced = self._run(env, 5, traced=True)
        fresh = self._run(env, 5, traced=False)
        store = traced.coarse_result.fences
        store.check_invariants()
        # Rebinding goes through ``add`` and so dedupes: the stats count
        # and the store agree.
        assert traced.stats.fences == len(store)
        # Replays insert a global entry fence, so the traced sequence is
        # not byte-identical to the fresh one — but both must satisfy
        # the fence-soundness invariant on the same program, and the
        # rebound index must keep answering order queries (validate()
        # runs the full covers sweep over the final graph).
        traced.validate()
        fresh.validate()
        assert traced.fine.uncovered_cross_edges(traced.coarse_result) == []
        assert fresh.fine.uncovered_cross_edges(fresh.coarse_result) == []

    def test_replayed_covers_match_naive_walk(self, env):
        pipe = self._run(env, 4, traced=True)
        store = pipe.coarse_result.fences
        fences = list(store)
        coarse = pipe.coarse_result
        for prev, task in pipe.fine_result.cross_edges:
            for preq in prev.requirements:
                for nreq in task.requirements:
                    flds = nreq.fields | preq.fields
                    assert coarse.covers_cross_edge(
                        prev.op.seq, task.op.seq, nreq.region, flds) == \
                        naive_covers_cross_edge(
                            fences, prev.op.seq, task.op.seq,
                            nreq.region, flds)
        # The soundness check itself — every cross edge fence-covered.
        assert pipe.fine.uncovered_cross_edges(coarse) == []
