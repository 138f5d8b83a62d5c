"""Performance guards: the analysis stays within its complexity class.

These are not micro-benchmarks; they are generous upper bounds that fail
only if an accidental change makes the coarse stage scale with point count
or the pipeline quadratic in ops — the regressions that would silently
invalidate the scalability story.
"""

import gc
import sys
import time
from unittest import mock

import numpy as np

from repro.core import (BLOCKED, CoarseAnalysis, CoarseRequirement,
                        IDENTITY_PROJECTION, Operation)
from repro.core.epochs import Epoch
from repro.core.pipeline import DCRPipeline
from repro.oracle import READ_ONLY, READ_WRITE, RegionRequirement
from repro.legate import LegateContext, make_wave, sliced_stencil
from repro.regions import FieldSpace, IndexSpace, LogicalRegion
from repro.runtime import Runtime


def build_chain(num_tiles, chain):
    fs = FieldSpace([("a", "f8"), ("b", "f8")])
    region = LogicalRegion(IndexSpace.line(num_tiles * 4), fs)
    tiles = region.partition_equal(num_tiles)
    ghost = region.partition_ghost(tiles, 1)
    ops = []
    for i in range(chain):
        rf, wf = ("a", "b") if i % 2 == 0 else ("b", "a")
        ops.append(Operation(
            "task",
            [CoarseRequirement(tiles, frozenset([fs[wf]]), READ_WRITE,
                               IDENTITY_PROJECTION),
             CoarseRequirement(ghost, frozenset([fs[rf]]), READ_ONLY,
                               IDENTITY_PROJECTION)],
            launch_domain=list(range(num_tiles)), sharding=BLOCKED,
            name=f"s{i}"))
    return ops


class TestCoarseScaling:
    def _time_coarse(self, num_tiles, chain=60):
        ops = build_chain(num_tiles, chain)
        coarse = CoarseAnalysis(num_shards=num_tiles)
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            op.seq = i
            coarse.analyze(op)
        return time.perf_counter() - t0, coarse

    def test_cost_independent_of_group_size(self):
        """The §4.1 claim: coarse cost must not scale with points.  The
        scan count must be *identical* for 16 and 512 tiles, and the wall
        clock within a loose constant factor."""
        t_small, c_small = self._time_coarse(16)
        t_big, c_big = self._time_coarse(512)
        assert c_small.result.users_scanned == c_big.result.users_scanned
        assert t_big < max(10 * t_small, 0.5)

    def test_epoch_lists_stay_bounded(self):
        """The double-buffered chain must not accumulate epoch state."""
        _t, coarse = self._time_coarse(16, chain=200)
        for state in coarse._state.values():
            assert len(state.write_epoch) + len(state.read_epoch) <= 6

    def test_long_chain_wall_clock(self):
        t, _ = self._time_coarse(64, chain=300)
        assert t < 2.0


class TestFunctionalSoak:
    def test_medium_functional_stencil(self):
        """A mid-size replicated run (8 shards, 8 tiles, 10 steps) stays
        fast, validates, and matches the reference."""
        import time

        import numpy as np

        from repro.apps.stencil import (reference_stencil2d,
                                        stencil2d_control)
        from repro.runtime import Runtime

        t0 = time.perf_counter()
        rt = Runtime(num_shards=8)
        cells = rt.execute(stencil2d_control, 32, 8, 10)
        elapsed = time.perf_counter() - t0
        got = rt.store.raw(cells, cells.field_space["a"])
        assert np.allclose(got, reference_stencil2d(32, 10))
        rt.pipeline.validate()
        assert elapsed < 10.0

    def test_fine_stage_epoch_bound(self):
        """Point-level epoch lists stay bounded on the alternating chain."""
        from repro.core.fine import FineAnalysis

        ops = build_chain(8, 120)
        fine = FineAnalysis(num_shards=4)
        for i, op in enumerate(ops):
            op.seq = i
            fine.analyze(op)
        for state in fine._state.values():
            assert len(state.write_epoch) + len(state.read_epoch) <= 20

    def test_fine_stage_plan_memo_stays_bounded(self):
        """Hand-built ops bring new coarse requirements each, so each is a
        launch shape of its own: the plan memo is cleared when full, and
        a cleared memo changes no dependence."""
        from repro.core import fine as fine_module
        from repro.core.fine import FineAnalysis

        def preds(fine):
            return [(t.op.seq, t.point,
                     sorted((p.op.seq, p.point) for p in t.preds))
                    for t in fine.result.tasks]

        ops = build_chain(8, 100)
        unbounded = FineAnalysis(num_shards=4)
        for i, op in enumerate(ops):
            op.seq = i
            unbounded.analyze(op)
        assert len(unbounded._plans) == 100
        with mock.patch.object(fine_module, "_MAX_PLANS", 16):
            bounded = FineAnalysis(num_shards=4)
            for op in ops:
                bounded.analyze(op)
                assert len(bounded._plans) <= 16
        assert preds(bounded) == preds(unbounded)

    def test_sliced_stencil_fine_stage_stays_linear(self):
        """``u[1:n-1] = (u[0:n-2] + u[2:n]) * 0.5`` writes through a
        disjoint, incomplete rect partition whose readers each straddle
        two written tiles: no single piece contains a reader, only the
        launch's pieces together do.  The group write retires them: cross
        edges are exactly 29 per iteration, and edges and epoch population
        grow with the iteration count k, not its square (counts, no
        timings).

        What still grows: cells 0 and n-1 are read every iteration and
        never written, so the readers of the two boundary tiles are
        retired by nothing — 2 live entries per iteration, each an in-edge
        of every later write of its neighbour tile, which is the part of
        ``deps`` above 2x.  A same-class supersession rule would remove
        them; it does not move the 50-iteration benchmark and is filed
        under ROADMAP item 24."""
        from repro.legate import make_wave, sliced_stencil

        def analyse(k):
            rt = Runtime(num_shards=4)
            rt.execute(sliced_stencil, make_wave(2048), k, 8)
            fine = rt.pipeline.fine
            return (len(fine.result.graph.deps), len(fine.result.cross_edges),
                    max(len(s.read_epoch) + len(s.write_epoch)
                        for s in fine._state.values()))

        deps20, cross20, live20 = analyse(20)
        deps40, cross40, live40 = analyse(40)
        assert (cross20, cross40) == (29 * 20 - 1, 29 * 40 - 1)
        assert deps40 <= 2.5 * deps20
        assert live20 <= 2 * 20 + 16 and live40 <= 2 * 40 + 16


class TestControlPlaneIgnoresPayloadSize:
    """What the control plane pays per decision must not scale with the
    data the decision is about: ingesting 16x the elements through
    ``from_values`` makes exactly as many Python-level calls (hashing,
    launch and every init tile included).  A count, not a timing, so it
    holds in a noisy hour."""

    @staticmethod
    def _python_calls(n):
        values = np.zeros(n)
        rt = Runtime(num_shards=2, backend="inprocess")
        calls = 0

        def on_event(_frame, event, _arg):
            nonlocal calls
            calls += event == "call"

        gc.collect()
        gc.disable()        # a collection would run finalizers mid-count
        sys.setprofile(on_event)
        try:
            rt.execute(lambda ctx: LegateContext(ctx, 4)
                       .from_values(values).to_numpy())
        finally:
            sys.setprofile(None)
            gc.enable()
        return calls

    def test_from_values_call_count_independent_of_size(self):
        self._python_calls(2 ** 10)             # fill lazy memos first
        assert self._python_calls(2 ** 10) == self._python_calls(2 ** 14)


class TestReplayedIterationCostsNoAnalysis:
    """An iteration served from a trace builds its point tasks from the
    recorded ones and enters the epochs once per run of replays, not once
    per op.  Counts on the traced benchmark program, no timings."""

    @staticmethod
    def _execute(iterations, auto_trace=True):
        rt = Runtime(num_shards=4, auto_trace=auto_trace)
        rt.execute(sliced_stencil, make_wave(2048), iterations, 8)
        return rt

    def test_epoch_entries_do_not_grow_with_replayed_iterations(self):
        with mock.patch.object(Epoch, "add", autospec=True,
                               side_effect=Epoch.add) as add:
            rt = self._execute(50)
        assert rt.pipeline.stats.traced_ops == 144
        assert add.call_count <= 500        # 3159 when folded per op

    def test_replayed_ops_construct_no_requirements(self):
        log = []
        analyze, init = DCRPipeline.analyze, RegionRequirement.__init__

        def logged_analyze(self, op):
            record = analyze(self, op)
            log.append("replayed" if record.traced else "fresh")
            return record

        def logged_init(self, *args):
            log.append("requirement")
            init(self, *args)

        with mock.patch.object(DCRPipeline, "analyze", logged_analyze), \
                mock.patch.object(RegionRequirement, "__init__", logged_init):
            self._execute(50)
        first = log.index("replayed")
        last = len(log) - log[::-1].index("replayed")
        assert log[first:last].count("replayed") == 144
        assert log[:first].count("requirement")     # fresh ops do build them
        assert "requirement" not in log[first:last]

    def _calls_per_iteration(self, auto_trace):
        def python_calls(iterations):
            calls = 0

            def on_event(_frame, event, _arg):
                nonlocal calls
                calls += event == "call"

            gc.collect()
            gc.disable()
            sys.setprofile(on_event)
            try:
                self._execute(iterations, auto_trace)
            finally:
                sys.setprofile(None)
                gc.enable()
            return calls

        python_calls(20)                        # fill lazy memos first
        return (python_calls(40) - python_calls(20)) / 20

    def test_replayed_iteration_makes_far_fewer_calls_than_a_fresh_one(self):
        """A replayed iteration stays under 614 calls (596 measured).  An
        absolute bound, so a cut to fresh analysis alone cannot fail it.
        It read 800 while every array op rebuilt its views, operand
        lists, key-partition keys and task specs, and 946 while every
        point built a `Future` and every kernel a temporary, against a
        bound of 968: 0.6 x the 1 613 a fresh iteration made when this
        bound was a share of fresh analysis."""
        assert self._calls_per_iteration(True) <= 614

    def test_fresh_iteration_analyses_each_launch_as_one_arrival(self):
        """The fine stage walks each probed epoch once per (requirement,
        field) of a launch, not once per point, enters each as one entry,
        shards a launch domain once and builds its point tasks in one call;
        a call-site shape's point requirements are built once, each point
        records its predecessors once, and a point requirement's region
        argument, accessors and slices are built once, and a launch shape's
        plan (points, shards, requirement tuples, launch classes, field
        plan) is derived once, and a point's kernel writes its tile in
        place with no `Future` made for it, and each shard lowers a
        repeated array op from its op memo: a fresh iteration's three
        launches on four shards stay under 1 187 calls (1 152 measured;
        1 356 when every array op was lowered anew, 6 012 when every point was scanned on its own with requirements
        built anew, 4 174 when every edge went into four containers and
        the launch plumbing was rebuilt per point, 2 440 when every point
        entered the epochs on its own, 1 613 when each launch derived its
        plan anew, 1 502 when every point built a `Future` and every
        kernel a temporary)."""
        assert self._calls_per_iteration(False) <= 1187

    def test_replayed_iteration_pays_no_lowering_or_encoding_again(self):
        """Each shard lowers an array op and encodes its hash once per
        call-site shape, and a replayed point takes its predecessors from
        the recording: a replayed iteration's three launches on four
        shards find their views, tilings, key partitions, requirements,
        task keys, digest skeleton and region arguments memoised, in 614
        calls or fewer (596 measured; 800 with every view, operand list
        and key-partition key rebuilt per op, 3 647 when all of it was
        redone, 2 276 with every replayed edge stored four times)."""
        assert self._calls_per_iteration(True) <= 614

    def test_a_replica_shard_lowers_a_traced_iteration_in_few_calls(self):
        """A replica shard neither analyses nor runs kernels, so what it
        pays per iteration is the array frontend, the front door and the
        hash: Python and C calls (the ``call`` and ``c_call`` events)
        stay under 240 on shard 1 of four (228 measured; 345 when every
        array op rebuilt its views, operand lists, key-partition keys,
        task specs and task key)."""
        def replica_calls(iterations):
            calls = 0

            def on_event(_frame, event, _arg):
                nonlocal calls
                calls += event == "call" or event == "c_call"

            def control(ctx, *args):
                if ctx.shard != 1:
                    return sliced_stencil(ctx, *args)
                gc.collect()
                gc.disable()
                sys.setprofile(on_event)
                try:
                    return sliced_stencil(ctx, *args)
                finally:
                    sys.setprofile(None)
                    gc.enable()

            Runtime(num_shards=4, auto_trace=True).execute(
                control, make_wave(2048), iterations, 8)
            return calls

        replica_calls(20)                       # fill lazy memos first
        assert (replica_calls(40) - replica_calls(20)) / 20 <= 240


class TestAnIndexLaunchReturnsOneMapOfValues:
    """An index launch keeps its points' values in one map and makes a
    point's `Future` only when the program indexes that point.  A count on
    the benchmark program, no timings."""

    def test_index_launch_makes_no_future_per_point(self):
        from repro.runtime import Future, FutureMap
        from repro.runtime.runtime import Context

        made, launches, indexed = [0], [0], set()
        init, launch = Future.__init__, Context.launch
        getitem = FutureMap.__getitem__

        def counted_init(self, *args):
            made[0] += 1
            init(self, *args)

        def counted_launch(self, *args, **kwargs):
            launches[0] += self.is_driver      # replicas take the driver's
            return launch(self, *args, **kwargs)

        def counted_getitem(self, point):
            indexed.add((self.uid, point))
            return getitem(self, point)

        rt = Runtime(num_shards=4)
        with mock.patch.object(Future, "__init__", counted_init), \
                mock.patch.object(Context, "launch", counted_launch), \
                mock.patch.object(FutureMap, "__getitem__", counted_getitem):
            rt.execute(sliced_stencil, make_wave(2048), 50, 8)
        assert rt.executed_points == 1208
        # 1 208 when every point of every index launch made its own
        assert made[0] == launches[0] + len(indexed)


class TestEachEdgeIsStoredOnce:
    """The fine stage writes each point's predecessors once, as a tuple on
    the point task, and derives every other edge view on demand: a fresh
    execute hashes point tasks for its dependence sets and epochs, not to
    file each edge into several sets.  A count, no timings."""

    def test_fresh_execute_hashes_few_point_tasks(self):
        from repro.core.operation import PointTask

        def hashes():
            rt = Runtime(num_shards=4)
            with mock.patch.object(PointTask, "__hash__", autospec=True,
                                   side_effect=lambda task: task._hash) as h:
                rt.execute(sliced_stencil, make_wave(2048), 50, 8)
            return h.call_count

        hashes()                                # fill lazy memos first
        # 9 361 measured; 43 505 with four stores, 11 645 with an epoch
        # entry per point
        assert hashes() <= 10000


class TestFreshLaunchIsAnalysedAsOneUnit:
    """A fresh launch enters each (requirement, field) epoch as one entry,
    and a class decision reads two rectangles instead of walking the
    region tree.  Counts on the benchmark program, no timings."""

    def test_each_requirement_field_arrival_is_one_entry(self):
        def entries():
            with mock.patch.object(Epoch, "add", autospec=True,
                                   side_effect=Epoch.add) as add:
                Runtime(num_shards=4).execute(sliced_stencil,
                                              make_wave(2048), 50, 8)
            return add.call_count

        # 702 measured: 351 (requirement, field) arrivals per stage; 3 159
        # when the fine stage entered every point on its own
        assert entries() <= 720

    def test_a_class_decision_makes_few_region_tree_calls(self):
        from repro.core.epochs import ClassTable

        decide, seen = ClassTable.decide, [0, 0]

        def counted(table, bcid, qcid):
            def on_event(frame, event, _arg):
                if event == "call" and \
                        "/repro/regions/" in frame.f_code.co_filename:
                    seen[1] += 1

            sys.setprofile(on_event)
            try:
                return decide(table, bcid, qcid)
            finally:
                sys.setprofile(None)
                seen[0] += 1

        with mock.patch.object(ClassTable, "decide", counted):
            Runtime(num_shards=4).execute(sliced_stencil, make_wave(2048),
                                          50, 8)
        # 2.9 measured (the cached alias probe and, on a miss, the
        # rectangle test); ~25 through the ancestor walk
        assert seen[0] and seen[1] <= 5 * seen[0]


class TestLaunchShapeIsPlannedOnce:
    """The fine stage derives a launch shape's plan once, every launch of
    the shape hands its points the plan's requirement tuples (so the
    soundness walk classes each pair of them once), and an elementwise
    launch's arguments are one tuple the hasher's skeleton serves.
    Counts on one fresh execute of the benchmark program, no timings."""

    @staticmethod
    def _calls(cls, name):
        with mock.patch.object(cls, name, autospec=True,
                               side_effect=getattr(cls, name)) as counted:
            Runtime(num_shards=4).execute(sliced_stencil, make_wave(2048),
                                          50, 8)
        return counted.call_count

    def test_the_soundness_walk_classes_few_requirement_pairs(self):
        from repro.core.epochs import ClassTable
        # 42 measured; 1 449 when every point carried fresh tuples
        assert self._calls(ClassTable, "probes") <= 60

    def test_point_requirements_are_built_once_per_shape(self):
        # 8 measured: one per (shape, requirement); 351 per launch
        assert self._calls(CoarseRequirement, "point_requirements") <= 16

    def test_launch_classes_are_interned_once_per_shape(self):
        from repro.core.epochs import ClassTable
        # 8 measured; 351 per launch
        assert self._calls(ClassTable, "launch_class") <= 16

    def test_launch_arguments_are_encoded_from_the_skeleton(self):
        from repro.core.determinism import ShardHasher
        # 740 measured; 1 948 with a fresh args list per launch
        assert self._calls(ShardHasher, "_encode") <= 800


class TestTemplateHitPaysOnlyForItsParameters:
    """A template hit hashes call 0 in its flat form, folds the recorded
    tail with one digest, and returns the verdict the recording reached,
    copying the recorded reports' dicts: it does not walk a nested tuple
    per op, fold the tail digest by digest, merge the shard reports again
    or re-run the reports' constructors.  Its lookup key is flat too.
    Counted as Python and C calls (the ``call`` and ``c_call`` events of
    ``sys.setprofile``), no timings."""

    @staticmethod
    def _recorded():
        from repro.dist import merge_reports
        from repro.service import ServiceGang, TemplateStore
        from repro.service.loadgen import make_shape_pool

        spec = make_shape_pool(8, 8, 16, 1)[0]
        with ServiceGang(2, backend="loopback") as gang:
            reports = gang.run_job(spec, capture_digests=True)
        store = TemplateStore()
        tpl = store.record(spec, 2, merge_reports(reports, backend="loopback"))
        return spec, store, tpl

    @staticmethod
    def _calls(fn):
        calls = 0

        def on_event(_frame, event, _arg):
            nonlocal calls
            calls += event == "call" or event == "c_call"

        gc.collect()
        gc.disable()
        sys.setprofile(on_event)
        try:
            fn()
        finally:
            sys.setprofile(None)
            gc.enable()
        return calls

    def test_one_hit_makes_few_calls(self):
        spec, _store, tpl = self._recorded()
        calls = self._calls(
            lambda: tpl.patch(spec, program_id="p", session="s"))
        # 50; 115 copying the reports with dataclasses.replace, 813 with
        # call 0 nested and a merge a hit
        assert calls <= 80

    def test_one_lookup_makes_few_calls(self):
        spec, store, tpl = self._recorded()
        calls = self._calls(lambda: store.lookup(spec, 2))
        assert store.hits == 1 and store.lookup(spec, 2) is tpl
        assert calls <= 15      # 7; 40 with a key tuple per op
