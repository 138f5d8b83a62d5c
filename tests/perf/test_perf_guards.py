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
        got = rt.store.raw(cells.tree_id, cells.field_space["a"])
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
        under ROADMAP 7c."""
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
        assert self._calls_per_iteration(True) \
            <= 0.6 * self._calls_per_iteration(False)
