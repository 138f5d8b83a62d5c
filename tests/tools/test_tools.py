"""Tooling: analysis reports, DOT export, checkpoint/restore."""

import numpy as np
import pytest

from repro.apps.stencil import stencil2d_control
from repro.runtime import Runtime
from repro.tools import (analyze_run, coarse_graph_dot, load_partitioned,
                         load_region, save_partitioned, save_region,
                         task_graph_dot)


@pytest.fixture
def finished_run():
    rt = Runtime(num_shards=3)
    rt.execute(stencil2d_control, 12, 4, 4)
    return rt


class TestAnalysisReport:
    def test_counts_consistent(self, finished_run):
        rep = analyze_run(finished_run)
        assert rep.num_shards == 3
        assert rep.point_tasks == len(finished_run.task_graph().tasks)
        assert rep.dependences == rep.cross_shard_edges + rep.local_edges
        assert sum(rep.points_per_shard.values()) == rep.point_tasks
        assert rep.operations == 1 + 4      # fill + 4 stencil steps

    def test_derived_metrics(self, finished_run):
        rep = analyze_run(finished_run)
        assert 0.0 <= rep.elision_rate <= 1.0
        assert rep.parallelism >= 1.0
        assert rep.load_imbalance >= 1.0
        assert rep.critical_path >= 5       # fill + 4 dependent steps

    def test_render_mentions_key_numbers(self, finished_run):
        text = analyze_run(finished_run).render()
        assert "cross-shard fences" in text
        assert "elision rate" in text
        assert "cells" in text              # fence pressure region name

    def test_profiler_metrics_section(self, finished_run):
        from repro.obs import Profiler

        rep = analyze_run(finished_run)
        assert rep.profiler_metrics == {}
        assert "profiler metrics:" not in rep.render()

        rt = Runtime(num_shards=3, profiler=Profiler().enable())
        rt.execute(stencil2d_control, 12, 4, 4)
        rep = analyze_run(rt)
        assert rep.profiler_metrics["pipeline.ops"] == rep.operations
        text = rep.render()
        assert "profiler metrics:" in text
        assert "coarse.scans" in text


class TestAnalysisReportEdgeCases:
    """Degenerate inputs the derived metrics must not divide-by-zero on."""

    def _empty(self, **overrides):
        from repro.tools import AnalysisReport

        base = dict(num_shards=1, operations=0, traced_operations=0,
                    point_tasks=0, dependences=0, critical_path=0,
                    fences=0, fences_elided=0)
        base.update(overrides)
        return AnalysisReport(**base)

    def test_load_imbalance_no_shards(self):
        assert self._empty().load_imbalance == 1.0

    def test_load_imbalance_zero_mean(self):
        rep = self._empty(points_per_shard={0: 0, 1: 0})
        assert rep.load_imbalance == 1.0

    def test_trace_hit_rate_zero_operations(self):
        assert self._empty().trace_hit_rate == 0.0

    def test_elision_rate_zero_fences(self):
        # Nothing inserted and nothing elided: vacuously perfect.
        assert self._empty().elision_rate == 1.0

    def test_parallelism_zero_critical_path(self):
        assert self._empty().parallelism == 0.0

    def test_render_of_empty_report_golden(self):
        """The exact degenerate rendering — locks the format and proves
        every derived metric survives an all-zero report."""
        text = self._empty().render()
        assert text == "\n".join([
            "DCR analysis report",
            "===================",
            "shards                : 1",
            "operations analyzed   : 0 (0 trace-replayed, 0% hit rate)",
            "tracing               : 0 fragments auto-identified, "
            "0 replay fallbacks, 0 scans saved (~0 bytes of analysis)",
            "point tasks           : 0",
            "dependences           : 0 (0 cross-shard, 0 shard-local)",
            "critical path         : 0 tasks (avg parallelism 0.0)",
            "cross-shard fences    : 0 inserted, 0 elided "
            "(100% elision rate)",
            "analysis load balance : 1.00x (max shard / mean)",
            "determinism checks    : 0 batches",
            "data moved            : 0 points / 0 bytes "
            "(directory-tracked)",
        ])


class TestDotExport:
    def test_task_graph_dot_structure(self, finished_run):
        dot = task_graph_dot(finished_run.task_graph())
        assert dot.startswith("digraph tasks {") and dot.endswith("}")
        assert "subgraph cluster_" in dot
        assert "->" in dot
        # Cross-shard edges are highlighted.
        assert "color=red" in dot

    def test_task_graph_size_guard(self, finished_run):
        with pytest.raises(ValueError):
            task_graph_dot(finished_run.task_graph(), max_tasks=2)

    def test_coarse_graph_dot(self, finished_run):
        dot = coarse_graph_dot(finished_run.coarse_result())
        assert dot.startswith("digraph coarse {")
        assert 'label="fence"' in dot


class TestCheckpoint:
    def _make_run(self, fill):
        def main(ctx):
            fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
            r = ctx.create_region(ctx.create_index_space(8), fs, "ckpt_r")
            ctx.fill(r, "x", fill)
            ctx.fill(r, "y", -fill)
            return r
        return main

    def test_save_then_load_roundtrip(self, tmp_path):
        rt = Runtime(num_shards=2)

        def producer(ctx):
            r = self._make_run(7.0)(ctx)
            from repro.tools import save_region
            save_region(ctx, r, str(tmp_path))
            return r

        rt.execute(producer)

        rt2 = Runtime(num_shards=2)

        def consumer(ctx):
            fs = ctx.create_field_space([("x", "f8"), ("y", "f8")])
            r = ctx.create_region(ctx.create_index_space(8), fs, "ckpt_r")
            ctx.fill(r, ["x", "y"], 0.0)
            load_region(ctx, r, str(tmp_path))
            return r

        r2 = rt2.execute(consumer)
        assert (rt2.store.raw(r2, r2.field_space["x"]) == 7.0).all()
        assert (rt2.store.raw(r2, r2.field_space["y"]) == -7.0).all()

    def test_missing_checkpoint_raises(self, tmp_path):
        rt = Runtime(num_shards=1)

        def consumer(ctx):
            fs = ctx.create_field_space([("x", "f8")])
            r = ctx.create_region(ctx.create_index_space(4), fs, "nope")
            load_region(ctx, r, str(tmp_path))

        with pytest.raises(FileNotFoundError):
            rt.execute(consumer)

    def test_partitioned_roundtrip(self, tmp_path):
        rt = Runtime(num_shards=2)

        def producer(ctx):
            fs = ctx.create_field_space([("x", "f8")])
            r = ctx.create_region(ctx.create_index_space(8), fs, "pr")
            tiles = ctx.partition_equal(r, 4, name="ptiles")

            def init(point, arg):
                arg["x"].view[...] = float(point)

            ctx.index_launch(init, range(4), [(tiles, "x", "rw")])
            save_partitioned(ctx, tiles, "x", str(tmp_path))
            return r

        rt.execute(producer)
        assert len(list(tmp_path.glob("*.npy"))) == 4

        rt2 = Runtime(num_shards=2)

        def consumer(ctx):
            fs = ctx.create_field_space([("x", "f8")])
            r = ctx.create_region(ctx.create_index_space(8), fs, "pr")
            tiles = ctx.partition_equal(r, 4, name="ptiles")
            ctx.fill(r, "x", 0.0)
            load_partitioned(ctx, tiles, "x", str(tmp_path))
            return r

        r2 = rt2.execute(consumer)
        got = rt2.store.raw(r2, r2.field_space["x"])
        assert list(got) == [0, 0, 1, 1, 2, 2, 3, 3]
