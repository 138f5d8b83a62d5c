"""Mapper policies: per-task sharding (Fig. 11) and auto-replication."""

import numpy as np
import pytest

from repro.apps.stencil import reference_stencil2d, stencil2d_control
from repro.core.sharding import BLOCKED, CYCLIC
from repro.runtime import (AutoReplicationMapper, DefaultMapper,
                           PerTaskMapper, Runtime)
from repro.runtime.mapper import Mapper


class TestPerTaskMapper:
    def test_overrides_by_task_name(self):
        m = PerTaskMapper({"mul_two": BLOCKED}, default=CYCLIC)
        assert m.select_sharding("task", "mul_two") is BLOCKED
        assert m.select_sharding("task", "stencil") is CYCLIC

    def test_fig11_fence_difference(self):
        """The paper's Fig. 11: mul_two with a different sharding function
        forces a fence on the mul_two -> stencil dependence that the same-
        sharding configuration elides."""
        def program(ctx):
            fs = ctx.create_field_space([("state", "f8"), ("flux", "f8")])
            cells = ctx.create_region(ctx.create_index_space(16), fs, "c")
            owned = ctx.partition_equal(cells, 4, name="owned")
            interior = ctx.partition_equal(cells, 4, name="interior")
            ghost = ctx.partition_ghost(cells, owned, 1, name="ghost")
            ctx.fill(cells, ["state", "flux"], 1.0)

            def add_one(point, c):
                c["state"].view[...] += 1.0

            def mul_two(point, c):
                c["flux"].view[...] *= 2.0

            def stencil(point, c, g):
                c["flux"].view[...] += 1.0

            dom = list(range(4))
            ctx.index_launch(add_one, dom, [(owned, "state", "rw")])
            ctx.index_launch(mul_two, dom, [(interior, "flux", "rw")])
            ctx.index_launch(stencil, dom, [(interior, "flux", "rw"),
                                            (ghost, "state", "ro")])

        same = Runtime(num_shards=2, mapper=DefaultMapper(CYCLIC))
        same.execute(program)
        mixed = Runtime(num_shards=2,
                        mapper=PerTaskMapper({"mul_two": BLOCKED},
                                             default=CYCLIC))
        mixed.execute(program)
        # Same-sharding run elides the interior-flux fence; mixed sharding
        # must insert at least one more fence (Fig. 11's red edge).
        assert len(mixed.coarse_result().fences) > \
            len(same.coarse_result().fences)
        mixed.pipeline.validate()

    def test_mixed_sharding_results_still_correct(self):
        rt = Runtime(num_shards=3,
                     mapper=PerTaskMapper({"_stencil_task": BLOCKED},
                                          default=CYCLIC))
        cells = rt.execute(stencil2d_control, 12, 4, 4)
        got = rt.store.raw(cells, cells.field_space["a"])
        assert np.allclose(got, reference_stencil2d(12, 4))


class TestAutoReplicationMapper:
    def test_single_node_declines(self):
        m = AutoReplicationMapper(num_nodes=1)
        assert not m.replicate_task("main")
        assert m.select_num_shards(1) == 1

    def test_multi_node_replicates(self):
        m = AutoReplicationMapper(num_nodes=16)
        assert m.replicate_task("main")
        assert m.select_num_shards(16) == 16
        assert m.select_sharding("task", "anything") is BLOCKED

    def test_runs_programs(self):
        rt = Runtime(num_shards=4, mapper=AutoReplicationMapper(4))
        cells = rt.execute(stencil2d_control, 12, 4, 3)
        got = rt.store.raw(cells, cells.field_space["b"])
        assert np.allclose(got, reference_stencil2d(12, 3))


class TestMapperInterface:
    def test_abstract_hooks_raise(self):
        m = Mapper()
        with pytest.raises(NotImplementedError):
            m.replicate_task("t")
        with pytest.raises(NotImplementedError):
            m.select_sharding("task", "t")
        assert m.select_num_shards(8) == 8
