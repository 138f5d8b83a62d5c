"""Execution models over synthetic programs: each model's defining behavior."""

import math

import numpy as np
import pytest

from repro.models import (DaskModel, DCRModel, ExplicitModel,
                          LegionNoCRModel, SCRInapplicable, SCRModel,
                          TensorFlowModel)
from repro.sim import DepSpec, MachineSpec, ProcKind, SimOp, SimProgram


def machine(nodes=8, gpus=1, cpus=1):
    return MachineSpec("test", nodes=nodes, cpus_per_node=cpus,
                       gpus_per_node=gpus)


def chain_program(points, grain=1e-3, iters=8, warm=2, fence_every=True,
                  scr_ok=True, traced=True, kind=ProcKind.CPU):
    """CPU ops by default so GPU host-staging costs don't blur the
    runtime-overhead comparisons these tests isolate."""
    prog = SimProgram("chain", scr_applicable=scr_ok)
    prog.work_per_iteration = 1.0
    prev = None
    for it in range(warm + iters):
        start = prog.begin_iteration() if it >= warm else None
        deps = [DepSpec(prev, "halo", 4096, (-1, 1))] if prev is not None \
            else []
        prev = prog.add(SimOp(f"s[{it}]", points, grain, deps=deps,
                              proc_kind=kind, fence=fence_every,
                              traced=traced and it > 0))
        if it >= warm:
            prog.end_iteration(start)
    return prog


class TestDCRModel:
    def test_analysis_hidden_under_large_grain(self):
        m = machine(16)
        r = DCRModel(m).run(chain_program(16, grain=5e-3))
        assert r.iteration_time == pytest.approx(5e-3, rel=0.15)

    def test_analysis_bound_at_tiny_grain(self):
        m = machine(16)
        r = DCRModel(m).run(chain_program(16, grain=1e-7, traced=False))
        # Each iteration costs at least the coarse+fine analysis charge.
        assert r.iteration_time > 40e-6

    def test_tracing_reduces_analysis(self):
        m = machine(16)
        traced = DCRModel(m, tracing=True).run(
            chain_program(16, grain=1e-7))
        untraced = DCRModel(m, tracing=False).run(
            chain_program(16, grain=1e-7, traced=False))
        assert traced.iteration_time < untraced.iteration_time

    def test_safe_checks_cost_is_small(self):
        m = machine(16)
        safe = DCRModel(m, safe_checks=True).run(chain_program(16, 1e-6))
        unsafe = DCRModel(m, safe_checks=False).run(chain_program(16, 1e-6))
        assert safe.iteration_time <= unsafe.iteration_time * 1.3

    def test_shards_per_gpu(self):
        m = machine(4, gpus=4)
        r = DCRModel(m, shards_per="gpu").run(chain_program(16, 1e-3))
        assert r.iteration_time > 0

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            DCRModel(machine(), shards_per="rack")
        with pytest.raises(ValueError):
            DCRModel(machine(), sharding="random")

    def test_fence_annotations_used_without_real_ops(self):
        m = machine(8)
        fenced = DCRModel(m).run(chain_program(8, 1e-6, fence_every=True,
                                               traced=False))
        unfenced = DCRModel(m).run(chain_program(8, 1e-6, fence_every=False,
                                                 traced=False))
        assert fenced.iteration_time > unfenced.iteration_time

    def test_fence_latency_reads_the_barrier_schedule(self):
        """The model charges a fence the rounds the collectives execute.
        Dissemination is ceil(log2 n) rounds at every n (none at n = 1) —
        the formula the model used to carry — so no pinned number moved."""
        from repro.core.collectives import schedule

        for n in (*range(1, 10), 64, 512):
            model = DCRModel(machine(n))
            model.begin_run(chain_program(n, iters=1, warm=0))
            rounds = math.ceil(math.log2(n))
            assert len(schedule("barrier", n).rounds) == rounds
            assert model._fence_latency == model.costs.fence_hop * rounds


class TestCentralizedModels:
    def test_controller_collapse_scales_with_points(self):
        grain = 1e-3
        small = LegionNoCRModel(machine(4)).run(chain_program(4, grain))
        big = LegionNoCRModel(machine(256)).run(chain_program(256, grain))
        assert small.iteration_time == pytest.approx(grain, rel=0.2)
        assert big.iteration_time > 5 * grain

    def test_dask_pays_every_iteration(self):
        m = machine(32)
        dask = DaskModel(m).run(chain_program(32, 1e-4, traced=True))
        tf = TensorFlowModel(m).run(chain_program(32, 1e-4, traced=True))
        # TF's cached graph amortizes analysis; Dask re-pays per iteration.
        assert dask.iteration_time > 3 * tf.iteration_time

    def test_tf_first_iteration_expensive_then_cheap(self):
        m = machine(64)
        r = TensorFlowModel(m).run(chain_program(64, 1e-4, traced=True))
        assert r.iteration_time < 5e-4


class TestSCRModel:
    def test_near_zero_overhead(self):
        m = machine(64)
        r = SCRModel(m).run(chain_program(64, 1e-4))
        assert r.iteration_time < 1.5e-4

    def test_inapplicable_program_rejected(self):
        m = machine(4)
        with pytest.raises(SCRInapplicable):
            SCRModel(m).run(chain_program(4, 1e-3, scr_ok=False))


class TestExplicitModel:
    def test_no_runtime_overhead(self):
        m = machine(64)
        r = ExplicitModel(m).run(chain_program(64, 1e-4))
        assert r.iteration_time < 1.3e-4

    def test_intra_via_host_slows_gpu_exchanges(self):
        m = machine(4, gpus=8)
        fast = ExplicitModel(m.with_gpudirect(True)).run(
            chain_program(32, 1e-4, kind=ProcKind.GPU))
        slow = ExplicitModel(m, intra_via_host=True).run(
            chain_program(32, 1e-4, kind=ProcKind.GPU))
        assert slow.iteration_time > fast.iteration_time


class TestExecutorMechanics:
    def test_processor_serialization(self):
        """More points than processors: work serializes on each proc."""
        m = machine(2, gpus=1)
        prog = SimProgram("wide")
        start = prog.begin_iteration()
        prog.add(SimOp("w", 8, 1e-3))           # 8 points, 2 procs
        prog.end_iteration(start)
        r = ExplicitModel(m).run(prog)
        assert r.makespan >= 4e-3

    def test_all_dependence_is_a_collective(self):
        m = machine(8)
        prog = SimProgram("reduce")
        a = prog.add(SimOp("produce", 8, 1e-4))
        prog.add(SimOp("consume", 8, 1e-4,
                       deps=[DepSpec(a, "all", 1e6)]))
        r = ExplicitModel(m).run(prog)
        assert r.makespan > 2e-4     # collective time visible

    def test_results_deterministic(self):
        m = machine(16)
        a = DCRModel(m).run(chain_program(16, 1e-4))
        b = DCRModel(m).run(chain_program(16, 1e-4))
        assert a.iteration_time == b.iteration_time
        assert a.makespan == b.makespan

    def test_throughput_per_node(self):
        m = machine(10)
        r = ExplicitModel(m).run(chain_program(10, 1e-3))
        assert r.throughput_per_node == pytest.approx(r.throughput / 10)


class TestResultMetrics:
    def test_utilization_bounds(self):
        m = machine(8)
        r = ExplicitModel(m).run(chain_program(8, 1e-3))
        assert 0.0 < r.utilization <= 1.0
        assert r.proc_count == 8

    def test_high_utilization_for_compute_bound(self):
        m = machine(4)
        r = ExplicitModel(m).run(chain_program(4, 1e-2))
        assert r.utilization > 0.9

    def test_low_utilization_when_controller_bound(self):
        m = machine(128)
        r = LegionNoCRModel(m).run(chain_program(128, 1e-4))
        assert r.utilization < 0.3

    def test_analysis_fraction(self):
        m = machine(16)
        hidden = DCRModel(m).run(chain_program(16, 1e-2))
        assert hidden.analysis_fraction < 0.5
        bound = LegionNoCRModel(m).run(chain_program(16, 1e-5, traced=False))
        assert bound.analysis_fraction > 0.5


class TestHeterogeneousPrograms:
    def test_mixed_cpu_gpu_ops(self):
        """A program whose ops alternate processor kinds schedules each on
        its own processor pool with cross-kind dependences intact."""
        m = machine(4, gpus=2, cpus=4)
        prog = SimProgram("hetero")
        start = prog.begin_iteration()
        a = prog.add(SimOp("gpu_compute", 8, 1e-3, proc_kind=ProcKind.GPU))
        b = prog.add(SimOp("cpu_post", 16, 1e-4, proc_kind=ProcKind.CPU,
                           deps=[DepSpec(a, "pointwise", 1024.0)]))
        prog.add(SimOp("gpu_next", 8, 1e-3, proc_kind=ProcKind.GPU,
                       deps=[DepSpec(b, "pointwise", 1024.0)]))
        prog.end_iteration(start)
        r = ExplicitModel(m).run(prog)
        # Serial chain: at least the sum of the three stages.
        assert r.makespan >= 1e-3 + 1e-4 + 1e-3
        assert r.proc_count == 16            # dominant kind: CPUs

    def test_gpu_pool_oversubscription_only_affects_gpu_ops(self):
        m = machine(2, gpus=1, cpus=8)
        prog = SimProgram("wide-gpu")
        start = prog.begin_iteration()
        prog.add(SimOp("g", 8, 1e-3, proc_kind=ProcKind.GPU))  # 8 on 2 GPUs
        prog.add(SimOp("c", 8, 1e-3, proc_kind=ProcKind.CPU))  # 8 on 16 CPUs
        prog.end_iteration(start)
        r = ExplicitModel(m).run(prog)
        assert r.op_done[0] >= 4e-3          # GPU serialization
        assert r.op_done[1] <= r.op_done[0]  # CPUs never the bottleneck


class TestAnalysisBlocking:
    def _build(self, blocking, grain=5e-5, nodes=8, iters=10):
        prog = SimProgram("blk")
        prog.work_per_iteration = 1.0
        prev = None
        for it in range(iters):
            start = prog.begin_iteration() if it >= 2 else None
            deps = [DepSpec(prev, "pointwise", 0.0)] \
                if prev is not None else []
            prev = prog.add(SimOp(
                f"w[{it}]", nodes, grain, deps=deps,
                proc_kind=ProcKind.CPU, fence=True, traced=it > 0))
            prev = prog.add(SimOp(
                f"r[{it}]", 1, 1e-6, deps=[DepSpec(prev, "all", 1e6)],
                proc_kind=ProcKind.CPU, fence=False, traced=it > 0,
                blocks_analysis=blocking))
            if it >= 2:
                prog.end_iteration(start)
        return prog

    def test_future_read_costs_latency_each_iteration(self):
        """An op whose future the control program reads (blocks_analysis)
        keeps the analysis from running ahead — like Pennant's dt
        reduction, it exposes the collective's latency every iteration."""
        m = machine(8, gpus=0, cpus=1)
        free = DCRModel(m).run(self._build(False))
        stalled = DCRModel(m).run(self._build(True))
        assert stalled.iteration_time > free.iteration_time

    def test_blocking_cost_grows_with_scale(self):
        """The exposed latency grows with node count (paper: 'incurs
        additional latency with increased processor counts')."""
        def overhead(nodes):
            m = machine(nodes, gpus=0, cpus=1)
            free = DCRModel(m).run(self._build(False, nodes=nodes))
            stalled = DCRModel(m).run(self._build(True, nodes=nodes))
            return stalled.iteration_time - free.iteration_time

        assert overhead(64) > overhead(4)

    def test_blocking_invisible_at_coarse_grain(self):
        """When tasks are long, the stalled analysis still catches up."""
        m = machine(8, gpus=0, cpus=1)
        free = DCRModel(m).run(self._build(False, grain=5e-3))
        stalled = DCRModel(m).run(self._build(True, grain=5e-3))
        assert stalled.iteration_time <= free.iteration_time * 1.02


class TestSparkModel:
    def test_between_dask_and_tensorflow(self):
        """Spark memoizes repeated stages: cheaper than Dask's full
        re-analysis, costlier than TF's per-trigger replay (§1's taxonomy
        of lazy-evaluation mitigations)."""
        from repro.models import SparkModel

        m = machine(32)
        dask = DaskModel(m).run(chain_program(32, 1e-4, traced=True))
        spark = SparkModel(m).run(chain_program(32, 1e-4, traced=True))
        tf = TensorFlowModel(m).run(chain_program(32, 1e-4, traced=True))
        assert tf.iteration_time <= spark.iteration_time
        assert spark.iteration_time < dask.iteration_time

    def test_first_iteration_full_cost(self):
        from repro.models import SparkModel

        m = machine(16)
        r = SparkModel(m).run(chain_program(16, 1e-4, traced=False))
        # Untraced stages pay per-point analysis: the controller is busy.
        assert r.analysis_busy > 16 * 8 * 5e-5
