"""Every fault site crossed with every applicable recovery policy.

The contract under test is Theorem 1 made operational: DEP_rep ≡ DEP_seq
means any shard subset recomputes the identical task graph, so a recovered
run must match a fault-free run exactly — same graph signature, same
region bytes, same reduction results.
"""

import json
import os

import numpy as np
import pytest

from obs.test_zero_perturbation import graph_signature, make_control
from repro.core.determinism import ControlDeterminismViolation
from repro.faults import (CollectiveTimeout, FaultInjector, FaultPlan,
                          MessageFault, PlannedCrash, PlannedFlip)
from repro.obs import Profiler
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.runtime import Runtime

SCRIPT = [(0, 1.0), (1, 2.0), (2, 0.0), (3, 0.0)] * 3


def run(injector=None, policy=None, shards=3, profiler=None, **res_kw):
    res = (ResilienceConfig(policy=policy, **res_kw)
           if policy is not None else None)
    kwargs = {"profiler": profiler} if profiler is not None else {}
    rt = Runtime(num_shards=shards, injector=injector, resilience=res,
                 **kwargs)
    region, totals = rt.execute(make_control(SCRIPT))
    x = rt.store.raw(region.tree_id, region.field_space["x"]).copy()
    return rt, totals, x


@pytest.fixture(scope="module")
def baseline():
    rt, totals, x = run()
    return graph_signature(rt), totals, x


def flip_at(shard, call, seed=1):
    return FaultInjector(FaultPlan(seed=seed,
                                   flips=[PlannedFlip(shard, call)]))


def crash_at(shard, call, seed=2):
    return FaultInjector(FaultPlan(seed=seed,
                                   crashes=[PlannedCrash(shard, call)]))


class TestHashFlip:
    def test_abort_raises_structured_violation(self):
        with pytest.raises(ControlDeterminismViolation) as exc:
            run(injector=flip_at(1, 5), policy=RecoveryPolicy.ABORT)
        assert "faulted" in str(exc.value)
        assert exc.value.divergent_shards is not None

    def test_abort_is_default_without_resilience(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_POLICY", raising=False)
        with pytest.raises(ControlDeterminismViolation):
            run(injector=flip_at(1, 5))

    def test_localize_names_call_and_shard(self):
        inj = flip_at(1, 5)
        with pytest.raises(ControlDeterminismViolation) as exc:
            run(injector=inj, policy=RecoveryPolicy.LOCALIZE)
        d = exc.value.diagnosis
        assert d is not None
        assert d.seq == 5
        assert d.divergent_shards == (1,)
        assert d.descriptions[1].endswith("[faulted]")
        assert inj.injected == [("hash_flip", 1, 5)]

    def test_degrade_quarantines_and_matches_baseline(self, baseline):
        sig0, totals0, x0 = baseline
        rt, totals, x = run(injector=flip_at(1, 5),
                            policy=RecoveryPolicy.DEGRADE)
        assert rt.quarantined == {1}
        assert graph_signature(rt) == sig0
        assert totals == totals0
        assert np.array_equal(x, x0)
        assert [r.action for r in rt.reports] == ["quarantine"]

    def test_degrade_of_driver_elects_new_driver(self, baseline):
        sig0, totals0, x0 = baseline
        rt, totals, x = run(injector=flip_at(0, 5),
                            policy=RecoveryPolicy.DEGRADE)
        # Two innocents vs one divergent: majority correctly blames 0 and
        # the driver role moves to the lowest surviving shard.
        assert rt.quarantined == {0}
        assert rt.driver_shard == 1
        assert graph_signature(rt) == sig0 and np.array_equal(x, x0)

    def test_restart_reexecutes_epoch(self, baseline):
        sig0, totals0, x0 = baseline
        rt, totals, x = run(injector=flip_at(2, 8),
                            policy=RecoveryPolicy.RESTART)
        assert rt.quarantined == set()       # full shard set retained
        assert graph_signature(rt) == sig0 and totals == totals0
        assert [r.action for r in rt.reports] == ["restart"]


class TestShardCrash:
    def test_abort_propagates_crash(self):
        from repro.faults import ShardCrash
        with pytest.raises(ShardCrash) as exc:
            run(injector=crash_at(1, 7), policy=RecoveryPolicy.ABORT)
        assert exc.value.shard == 1 and exc.value.seq == 7

    def test_restart_replica_rejoins_inline(self, baseline):
        sig0, totals0, x0 = baseline
        rt, totals, x = run(injector=crash_at(2, 7),
                            policy=RecoveryPolicy.RESTART)
        assert graph_signature(rt) == sig0
        assert totals == totals0 and np.array_equal(x, x0)
        # The replica was restored in place — no epoch restart.
        assert [r.action for r in rt.reports] == ["restart-replica"]

    def test_restart_driver_restarts_epoch(self, baseline):
        sig0, totals0, x0 = baseline
        rt, totals, x = run(injector=crash_at(0, 7),
                            policy=RecoveryPolicy.RESTART)
        assert graph_signature(rt) == sig0 and np.array_equal(x, x0)
        assert [r.action for r in rt.reports] == ["restart"]

    def test_degrade_quarantines_crashed_shard(self, baseline):
        sig0, totals0, x0 = baseline
        rt, totals, x = run(injector=crash_at(1, 3),
                            policy=RecoveryPolicy.DEGRADE)
        assert rt.quarantined == {1}
        assert graph_signature(rt) == sig0 and totals == totals0

    def test_degrade_down_to_single_shard(self, baseline):
        """Theorem 1's limit case: one surviving shard still recomputes
        the full graph."""
        sig0, totals0, x0 = baseline
        inj = FaultInjector(FaultPlan(seed=2, crashes=[
            PlannedCrash(1, 3), PlannedCrash(2, 4)]))
        rt, totals, x = run(injector=inj, policy=RecoveryPolicy.DEGRADE,
                            max_recoveries=3)
        assert rt.quarantined == {1, 2}
        assert graph_signature(rt) == sig0 and np.array_equal(x, x0)


class TestTraceCorruption:
    def _run_traced(self, injector=None):
        rt = Runtime(num_shards=2, auto_trace=True, injector=injector)
        region, totals = rt.execute(
            make_control([(0, 1.0), (1, 2.0), (3, 0.0)], repeat=4))
        x = rt.store.raw(region.tree_id, region.field_space["x"]).copy()
        y = rt.store.raw(region.tree_id, region.field_space["y"]).copy()
        return rt, totals, x, y

    def test_corrupted_trace_falls_back_safely(self):
        """A corrupted recording must not poison results: the replay
        mismatch drops the run into the safe non-traced path."""
        rt0, totals0, x0, y0 = self._run_traced()
        inj = FaultInjector(FaultPlan(seed=11, trace_corruptions=[0]))
        rt1, totals1, x1, y1 = self._run_traced(injector=inj)
        assert inj.injected and inj.injected[0][0] == "trace_corrupt"
        assert totals1 == totals0
        assert np.array_equal(x1, x0) and np.array_equal(y1, y0)
        # The fallback costs memoization, never correctness.
        assert rt1.pipeline.stats.traced_ops < rt0.pipeline.stats.traced_ops


class TestMessageFaults:
    def test_transient_drop_is_fully_masked(self, baseline):
        sig0, totals0, x0 = baseline
        inj = FaultInjector(FaultPlan(seed=3, message_faults=[
            MessageFault("", 0, 0, attempts=2)]))
        rt, totals, x = run(injector=inj)    # no resilience needed
        assert graph_signature(rt) == sig0 and totals == totals0
        assert rt.collectives.stats.retransmissions == 2

    def test_catastrophic_loss_times_out(self):
        inj = FaultInjector(FaultPlan(seed=3, message_faults=[
            MessageFault("", 0, 0, attempts=100)]))
        with pytest.raises(CollectiveTimeout):
            run(injector=inj, policy=RecoveryPolicy.DEGRADE)

    def test_masked_chaos_matches_baseline(self, baseline):
        sig0, totals0, x0 = baseline
        inj = FaultInjector(FaultPlan(seed=4, rates={"msg_delay": 0.1,
                                                     "msg_dup": 0.1}))
        rt, totals, x = run(injector=inj)
        assert graph_signature(rt) == sig0
        assert totals == totals0 and np.array_equal(x, x0)
        s = rt.collectives.stats
        assert s.delayed + s.duplicates > 0


class TestRecoveryMachinery:
    def test_max_recoveries_exhaustion_reraises(self):
        inj = FaultInjector(FaultPlan(seed=2, crashes=[PlannedCrash(1, 3)]))
        with pytest.raises(Exception):
            run(injector=inj, policy=RecoveryPolicy.DEGRADE,
                max_recoveries=0)

    def test_reports_written_to_disk(self, tmp_path, baseline):
        rt, totals, x = run(injector=flip_at(1, 5),
                            policy=RecoveryPolicy.DEGRADE,
                            report_dir=str(tmp_path))
        files = sorted(os.listdir(tmp_path))
        assert files == ["fault_report_001.json"]
        rep = json.loads((tmp_path / files[0]).read_text())
        assert rep["policy"] == "degrade"
        assert rep["action"] == "quarantine"
        assert rep["culprit_shards"] == [1]
        assert rep["injected"]           # the hash_flip that caused it

    def test_recovery_events_reach_profiler(self, baseline):
        prof = Profiler(enabled=True)
        rt, totals, x = run(injector=flip_at(1, 5),
                            policy=RecoveryPolicy.DEGRADE, profiler=prof)
        names = {e[3] for e in prof.events}
        assert "resilience.quarantine" in names
        assert "resilience.recover" in names
        assert "determinism.localize" in names

    def test_runtime_single_use_guard_still_applies(self):
        rt, totals, x = run()
        with pytest.raises(RuntimeError):
            rt.execute(make_control(SCRIPT))

    def test_cumulative_collective_stats_across_recovery(self, baseline):
        """Recovery resets analysis state but never the accounting."""
        rt, totals, x = run(injector=flip_at(1, 5),
                            policy=RecoveryPolicy.DEGRADE)
        rt_clean, _, _ = run()
        assert (rt.collectives.stats.operations
                > rt_clean.collectives.stats.operations)
