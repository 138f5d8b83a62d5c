"""Every fault site a ``Runtime`` run can hit, and what it raises.

A ``Runtime`` detects and localizes; it heals nothing.  A hash flip raises
the structured :class:`ControlDeterminismViolation` with its LOCALIZE
diagnosis, a crash raises the :class:`ShardCrash`, and a corrupted trace
recording falls back to fresh analysis without changing any result.
Rebuilding after a failure is the serving gang's job
(``tests/service/test_service_resilience.py``).
"""

import numpy as np
import pytest

from obs.test_zero_perturbation import make_control
from repro.core.determinism import ControlDeterminismViolation
from repro.faults import (FaultInjector, FaultPlan, PlannedCrash, PlannedFlip,
                          ShardCrash)
from repro.obs import Profiler
from repro.runtime import Runtime

SCRIPT = [(0, 1.0), (1, 2.0), (2, 0.0), (3, 0.0)] * 3


def run(injector=None, shards=3, profiler=None):
    kwargs = {"profiler": profiler} if profiler is not None else {}
    rt = Runtime(num_shards=shards, injector=injector, **kwargs)
    region, totals = rt.execute(make_control(SCRIPT))
    x = rt.store.raw(region, region.field_space["x"]).copy()
    return rt, totals, x


def flip_at(shard, call, seed=1):
    return FaultInjector(FaultPlan(seed=seed,
                                   flips=[PlannedFlip(shard, call)]))


def crash_at(shard, call, seed=2):
    return FaultInjector(FaultPlan(seed=seed,
                                   crashes=[PlannedCrash(shard, call)]))


class TestHashFlip:
    def test_abort_raises_structured_violation(self):
        with pytest.raises(ControlDeterminismViolation) as exc:
            run(injector=flip_at(1, 5))
        assert "faulted" in str(exc.value)
        assert exc.value.divergent_shards is not None

    def test_abort_is_default_without_resilience(self):
        """The driver is not special: a flip on shard 0 raises too, and
        the innocent majority names it."""
        with pytest.raises(ControlDeterminismViolation) as exc:
            run(injector=flip_at(0, 5))
        assert exc.value.divergent_shards == [0]

    def test_localize_names_call_and_shard(self):
        inj = flip_at(1, 5)
        with pytest.raises(ControlDeterminismViolation) as exc:
            run(injector=inj)
        d = exc.value.diagnosis
        assert d is not None
        assert d.seq == 5
        assert d.divergent_shards == (1,)
        assert d.descriptions[1].endswith("[faulted]")
        assert inj.injected == [("hash_flip", 1, 5)]


class TestShardCrash:
    def test_abort_propagates_crash(self):
        with pytest.raises(ShardCrash) as exc:
            run(injector=crash_at(1, 7))
        assert exc.value.shard == 1 and exc.value.seq == 7


class TestTraceCorruption:
    def _run_traced(self, injector=None):
        rt = Runtime(num_shards=2, auto_trace=True, injector=injector)
        region, totals = rt.execute(
            make_control([(0, 1.0), (1, 2.0), (3, 0.0)], repeat=4))
        x = rt.store.raw(region, region.field_space["x"]).copy()
        y = rt.store.raw(region, region.field_space["y"]).copy()
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


class TestRecoveryMachinery:
    def test_recovery_events_reach_profiler(self):
        """Detection is what a run reports: the localization span of a
        violation and the crash instant of a killed replay."""
        prof = Profiler(enabled=True)
        with pytest.raises(ControlDeterminismViolation):
            run(injector=flip_at(1, 5), profiler=prof)
        assert "determinism.localize" in {e[3] for e in prof.events}
        prof = Profiler(enabled=True)
        with pytest.raises(ShardCrash):
            run(injector=crash_at(2, 7), profiler=prof)
        assert "fault.crash" in {e[3] for e in prof.events}
        assert prof.metrics.counters["faults.crashes"] == 1

    def test_runtime_single_use_guard_still_applies(self):
        rt, totals, x = run()
        with pytest.raises(RuntimeError):
            rt.execute(make_control(SCRIPT))
