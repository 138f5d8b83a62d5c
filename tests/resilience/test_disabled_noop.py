"""Faults disabled (the default) must be a zero-behavior change.

Three configurations have to be indistinguishable at the analysis level:
no injector at all (the pre-faults runtime), an injector with an empty
plan (``enabled`` is False, so every site guard short-circuits), and the
env-driven default when no ``REPRO_FAULT_*`` variables are set.
"""

import numpy as np

from obs.test_zero_perturbation import analysis_signature, make_control
from repro.faults import FaultInjector, FaultPlan
from repro.runtime import Runtime

SCRIPT = [(0, 1.5), (2, 0.0), (3, 0.0), (1, 0.75)] * 2


def run(**kwargs):
    rt = Runtime(num_shards=3, **kwargs)
    region, totals = rt.execute(make_control(SCRIPT))
    x = rt.store.raw(region.tree_id, region.field_space["x"]).copy()
    y = rt.store.raw(region.tree_id, region.field_space["y"]).copy()
    return rt, totals, x, y


def test_empty_plan_injector_changes_nothing():
    rt0, totals0, x0, y0 = run()
    rt1, totals1, x1, y1 = run(injector=FaultInjector(FaultPlan(seed=99)))
    assert not rt1.injector.enabled
    assert analysis_signature(rt0) == analysis_signature(rt1)
    assert totals0 == totals1
    assert np.array_equal(x0, x1) and np.array_equal(y0, y1)
    assert rt1.injector.injected == []


def test_no_env_means_no_injector_and_no_resilience(monkeypatch):
    for var in ("REPRO_FAULT_SEED", "REPRO_FAULT_POLICY",
                "REPRO_FAULT_RATE", "REPRO_FAULT_SITES"):
        monkeypatch.delenv(var, raising=False)
    rt, totals, x, y = run()
    assert rt.injector is None
    assert rt.resilience is None


def test_env_defaults_applied(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "5")
    monkeypatch.setenv("REPRO_FAULT_POLICY", "degrade")
    rt = Runtime(num_shards=2)
    assert rt.injector is not None and rt.injector.plan.seed == 5
    from repro.resilience import RecoveryPolicy
    assert rt.resilience.policy is RecoveryPolicy.DEGRADE


def test_collective_stats_identical_when_disabled():
    rt0, *_ = run()
    rt1, *_ = run(injector=FaultInjector(FaultPlan(seed=99)))
    s0, s1 = rt0.collectives.stats, rt1.collectives.stats
    assert (s0.operations, s0.rounds, s0.messages) \
        == (s1.operations, s1.rounds, s1.messages)
    assert (s1.retransmissions, s1.duplicates, s1.delayed, s1.timeouts) \
        == (0, 0, 0, 0)
