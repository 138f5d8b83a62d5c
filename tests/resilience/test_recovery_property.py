"""Recovery properties over randomized fault placement (Hypothesis).

Two paper-level guarantees, held over every (shard count, culprit shard,
call index) combination:

* a single-shard divergence injected at *any* call index is detected and
  localized to exactly that call within one batch window;
* the DEGRADE-recovered task graph is identical to the fault-free graph
  (Theorem 1: any surviving subset recomputes DEP_seq).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from obs.test_zero_perturbation import graph_signature, make_control
from repro.core.determinism import ControlDeterminismViolation
from repro.faults import FaultInjector, FaultPlan, PlannedFlip
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.runtime import Runtime

SCRIPT = [(0, 1.0), (1, 2.0), (2, 0.0), (3, 0.0)] * 2


def run(shards, injector=None, policy=None):
    res = ResilienceConfig(policy=policy) if policy is not None else None
    rt = Runtime(num_shards=shards, injector=injector, resilience=res)
    region, totals = rt.execute(make_control(SCRIPT))
    x = rt.store.raw(region.tree_id, region.field_space["x"]).copy()
    return rt, totals, x


# The control stream is shard-count independent (that is the point of
# control replication), so one probe run fixes the call-index domain.
_probe, _, _ = run(2)
NCALLS = len(_probe.monitor.hashers[0].calls)

_baselines = {}


def baseline(shards):
    if shards not in _baselines:
        rt, totals, x = run(shards)
        _baselines[shards] = (graph_signature(rt), totals, x)
    return _baselines[shards]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_flip_localized_to_exact_call(data):
    shards = data.draw(st.integers(2, 4), label="shards")
    culprit = data.draw(st.integers(0, shards - 1), label="culprit")
    idx = data.draw(st.integers(0, NCALLS - 1), label="call")
    inj = FaultInjector(FaultPlan(seed=7,
                                  flips=[PlannedFlip(culprit, idx)]))
    try:
        run(shards, injector=inj, policy=RecoveryPolicy.LOCALIZE)
        raise AssertionError("flip was not detected")
    except ControlDeterminismViolation as e:
        d = e.diagnosis
        assert d is not None
        assert d.seq == idx
        assert len(d.divergent_shards) == 1
        if shards > 2:
            # A strict majority of innocents pins the culprit exactly; a
            # 1-vs-1 split can only say *that* the shards diverged.
            assert d.divergent_shards == (culprit,)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_degrade_graph_identical_to_fault_free(data):
    shards = data.draw(st.integers(2, 4), label="shards")
    culprit = data.draw(st.integers(0, shards - 1), label="culprit")
    idx = data.draw(st.integers(0, NCALLS - 1), label="call")
    sig0, totals0, x0 = baseline(shards)
    inj = FaultInjector(FaultPlan(seed=7,
                                  flips=[PlannedFlip(culprit, idx)]))
    rt, totals, x = run(shards, injector=inj,
                        policy=RecoveryPolicy.DEGRADE)
    assert len(rt.quarantined) == 1
    assert graph_signature(rt) == sig0
    assert totals == totals0
    assert np.array_equal(x, x0)
