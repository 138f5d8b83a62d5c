"""Localization over randomized fault placement (Hypothesis).

Over every (shard count, culprit shard, call index) combination, a
single-shard divergence injected at *any* call index is detected and
localized to exactly that call within one batch window.  That a rebuilt
gang of any width builds the same graph and bytes is pinned by
``tests/integration/test_random_programs.py::test_replication_transparent``.
"""

from hypothesis import given, settings, strategies as st

from obs.test_zero_perturbation import make_control
from repro.core.determinism import ControlDeterminismViolation
from repro.faults import FaultInjector, FaultPlan, PlannedFlip
from repro.runtime import Runtime

SCRIPT = [(0, 1.0), (1, 2.0), (2, 0.0), (3, 0.0)] * 2


def run(shards, injector=None):
    rt = Runtime(num_shards=shards, injector=injector)
    rt.execute(make_control(SCRIPT))
    return rt


# The control stream is shard-count independent (that is the point of
# control replication), so one probe run fixes the call-index domain.
NCALLS = len(run(2).monitor.hashers[0].calls)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_flip_localized_to_exact_call(data):
    shards = data.draw(st.integers(2, 4), label="shards")
    culprit = data.draw(st.integers(0, shards - 1), label="culprit")
    idx = data.draw(st.integers(0, NCALLS - 1), label="call")
    inj = FaultInjector(FaultPlan(seed=7,
                                  flips=[PlannedFlip(culprit, idx)]))
    try:
        run(shards, injector=inj)
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

