"""The fault injector itself: deterministic, one-shot, planned."""

import dataclasses

from repro.faults import FaultInjector, FaultPlan, PlannedCrash, PlannedFlip


class TestPlan:
    def test_empty_plan_is_disabled(self):
        assert not FaultPlan().any_faults
        assert not FaultInjector().enabled

    def test_any_planned_fault_enables(self):
        assert FaultPlan(flips=[PlannedFlip(0, 1)]).any_faults
        assert FaultPlan(crashes=[PlannedCrash(0, 1)]).any_faults
        assert FaultPlan(trace_corruptions=[0]).any_faults
        assert not FaultPlan(seed=7).any_faults
        assert not FaultPlan(reorder=True).any_faults

    def test_site_vocabulary_is_complete(self):
        """One list per planned site, the seed that picks a corrupted
        recording's victim entry and the queue's order, and the switch to
        the adversarial execution order."""
        assert [f.name for f in dataclasses.fields(FaultPlan)] == [
            "seed", "flips", "crashes", "trace_corruptions", "reorder"]


class TestDecisions:
    def test_planned_flip_fires_exactly_once(self):
        inj = FaultInjector(FaultPlan(seed=1, flips=[PlannedFlip(2, 13)]))
        assert not inj.flip_call(2, 12)
        assert inj.flip_call(2, 13)
        assert not inj.flip_call(2, 13)      # one-shot: recovery converges
        assert inj.injected == [("hash_flip", 2, 13)]

    def test_planned_crash_fires_exactly_once(self):
        inj = FaultInjector(FaultPlan(seed=1, crashes=[PlannedCrash(1, 5)]))
        assert inj.crash_call(1, 5)
        assert not inj.crash_call(1, 5)

    def test_decisions_are_order_independent(self):
        """A fault fires at the coordinates its plan names and nowhere
        else, no matter in what order the sites are reached."""
        planned = [(0, 3), (2, 17), (3, 31)]
        plan = FaultPlan(flips=[PlannedFlip(s, c) for s, c in planned])
        a, b = FaultInjector(plan), FaultInjector(plan)
        coords = [(s, c) for s in range(4) for c in range(32)]
        fwd = [a.flip_call(s, c) for s, c in coords]
        rev = [b.flip_call(s, c) for s, c in reversed(coords)]
        assert fwd == list(reversed(rev))
        assert [sc for sc, hit in zip(coords, fwd) if hit] == planned

    def test_seed_changes_decisions(self):
        """The seed picks which entry of a corrupted recording is hit."""
        def victims(seed):
            inj = FaultInjector(FaultPlan(seed=seed,
                                          trace_corruptions=list(range(8))))
            return [inj.corrupt_recording(r, 1000) for r in range(8)]
        assert victims(1) == victims(1)
        assert victims(1) != victims(2)

    def test_corrupt_recording_victim_is_deterministic(self):
        plan = FaultPlan(seed=4, trace_corruptions=[1])
        a, b = FaultInjector(plan), FaultInjector(plan)
        assert a.corrupt_recording(0, 10) is None
        v1, v2 = a.corrupt_recording(1, 10), b.corrupt_recording(1, 10)
        assert v1 == v2 and 0 <= v1 < 10
        assert a.corrupt_recording(1, 10) is None     # one-shot

    def test_corrupt_empty_recording_is_skipped(self):
        inj = FaultInjector(FaultPlan(seed=4, trace_corruptions=[0]))
        assert inj.corrupt_recording(0, 0) is None
