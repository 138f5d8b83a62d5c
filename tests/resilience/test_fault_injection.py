"""The fault injector itself: deterministic, one-shot, env-configured."""

import pytest

from repro.faults import (FAULT_SITES, FaultInjector, FaultPlan,
                          MessageFault, PlannedCrash, PlannedFlip)


class TestPlan:
    def test_empty_plan_is_disabled(self):
        assert not FaultPlan().any_faults
        assert not FaultInjector().enabled

    def test_any_planned_fault_enables(self):
        assert FaultPlan(flips=[PlannedFlip(0, 1)]).any_faults
        assert FaultPlan(crashes=[PlannedCrash(0, 1)]).any_faults
        assert FaultPlan(message_faults=[MessageFault("", 0, 0)]).any_faults
        assert FaultPlan(trace_corruptions=[0]).any_faults
        assert FaultPlan(rates={"msg_drop": 0.5}).any_faults
        assert not FaultPlan(rates={"msg_drop": 0.0}).any_faults

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"cosmic_ray": 0.1})

    def test_rate_bounds_enforced(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"msg_drop": 1.5})

    def test_unknown_message_event_rejected(self):
        with pytest.raises(ValueError):
            MessageFault("allreduce", 0, 0, event="scramble")

    def test_from_env_requires_seed(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULT_RATE": "0.5"}) is None

    def test_from_env_defaults(self):
        plan = FaultPlan.from_env({"REPRO_FAULT_SEED": "7"})
        assert plan.seed == 7
        # Default chaos sites are the fully maskable ones.
        assert plan.rates == {"msg_delay": 0.001, "msg_dup": 0.001}

    def test_from_env_explicit_sites(self):
        plan = FaultPlan.from_env({
            "REPRO_FAULT_SEED": "0x10",
            "REPRO_FAULT_RATE": "0.25",
            "REPRO_FAULT_SITES": "hash_flip, shard_crash",
        })
        assert plan.seed == 16
        assert plan.rates == {"hash_flip": 0.25, "shard_crash": 0.25}

    def test_site_vocabulary_is_complete(self):
        assert set(FAULT_SITES) == {"hash_flip", "msg_drop", "msg_delay",
                                    "msg_dup", "shard_crash", "trace_corrupt",
                                    "hb_loss", "shard_stall"}


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
        """The same (site, indices) draw is identical no matter when or in
        what order it is evaluated — counter-based, not stateful."""
        plan = FaultPlan(seed=9, rates={"hash_flip": 0.3})
        a, b = FaultInjector(plan), FaultInjector(plan)
        coords = [(s, c) for s in range(4) for c in range(32)]
        fwd = [a.flip_call(s, c) for s, c in coords]
        rev = [b.flip_call(s, c) for s, c in reversed(coords)]
        assert fwd == list(reversed(rev))
        assert any(fwd)                      # rate 0.3 over 128 draws

    def test_seed_changes_decisions(self):
        def draws(seed):
            inj = FaultInjector(FaultPlan(seed=seed,
                                          rates={"hash_flip": 0.3}))
            return [inj.flip_call(s, c)
                    for s in range(4) for c in range(32)]
        assert draws(1) != draws(2)

    def test_probabilistic_rate_is_roughly_honored(self):
        inj = FaultInjector(FaultPlan(seed=5, rates={"msg_drop": 0.2}))
        hits = sum(inj.message_event("allreduce", op, msg, attempt=0)
                   == "drop"
                   for op in range(50) for msg in range(20))
        assert 100 <= hits <= 300            # 1000 draws at p=0.2

    def test_drop_rerolls_per_attempt(self):
        """A probabilistic drop must not deterministically re-drop every
        retransmission, or no retry could ever succeed."""
        inj = FaultInjector(FaultPlan(seed=5, rates={"msg_drop": 0.5}))
        outcomes = {inj.message_event("allreduce", op, 0, attempt)
                    for op in range(40) for attempt in range(4)}
        assert outcomes == {"drop", None}

    def test_delay_and_dup_only_on_first_transmission(self):
        inj = FaultInjector(FaultPlan(seed=5, rates={"msg_delay": 1.0}))
        assert inj.message_event("reduce", 0, 0, attempt=0) == "delay"
        assert inj.message_event("reduce", 0, 0, attempt=1) is None

    def test_planned_message_fault_matches_any_kind_when_blank(self):
        inj = FaultInjector(FaultPlan(seed=1, message_faults=[
            MessageFault("", 0, 0, attempts=1)]))
        assert inj.message_event("barrier", 0, 0, 0) == "drop"

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


class TestEnvConstruction:
    def test_from_env_disabled_without_seed(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert FaultInjector.from_env() is None

    def test_from_env_enabled_with_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "3")
        monkeypatch.setenv("REPRO_FAULT_SITES", "msg_delay")
        inj = FaultInjector.from_env()
        assert inj is not None and inj.enabled
        assert inj.plan.seed == 3
