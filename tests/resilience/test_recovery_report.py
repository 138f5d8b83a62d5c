"""RecoveryReport JSON round-trips, including the REJOIN fields."""

import json

from repro.dist.heartbeat import HeartbeatMonitor
from repro.faults.injector import ShardCrash
from repro.resilience import (RecoveryPolicy, RecoveryReport,
                              ResilienceConfig, plan_gang_recovery)


def roundtrip(report: RecoveryReport) -> RecoveryReport:
    return RecoveryReport.from_json(report.to_json())


def suspicion_snapshot():
    """A deterministic monitor snapshot from an injectable clock."""
    now = [50.0]
    mon = HeartbeatMonitor(4, 0.25, clock=lambda: now[0])
    mon.beat(0, at=50.25)
    mon.beat(1, at=50.25)
    now[0] = 50.3
    mon.force_dead(3, at=now[0])
    now[0] = 52.0
    mon.poll(now[0])
    return mon.snapshot(now[0])


class TestRoundTrip:
    def test_every_policy_round_trips(self):
        failure = ShardCrash(2, 17, "injected fault")
        for policy in RecoveryPolicy:
            cfg = ResilienceConfig(policy=policy, max_recoveries=3)
            plan = plan_gang_recovery(cfg, failure, 4, 1)
            again = roundtrip(plan)
            assert again == plan
            assert again.policy == policy.value

    def test_rejoin_fields_survive_the_wire(self):
        cfg = ResilienceConfig(policy=RecoveryPolicy.REJOIN,
                               max_recoveries=5, respawn_budget=3)
        snap = suspicion_snapshot()
        plan = plan_gang_recovery(cfg, ShardCrash(3, 9), 4, 2,
                                  respawns_used=1, suspicion=snap)
        assert plan.action == "respawn"
        assert plan.details["respawned"] == [3]
        assert plan.details["respawn_attempt"] == 2
        assert plan.details["respawn_budget"] == 3
        assert plan.details["backoff_s"] > 0
        again = roundtrip(plan)
        assert again == plan
        assert again.respawns == 1
        assert again.suspicion == snap
        assert again.suspicion["ranks"]["3"]["state"] == "dead"

    def test_suspicion_timestamps_deterministic_from_injectable_clock(self):
        """Monitor timestamps are relative to monitor start, so two
        identically driven monitors serialize byte-identically."""
        a = suspicion_snapshot()
        b = suspicion_snapshot()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        # And the absolute clock epoch (50.0) leaked nowhere.
        assert a["ranks"]["3"]["dead_at"] < 10.0

    def test_from_dict_ignores_unknown_fields(self):
        plan = plan_gang_recovery(
            ResilienceConfig(policy=RecoveryPolicy.RESTART),
            ShardCrash(0, 1), 2, 1)
        data = json.loads(plan.to_json())
        data["some_future_field"] = {"x": 1}
        data["resync_source"] = "fresh-replay"    # older reports carry it
        assert RecoveryReport.from_dict(data) == plan


class TestRejoinPlanning:
    def test_no_culprit_falls_back_to_restart(self):
        cfg = ResilienceConfig(policy=RecoveryPolicy.REJOIN)
        plan = plan_gang_recovery(cfg, RuntimeError("gang timeout"), 4, 1)
        assert plan.action == "restart"
        assert plan.details["fallback"] == "restart-no-culprit"
        assert plan.details["new_width"] == 4

    def test_budget_exhaustion_falls_back_to_degrade(self):
        cfg = ResilienceConfig(policy=RecoveryPolicy.REJOIN,
                               respawn_budget=2)
        plan = plan_gang_recovery(cfg, ShardCrash(1, 5), 4, 1,
                                  respawns_used=2)
        assert plan.action == "quarantine"
        assert plan.details["fallback"] == "degrade-budget-exhausted"
        assert plan.details["new_width"] == 3
        again = roundtrip(plan)
        assert again.details["fallback"] == "degrade-budget-exhausted"

    def test_respawn_backoff_is_deterministic_in_the_attempt(self):
        cfg = ResilienceConfig(policy=RecoveryPolicy.REJOIN,
                               respawn_budget=5)
        backoffs = [
            plan_gang_recovery(cfg, ShardCrash(1, 5), 4, 1,
                               respawns_used=u).details["backoff_s"]
            for u in range(3)]
        assert backoffs == [
            plan_gang_recovery(cfg, ShardCrash(1, 5), 4, 1,
                               respawns_used=u).details["backoff_s"]
            for u in range(3)]
        assert backoffs[0] < backoffs[1] < backoffs[2]

    def test_legacy_policies_keep_exact_detail_keys(self):
        """The pre-REJOIN detail schema is pinned: existing consumers
        (and tests) rely on exactly these keys for the old policies."""
        for policy, keys in [
                (RecoveryPolicy.DEGRADE, {"num_shards", "new_width",
                                          "retry"}),
                (RecoveryPolicy.RESTART, {"num_shards", "new_width",
                                          "retry"})]:
            plan = plan_gang_recovery(ResilienceConfig(policy=policy),
                                      ShardCrash(0, 1), 4, 1)
            assert set(plan.details) == keys
