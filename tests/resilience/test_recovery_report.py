"""RecoveryReport JSON round-trips, including the suspicion snapshot."""

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

    def test_suspicion_snapshot_survives_the_wire(self):
        cfg = ResilienceConfig(policy=RecoveryPolicy.RESTART,
                               max_recoveries=5)
        snap = suspicion_snapshot()
        plan = plan_gang_recovery(cfg, ShardCrash(3, 9), 4, 2,
                                  suspicion=snap)
        assert plan.action == "restart"
        assert plan.culprit_shards == [3]
        again = roundtrip(plan)
        assert again == plan
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
        # Keys that reports written by older versions carry:
        data["resync_source"] = "fresh-replay"
        data["respawns"] = 1
        assert RecoveryReport.from_dict(data) == plan
        # A report written under the deleted LOCALIZE policy still loads.
        old = dict(data, policy="localize", action="localize")
        assert RecoveryReport.from_dict(old).policy == "localize"


def test_legacy_policies_keep_exact_detail_keys():
    """The detail schema is pinned: existing consumers (and tests) rely
    on exactly these keys."""
    for policy in RecoveryPolicy:
        plan = plan_gang_recovery(ResilienceConfig(policy=policy),
                                  ShardCrash(0, 1), 4, 1)
        assert set(plan.details) == {"num_shards", "new_width", "retry"}
