"""RecoveryReport JSON round-trips, and older reports still load."""

import json

from repro.faults.injector import ShardCrash
from repro.resilience import (RecoveryPolicy, RecoveryReport,
                              ResilienceConfig, plan_gang_recovery)


def roundtrip(report: RecoveryReport) -> RecoveryReport:
    return RecoveryReport.from_json(report.to_json())


#: A report as written while a heartbeat monitor watched serving gangs:
#: it carried the monitor's per-rank snapshot under ``suspicion``.
HEARTBEAT_ERA_REPORT = """{
  "policy": "restart",
  "action": "restart",
  "failure": "ShardCrash: shard 3 crashed at API call #9 (injected fault)",
  "culprit_shards": [3],
  "seq": 9,
  "attempt": 2,
  "diagnosis": null,
  "injected": [],
  "details": {"num_shards": 4, "new_width": 4, "retry": true},
  "suspicion": {
    "interval_s": 0.25, "phi_suspect": 4.0, "phi_dead": 8.0,
    "ranks": {
      "0": {"state": "suspected", "phi": 7.0, "beats": 1,
            "last_beat_age_s": 1.75, "suspected_at": 2.0, "dead_at": null},
      "3": {"state": "dead", "phi": 8.0, "beats": 0,
            "last_beat_age_s": 2.0, "suspected_at": 0.3, "dead_at": 0.3}
    }
  }
}"""


class TestRoundTrip:
    def test_every_policy_round_trips(self):
        failure = ShardCrash(2, 17, "injected fault")
        for policy in RecoveryPolicy:
            cfg = ResilienceConfig(policy=policy, max_recoveries=3)
            plan = plan_gang_recovery(cfg, failure, 4, 1)
            again = roundtrip(plan)
            assert again == plan
            assert again.policy == policy.value

    def test_old_report_with_suspicion_loads(self):
        cfg = ResilienceConfig(policy=RecoveryPolicy.RESTART,
                               max_recoveries=5)
        plan = plan_gang_recovery(cfg, ShardCrash(3, 9), 4, 2)
        old = RecoveryReport.from_json(HEARTBEAT_ERA_REPORT)
        assert old == plan
        assert not hasattr(old, "suspicion")
        assert "suspicion" not in json.loads(roundtrip(old).to_json())

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
