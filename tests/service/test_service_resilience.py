"""The service survives shard crashes mid-stream, per recovery policy."""

import glob
import json
import multiprocessing

import pytest

from repro.dist import run_reference, stencil_program
from repro.faults.plan import FaultPlan, PlannedCrash
from repro.resilience import (RecoveryPolicy, ResilienceConfig,
                              plan_gang_recovery)
from repro.service import DCRService, GangFailure

SPEC = stencil_program(6, steps=2)


def _crash(shard, call=5):
    return FaultPlan(crashes=[PlannedCrash(shard=shard, call=call)])


def _service(policy, report_dir=None, shards=3, backend="loopback",
             max_recoveries=2):
    cfg = ResilienceConfig(policy=policy, max_recoveries=max_recoveries,
                           report_dir=str(report_dir) if report_dir
                           else None)
    return DCRService(shards, backend=backend, resilience=cfg,
                      deadline_s=3.0, job_timeout_s=30.0)


def test_restart_rebuilds_full_width_and_reruns(tmp_path):
    with _service(RecoveryPolicy.RESTART, tmp_path) as svc:
        session = svc.open_session("s")
        before = session.run(SPEC)
        poisoned = session.submit(SPEC, fault=_crash(shard=1))
        recovered = poisoned.result(timeout=120.0)
        after = session.run(SPEC)
    assert recovered.conformant and after.conformant
    assert svc.num_shards == 3                     # full width restored
    assert svc.stats()["recoveries"] == 1
    # The re-executed submission produced the artifacts a fault-free run
    # would have (Theorem 1: re-analysis is equivalent).
    assert recovered.determinism_digest == before.determinism_digest
    assert recovered.graph_digest == before.graph_digest
    reports = sorted(glob.glob(str(tmp_path / "fault_report_*.json")))
    assert len(reports) == 1
    body = json.loads(open(reports[0]).read())
    assert body["action"] == "restart"
    assert body["culprit_shards"] == [1]
    assert body["details"]["retry"] is True


def test_degrade_shrinks_gang_and_keeps_serving(tmp_path):
    with _service(RecoveryPolicy.DEGRADE, tmp_path) as svc:
        session = svc.open_session("s")
        session.run(SPEC)
        recovered = session.submit(
            SPEC, fault=_crash(shard=2)).result(timeout=120.0)
        after = session.run(SPEC)
    assert svc.num_shards == 2                     # one shard narrower
    assert recovered.conformant and recovered.num_shards == 2
    # Theorem 1 at the new width: same graph as a native 2-shard run.
    ref = run_reference(SPEC, 2)
    assert recovered.graph_digest == ref.graph_digest
    assert recovered.determinism_digest == ref.determinism_digest
    # Templates are width-keyed: the post-recovery repeat re-recorded at
    # width 2 and the next submission hits the *new* template.
    assert not recovered.template_hit and after.template_hit
    body = json.loads(open(glob.glob(
        str(tmp_path / "fault_report_*.json"))[0]).read())
    assert body["action"] == "quarantine"
    assert body["details"]["new_width"] == 2


def test_abort_fails_job_but_service_survives():
    with _service(RecoveryPolicy.ABORT) as svc:
        session = svc.open_session("s")
        poisoned = session.submit(SPEC, fault=_crash(shard=0))
        with pytest.raises(GangFailure) as info:
            poisoned.result(timeout=120.0)
        assert 0 in info.value.culprit_shards
        # The gang was still rebuilt: the next submission succeeds.
        assert session.run(SPEC).conformant
        assert svc.stats()["recoveries"] == 1


def test_recovery_budget_exhaustion_stops_admission():
    with _service(RecoveryPolicy.RESTART, max_recoveries=0) as svc:
        session = svc.open_session("s")
        with pytest.raises(GangFailure):
            session.submit(SPEC, fault=_crash(shard=1)).result(timeout=120.0)
        with pytest.raises(RuntimeError, match="recovery budget exhausted"):
            session.submit(SPEC)


def test_forked_gang_crash_recovers():
    """The fork backend: a dead worker process, detected via socket EOF."""
    with _service(RecoveryPolicy.RESTART,
                  backend="tcp") as svc:
        session = svc.open_session("s")
        recovered = session.submit(
            SPEC, fault=_crash(shard=1)).result(timeout=120.0)
        after = session.run(SPEC)
    assert recovered.conformant and after.conformant
    assert after.template_hit
    assert svc.stats()["recoveries"] == 1
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-svc-shard-")]


def test_plan_gang_recovery_matrix():
    cfg = ResilienceConfig(policy=RecoveryPolicy.DEGRADE, max_recoveries=3)
    failure = GangFailure("j", ["shard 1: ShardCrash: boom"], [1])
    plan = plan_gang_recovery(cfg, failure, num_shards=4, attempt=1)
    assert plan.details == {"num_shards": 4, "new_width": 3, "retry": True}
    assert plan.culprit_shards == [1]
    # DEGRADE never plans a zero-shard gang.
    plan = plan_gang_recovery(cfg, failure, num_shards=1, attempt=2)
    assert plan.details["new_width"] == 1
    # Past the budget: exhausted, no retry, regardless of policy.
    plan = plan_gang_recovery(cfg, failure, num_shards=4, attempt=4)
    assert plan.action == "exhausted" and plan.details["retry"] is False
