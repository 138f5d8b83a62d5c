"""Self-healing gangs: detection, attribution, respawn/rejoin, no orphans.

The chaos-soak core of the tier: crash replicas mid-load under the REJOIN
policy and assert the gang heals back to full width while every surviving
submission's digests stay byte-identical to the fault-free in-process
reference — Theorem 1 applied to a healed gang.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.dist.programs import OpSpec, ProgramSpec
from repro.dist.runner import run_reference
from repro.faults.plan import (FaultPlan, PlannedCrash, PlannedRespawnFail)
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.service import DCRService, RejoinError
from repro.service.gang import GangFailure, ServiceGang

WIDTH = 4

SPECS = [
    ProgramSpec(tiles=8, ops=(OpSpec("fill"), OpSpec("bump", 3),
                              OpSpec("blend", 1), OpSpec("readx"))),
    ProgramSpec(tiles=6, ops=(OpSpec("fill"), OpSpec("scale", 2),
                              OpSpec("blend", 5), OpSpec("bump", 7))),
    ProgramSpec(tiles=8, sharding="cyclic",
                ops=(OpSpec("fill"), OpSpec("blend", 2), OpSpec("readx"))),
]

REFERENCE = {i: run_reference(spec, WIDTH) for i, spec in enumerate(SPECS)}

CRASH = FaultPlan(crashes=[PlannedCrash(shard=2, call=3)])


def rejoin_service(**kw):
    kw.setdefault("resilience", ResilienceConfig(
        policy=RecoveryPolicy.REJOIN, max_recoveries=8, respawn_budget=3))
    kw.setdefault("deadline_s", 5.0)
    kw.setdefault("job_timeout_s", 30.0)
    kw.setdefault("max_pending", 128)
    kw.setdefault("session_inflight", 64)
    return DCRService(WIDTH, backend="loopback", **kw)


class TestChaosSoak:
    def _soak(self):
        """Two sessions under interleaved load; one submission crashes a
        replica mid-stream.  Returns [(spec index, digest, graph digest)]
        for every completed submission."""
        out = []
        with rejoin_service() as svc:
            a = svc.open_session("steady")
            b = svc.open_session("chaotic")
            handles = []
            for round_ in range(3):
                for i, spec in enumerate(SPECS):
                    handles.append((i, a.submit(spec)))
                    fault = CRASH if (round_ == 1 and i == 0) else None
                    handles.append((i, b.submit(spec, fault=fault)))
            for i, h in handles:
                out.append((i, h.result(60.0).determinism_digest,
                            h.result(60.0).graph_digest))
            stats = svc.stats()
        return out, stats

    def test_gang_heals_to_full_width_with_identical_digests(self):
        out, stats = self._soak()
        assert stats["respawns"] >= 1, "no live respawn happened"
        assert stats["shards"] == WIDTH, "gang did not heal to full width"
        assert stats["failed"] == 0
        assert len(out) == 18
        for i, digest, graph in out:
            assert digest == REFERENCE[i].determinism_digest, \
                f"spec {i} diverged from the fault-free reference"
            assert graph == REFERENCE[i].graph_digest

    def test_soak_is_deterministic_across_runs(self):
        (out1, stats1), (out2, stats2) = self._soak(), self._soak()
        assert sorted(out1) == sorted(out2)
        assert stats1["respawns"] == stats2["respawns"]


class TestAttribution:
    def test_single_crash_blames_only_the_culprit(self):
        with ServiceGang(WIDTH, backend="loopback",
                         deadline_s=5.0) as gang:
            with pytest.raises(GangFailure) as err:
                gang.run_job(SPECS[0], job_id="boom", fault=CRASH)
            assert err.value.culprit_shards == [2]
            # The suspicion snapshot rides along for the report.
            assert set(err.value.suspicion["ranks"]) == \
                {str(r) for r in range(WIDTH)}

    @pytest.mark.parametrize("pair", [(0, 2), (1, 3), (0, 3), (1, 2)])
    def test_simultaneous_two_of_four_crashes(self, pair):
        """Concurrent multi-shard crashes: exactly the two crashed ranks
        are blamed, never the survivors that observed the fallout."""
        fault = FaultPlan(crashes=[PlannedCrash(shard=pair[0], call=3),
                                   PlannedCrash(shard=pair[1], call=3)])
        with ServiceGang(WIDTH, backend="loopback",
                         deadline_s=5.0) as gang:
            with pytest.raises(GangFailure) as err:
                gang.run_job(SPECS[0], job_id="double", fault=fault)
            assert err.value.culprit_shards == sorted(pair)

    def test_rejoin_restores_both_crashed_ranks(self):
        fault = FaultPlan(crashes=[PlannedCrash(shard=1, call=3),
                                   PlannedCrash(shard=3, call=3)])
        with ServiceGang(WIDTH, backend="loopback",
                         deadline_s=5.0) as gang:
            base = [r.determinism_digest
                    for r in gang.run_job(SPECS[0], job_id="warm")]
            with pytest.raises(GangFailure):
                gang.run_job(SPECS[0], job_id="double", fault=fault)
            gang.rejoin([1, 3])
            assert gang.alive
            after = [r.determinism_digest
                     for r in gang.run_job(SPECS[0], job_id="healed")]
            assert after == base


class TestRespawnFailure:
    def test_doa_replacement_raises_rejoin_error_then_heals(self):
        gang_fault = FaultPlan(
            respawn_fails=[PlannedRespawnFail(rank=2, attempt=1)])
        with ServiceGang(WIDTH, backend="loopback", deadline_s=5.0,
                         fault=gang_fault) as gang:
            with pytest.raises(GangFailure):
                gang.run_job(SPECS[0], job_id="boom", fault=CRASH)
            with pytest.raises(RejoinError) as err:
                gang.rejoin([2], attempt=1)
            assert err.value.culprit_shards == [2]
            assert not gang.alive
            # The planned failure was attempt 1 only: attempt 2 heals.
            gang.rejoin([2], attempt=2)
            assert gang.alive
            reports = gang.run_job(SPECS[0], job_id="healed")
            assert len(reports) == WIDTH

    def test_service_degrades_after_respawn_budget_exhausted(self):
        """REJOIN's bounded-budget fallback: when every live respawn
        fails, the service falls back to the DEGRADE rebuild and still
        completes the job (one shard narrower)."""
        svc = rejoin_service(resilience=ResilienceConfig(
            policy=RecoveryPolicy.REJOIN, max_recoveries=8,
            respawn_budget=1))
        with svc:
            s = svc.open_session("s")
            s.run(SPECS[0])                           # warm, full width
            svc._gang.rejoin = _always_failing_rejoin  # replacement dies
            report = s.submit(SPECS[0], fault=CRASH).result(60.0)
            stats = svc.stats()
        assert stats["shards"] == WIDTH - 1
        assert stats["respawns"] == 1
        assert report.determinism_digest == \
            run_reference(SPECS[0], WIDTH - 1).determinism_digest


def _always_failing_rejoin(ranks, attempt=1):
    raise RejoinError(list(ranks), "injected: replacement died mid-rejoin")


class TestMultiprocessRejoin:
    def test_killed_worker_is_detected_and_rejoined(self):
        with ServiceGang(WIDTH, backend="tcp",
                         deadline_s=10.0, job_timeout_s=30.0) as gang:
            base = [r.determinism_digest
                    for r in gang.run_job(SPECS[0], job_id="warm")]
            victim = gang.process(1)
            victim.kill()
            victim.join(5.0)
            with pytest.raises(GangFailure) as err:
                gang.run_job(SPECS[0], job_id="during-death")
            assert 1 in err.value.culprit_shards
            gang.rejoin([1])
            assert gang.alive
            after = [r.determinism_digest
                     for r in gang.run_job(SPECS[0], job_id="healed")]
            assert after == base

    def test_stalled_worker_detected_below_recv_deadline(self):
        """The detection-latency acceptance bound, live: a SIGSTOPped
        (stalled, not dead) worker is declared by heartbeat suspicion in
        a few beat intervals, where the plain recv path would have waited
        out the full transport deadline."""
        recv_deadline = 30.0
        with ServiceGang(WIDTH, backend="tcp",
                         deadline_s=recv_deadline,
                         job_timeout_s=recv_deadline * 2,
                         hb_interval_s=0.1) as gang:
            gang.run_job(SPECS[0], job_id="warm")
            os.kill(gang.process(3).pid, signal.SIGSTOP)
            t0 = time.monotonic()
            with pytest.raises(GangFailure) as err:
                gang.run_job(SPECS[0], job_id="stalled")
            elapsed = time.monotonic() - t0
            assert elapsed < recv_deadline / 2, \
                f"detection took {elapsed:.1f}s, not below recv deadline"
            assert 3 in err.value.culprit_shards
            # The monitor, not the transport deadline, made the call.
            assert err.value.suspicion["ranks"]["3"]["state"] == "dead"
            gang.rejoin([3])
            reports = gang.run_job(SPECS[0], job_id="healed")
            assert len(reports) == WIDTH

    def test_stop_leaves_no_orphans_and_is_idempotent(self):
        gang = ServiceGang(WIDTH, backend="tcp",
                           deadline_s=10.0).start()
        gang.run_job(SPECS[0], job_id="warm")
        gang.process(0).kill()                    # die mid-life
        gang.stop()
        gang.stop()                              # second stop: no-op
        for rank in range(WIDTH):
            assert not gang.process(rank).is_alive()
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-svc-shard")]

    def test_stop_during_halfway_rejoin_leaves_no_orphans(self):
        """Killing the replacement mid-rejoin then stopping must reap
        everything — the no-orphan guarantee of the rejoin path."""
        with ServiceGang(WIDTH, backend="tcp",
                         deadline_s=5.0) as gang:
            gang.process(2).kill()
            gang.process(2).join(5.0)
            with pytest.raises(GangFailure):
                gang.run_job(SPECS[0], job_id="boom")
            gang.rejoin([2])
            # Kill the freshly respawned worker immediately.
            gang.process(2).kill()
        for rank in range(WIDTH):
            gang.process(rank).join(5.0)
            assert not gang.process(rank).is_alive()
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-svc-shard")]
