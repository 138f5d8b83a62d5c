"""Self-healing gangs: detection, attribution, rebuild, no orphans.

The chaos-soak core of the tier: crash replicas mid-load under the
RESTART policy and assert the gang is rebuilt at full width while every
submission's digests stay byte-identical to the fault-free in-process
reference — Theorem 1 applied to a rebuilt gang.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.dist.programs import OpSpec, ProgramSpec
from repro.dist.runner import run_reference
from repro.faults.plan import FaultPlan, PlannedCrash
from repro.resilience import RecoveryPolicy, RecoveryReport, ResilienceConfig
from repro.service import DCRService
from repro.service.gang import (FLOOR_S, GangFailure, ServiceGang,
                                silence_budget, units)

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


def restart_service(backend="loopback", report_dir=None, **kw):
    kw.setdefault("resilience", ResilienceConfig(
        policy=RecoveryPolicy.RESTART, max_recoveries=8,
        report_dir=report_dir))
    kw.setdefault("deadline_s", 5.0)
    kw.setdefault("job_timeout_s", 30.0)
    kw.setdefault("max_pending", 128)
    kw.setdefault("session_inflight", 64)
    return DCRService(WIDTH, backend=backend, **kw)


def recovery_reports(directory):
    return [RecoveryReport.from_json(p.read_text())
            for p in sorted(directory.glob("fault_report_*.json"))]


class TestChaosSoak:
    def _soak(self):
        """Two sessions under interleaved load; one submission crashes a
        replica mid-stream.  Returns [(spec index, digest, graph digest)]
        for every completed submission."""
        out = []
        with restart_service() as svc:
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
        assert stats["recoveries"] >= 1, "no gang rebuild happened"
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
        assert stats1["recoveries"] == stats2["recoveries"]


class TestAttribution:
    def test_single_crash_blames_only_the_culprit(self):
        with ServiceGang(WIDTH, backend="loopback",
                         deadline_s=5.0) as gang:
            with pytest.raises(GangFailure) as err:
                gang.run_job(SPECS[0], job_id="boom", fault=CRASH)
            assert err.value.culprit_shards == [2]

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


class TestSilenceBudget:
    """The one liveness rule: a job's results are due within
    ``min(job_timeout_s, max(FLOOR_S, K * s_per_unit * units(spec)))``."""

    SMALL = ProgramSpec(tiles=4, ops=(OpSpec("fill"),) * 10)      # 40 units
    LARGE = ProgramSpec(tiles=16, ops=(OpSpec("fill"),) * 20)     # 320 units

    def test_budget_is_the_job_timeout_before_the_first_success(self):
        for spec in (self.SMALL, self.LARGE):
            assert silence_budget(spec, None, 7.5) == 7.5

    def test_budget_scales_linearly_with_the_job(self):
        s_per_unit = 0.01
        small = silence_budget(self.SMALL, s_per_unit, 1e6)
        large = silence_budget(self.LARGE, s_per_unit, 1e6)
        assert units(self.SMALL) == 40 and units(self.LARGE) == 320
        assert small > FLOOR_S
        assert large / small == pytest.approx(
            units(self.LARGE) / units(self.SMALL))
        assert silence_budget(self.LARGE, s_per_unit, 10.0) == 10.0

    def test_budget_never_falls_below_the_floor(self):
        for s_per_unit in (0.0, 1e-9, 1e-5):
            for spec in (self.SMALL, self.LARGE):
                assert silence_budget(spec, s_per_unit, 60.0) == FLOOR_S

    def test_a_gang_learns_its_pace_from_successful_jobs(self):
        with ServiceGang(2, job_timeout_s=60.0) as gang:
            assert gang._s_per_unit is None
            gang.run_job(SPECS[0])
            budget = silence_budget(SPECS[0], gang._s_per_unit, 60.0)
            assert FLOOR_S <= budget < 60.0


PROCESS_GANGS = ["tcp", "shm"]


class TestMultiprocessRejoin:
    """A dead rank of a process gang comes back by rebuilding the gang."""

    @pytest.mark.parametrize("backend", PROCESS_GANGS)
    def test_killed_worker_is_detected_and_rejoined(self, tmp_path,
                                                     backend):
        with restart_service(backend, report_dir=str(tmp_path),
                             deadline_s=10.0) as svc:
            session = svc.open_session("s")
            session.run(SPECS[0])
            victim = svc._gang.process(1)
            victim.kill()
            victim.join(5.0)
            # A shape the gang has not run yet: a template hit would never
            # reach the gang.
            t0 = time.monotonic()
            report = session.submit(SPECS[1]).result(60.0)
            elapsed = time.monotonic() - t0
            stats = svc.stats()
        # An idle rank's death reads as channel EOF: no budget runs out.
        assert elapsed < 1.0, f"the next job took {elapsed:.2f}s"
        assert report.determinism_digest == REFERENCE[1].determinism_digest
        assert stats["shards"] == WIDTH and stats["recoveries"] == 1
        rec, = recovery_reports(tmp_path)
        assert rec.action == "restart" and 1 in rec.culprit_shards
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-svc-shard")]

    @pytest.mark.parametrize("backend", PROCESS_GANGS)
    def test_stalled_worker_detected_below_recv_deadline(self, tmp_path,
                                                         backend):
        """The detection-latency acceptance bound, live: a SIGSTOPped
        (stalled, not dead) worker stays silent past the job's silence
        budget, where the plain recv path would have waited out the full
        transport deadline, and the rebuilt gang completes the job."""
        recv_deadline = 30.0
        with restart_service(backend, report_dir=str(tmp_path),
                             deadline_s=recv_deadline,
                             job_timeout_s=recv_deadline * 2) as svc:
            session = svc.open_session("s")
            session.run(SPECS[0])
            os.kill(svc._gang.process(3).pid, signal.SIGSTOP)
            t0 = time.monotonic()
            report = session.submit(SPECS[1]).result(recv_deadline * 2)
            elapsed = time.monotonic() - t0
            stats = svc.stats()
        assert elapsed < recv_deadline / 2, \
            f"detection took {elapsed:.1f}s, not below recv deadline"
        rec, = recovery_reports(tmp_path)
        # Every rank still silent at the budget is named; its peers wait
        # on it in a collective, so the stalled rank is among them.
        assert 3 in rec.culprit_shards
        assert stats["shards"] == WIDTH
        assert report.determinism_digest == REFERENCE[1].determinism_digest

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
