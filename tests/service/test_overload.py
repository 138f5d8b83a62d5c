"""Service overload protection: deadline admission, expiry, health."""

import pytest

from repro.dist.programs import OpSpec, ProgramSpec
from repro.service import AdmissionError, DCRService, JobExpired

SPEC = ProgramSpec(tiles=6, ops=(OpSpec("fill"), OpSpec("bump", 1),
                                 OpSpec("blend", 2)))


def service(**kw):
    kw.setdefault("job_timeout_s", 30.0)
    kw.setdefault("deadline_s", 5.0)
    return DCRService(2, backend="loopback", **kw)


class TestDeadlineAdmission:
    def test_unknown_cost_admits_optimistically(self):
        """With no cold-run EWMA yet the estimator can't prove lateness,
        so the first submissions are admitted."""
        with service() as svc:
            s = svc.open_session("s")
            assert s.submit(SPEC, deadline_s=0.001).result(30.0).conformant

    def test_guaranteed_late_submission_is_rejected(self):
        with service() as svc:
            s = svc.open_session("s")
            s.run(SPEC)                      # seed the drain-rate EWMA
            assert svc._job_ewma_s > 0.0
            # Pile up a backlog, then ask for an impossible deadline.
            svc._job_ewma_s = 10.0           # pretend jobs are slow
            with svc._lock:
                svc._pending_total += 3      # and the queue is deep
            try:
                with pytest.raises(AdmissionError) as err:
                    s.submit(SPEC, deadline_s=0.5)
            finally:
                with svc._lock:
                    svc._pending_total -= 3
            assert err.value.reason == "deadline"
            assert err.value.queue_depth == 3
            assert svc.stats()["rejected"] == 1

    def test_backpressure_rejection_reports_reason_and_depth(self):
        with service(max_pending=1) as svc:
            s = svc.open_session("s")
            seen = []
            for _ in range(30):
                try:
                    seen.append(s.submit(SPEC))
                except AdmissionError as err:
                    assert err.reason in ("queue_full", "session_cap")
                    assert err.queue_depth >= 0
                    break
            else:
                pytest.fail("no backpressure under a 1-deep queue")
            for h in seen:
                h.result(30.0)


class TestExpiry:
    def test_admitted_job_expires_at_dispatch_when_late(self):
        """A job whose deadline passed between admission and dispatch
        resolves with JobExpired, never touching the gang.  Driven
        through _execute directly with an already-expired deadline so the
        dispatcher race is deterministic."""
        from repro.service.service import JobHandle, _Job
        with service() as svc:
            s = svc.open_session("s")
            s.run(SPEC)
            jobs_before = svc._gang.jobs_run
            handle = JobHandle("job-x", "s/px", "s")
            with svc._lock:
                svc._sessions["s"].inflight += 1
            job = _Job(SPEC, handle, None,
                       deadline_at=svc.clock() - 1.0)
            svc._execute(job)
            with pytest.raises(JobExpired):
                handle.result(1.0)
            assert svc.stats()["expired"] == 1
            assert svc._gang.jobs_run == jobs_before
            # Expiry must release the session's in-flight slot.
            assert svc._sessions["s"].inflight == 0


class TestHealth:
    def test_ok_when_full_width_and_idle(self):
        with service() as svc:
            svc.open_session("s")
            h = svc.health()
            assert h["status"] == "ok"
            assert h["width"] == h["width_target"] == 2
            assert h["backpressure"] is False
            assert "suspicion" not in h and "suspect_ranks" not in h

    def test_down_when_not_running(self):
        svc = service()
        assert svc.health()["status"] == "down"

    def test_degraded_below_target_width(self):
        with service() as svc:
            svc._width = 1                  # as after a DEGRADE rebuild
            assert svc.health()["status"] == "degraded"

    def test_overloaded_when_backpressured(self):
        with service() as svc:
            with svc._lock:
                svc._pending_total = svc.max_pending
            try:
                h = svc.health()
            finally:
                with svc._lock:
                    svc._pending_total = 0
            assert h["status"] == "overloaded"
            assert h["backpressure"] is True
