"""The DCR service: one persistent gang, many client sessions.

:class:`DCRService` turns the one-shot conformance runner into a
long-running analysis service.  Clients open :class:`Session`\\ s and
submit a stream of :class:`~repro.dist.programs.ProgramSpec`\\ s; the
service multiplexes every session onto a single persistent
:class:`~repro.service.gang.ServiceGang` with:

* **admission control** — a bounded global queue and a per-session
  in-flight cap, both rejecting with :class:`AdmissionError` rather than
  queueing unboundedly (open-loop clients stay open-loop);
* **fair scheduling** — one dispatcher thread round-robins the sessions,
  so a chatty client cannot starve a quiet one;
* **analysis templates** — the first run of a program *shape* captures an
  :class:`~repro.service.templates.AnalysisTemplate`; every later
  submission of the same shape is served driver-side by parameter
  patching, never touching the gang (see :mod:`repro.service.templates`);
* **recovery** — a dead gang (crashed replica, divergence, timeout) is
  healed per :func:`repro.resilience.plan_gang_recovery`: REJOIN respawns
  exactly the culprit rank(s) and re-endpoints the survivors (the gang
  returns to full width in place, without dropping other sessions'
  work), DEGRADE shrinks the gang one shard, RESTART rebuilds at full
  width — all three re-run the failed submission; ABORT/LOCALIZE fail
  the submission but still rebuild so the service keeps serving;
* **overload protection** — deadline-aware admission (work that cannot
  start before its deadline is rejected up front, and expired at
  dispatch time if the estimate was wrong), plus a :meth:`DCRService.
  health` endpoint summarizing width, heartbeat suspicion, respawn
  budget, and backpressure for load generators to steer by.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..dist.heartbeat import respawn_backoff
from ..dist.programs import ProgramSpec
from ..dist.report import MergedReport, merge_reports
from ..faults.plan import FaultPlan
from ..obs.events import (CAT_SERVICE, CONTROL_SHARD, EV_GANG_REBUILD,
                          EV_GANG_REJOIN, EV_GANG_RESPAWN, EV_GANG_START,
                          EV_JOB_ADMIT, EV_JOB_DISPATCH, EV_JOB_DONE,
                          EV_JOB_EXPIRE, EV_JOB_REJECT, EV_SESSION_CLOSE,
                          EV_SESSION_OPEN, EV_TEMPLATE_HIT,
                          EV_TEMPLATE_RECORDED)
from ..obs.profiler import Profiler
from ..resilience import ResilienceConfig, plan_gang_recovery
from .gang import (GANG_BACKENDS, GangFailure, RejoinError, ServiceGang)
from .templates import TemplateStore

__all__ = ["AdmissionError", "JobExpired", "JobHandle", "Session",
           "DCRService"]


class AdmissionError(RuntimeError):
    """The service refused a submission to protect itself from overload.

    ``reason`` distinguishes backpressure (``queue_full`` /
    ``session_cap`` — retry later) from ``deadline`` (the job could not
    have started in time — retrying immediately is pointless);
    ``queue_depth`` lets clients scale their backoff to the actual load.
    """

    def __init__(self, message: str, reason: str = "",
                 queue_depth: int = 0):
        self.reason = reason
        self.queue_depth = queue_depth
        super().__init__(message)


class JobExpired(RuntimeError):
    """An admitted job missed its deadline before it could be dispatched."""


class JobHandle:
    """One submission's future: resolves to a MergedReport or an error."""

    def __init__(self, job_id: str, program_id: str, session: str):
        self.job_id = job_id
        self.program_id = program_id
        self.session = session
        self._event = threading.Event()
        self._report: Optional[MergedReport] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> MergedReport:
        """Block for the merged report; re-raises the job's failure."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"job {self.job_id} not done "
                               f"within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._report

    def _resolve(self, report: Optional[MergedReport],
                 error: Optional[BaseException]) -> None:
        self._report = report
        self._error = error
        self._event.set()


class _Job:
    __slots__ = ("spec", "handle", "fault", "submitted_at", "deadline_at")

    def __init__(self, spec: ProgramSpec, handle: JobHandle,
                 fault: Optional[FaultPlan],
                 deadline_at: Optional[float] = None):
        self.spec = spec
        self.handle = handle
        self.fault = fault
        self.submitted_at = time.perf_counter()
        self.deadline_at = deadline_at     # service-clock instant, or None


class _SessionState:
    __slots__ = ("name", "queue", "inflight", "submitted", "closed")

    def __init__(self, name: str):
        self.name = name
        self.queue: Deque[_Job] = deque()
        self.inflight = 0          # queued + running, not yet resolved
        self.submitted = 0
        self.closed = False


class Session:
    """A client's handle: submit programs, await merged reports."""

    def __init__(self, service: "DCRService", name: str):
        self._service = service
        self.name = name

    def submit(self, spec: ProgramSpec,
               fault: Optional[FaultPlan] = None,
               deadline_s: Optional[float] = None) -> JobHandle:
        return self._service.submit(self.name, spec, fault=fault,
                                    deadline_s=deadline_s)

    def run(self, spec: ProgramSpec,
            timeout: Optional[float] = None) -> MergedReport:
        """Submit and block — the synchronous convenience wrapper."""
        return self.submit(spec).result(
            timeout if timeout is not None
            else self._service.job_timeout_s * 4)

    def close(self) -> None:
        self._service.close_session(self.name)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class DCRService:
    """Admission, fair scheduling, template serving, gang recovery."""

    def __init__(self, num_shards: int, backend: str = "loopback",
                 batch: int = 64,
                 resilience: Optional[ResilienceConfig] = None,
                 max_pending: int = 64, session_inflight: int = 8,
                 template_capacity: int = 128,
                 deadline_s: float = 30.0, job_timeout_s: float = 60.0,
                 profile_dir: Optional[str] = None,
                 profiler: Optional[Profiler] = None,
                 hb_interval_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic):
        if backend not in GANG_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {GANG_BACKENDS}")
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.backend = backend
        self.batch = batch
        self.resilience = resilience or ResilienceConfig()
        self.max_pending = max_pending
        self.session_inflight = session_inflight
        self.deadline_s = deadline_s
        self.job_timeout_s = job_timeout_s
        self.profile_dir = profile_dir
        self.profiler = profiler if profiler is not None else Profiler(
            enabled=profile_dir is not None)
        self.hb_interval_s = hb_interval_s
        self.clock = clock
        self.templates = TemplateStore(capacity=template_capacity)
        self._width = num_shards
        self._target_width = num_shards    # the width REJOIN heals back to
        self._gang: Optional[ServiceGang] = None
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._sessions: Dict[str, _SessionState] = {}
        self._rr: Deque[str] = deque()     # round-robin rotation order
        self._pending_total = 0
        self._session_seq = 0
        self._job_seq = 0
        self._recoveries = 0
        self._respawns_used = 0
        self._failed_permanently = False
        self._running = False
        self._scheduler: Optional[threading.Thread] = None
        # EWMA of cold (gang-touching) job duration: the admission
        # estimator's model of how fast the queue drains.
        self._job_ewma_s = 0.0
        # counters (read via stats())
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0
        self.jobs_expired = 0
        self.template_serves = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Current gang width (shrinks under the DEGRADE policy)."""
        return self._width

    def start(self) -> "DCRService":
        if self._running:
            raise RuntimeError("service already started")
        self._gang = self._build_gang(self._width)
        self._running = True
        self._scheduler = threading.Thread(target=self._dispatch_loop,
                                           name="svc-scheduler",
                                           daemon=True)
        self._scheduler.start()
        return self

    def close(self) -> None:
        with self._cond:
            if not self._running:
                return
            self._running = False
            self._cond.notify_all()
        self._scheduler.join(self.job_timeout_s + 10.0)
        # Fail whatever never got dispatched, so no client blocks forever.
        with self._lock:
            leftovers: List[_Job] = []
            for state in self._sessions.values():
                leftovers.extend(state.queue)
                state.queue.clear()
        for job in leftovers:
            job.handle._resolve(None, RuntimeError("service closed"))
        if self._gang is not None:
            self._gang.stop()
        if self.profile_dir and self.profiler.enabled:
            import os
            os.makedirs(self.profile_dir, exist_ok=True)
            self.profiler.save(
                os.path.join(self.profile_dir, "service.profile.json"))

    def __enter__(self) -> "DCRService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _build_gang(self, width: int) -> ServiceGang:
        gang = ServiceGang(width, backend=self.backend, batch=self.batch,
                           deadline_s=self.deadline_s,
                           job_timeout_s=self.job_timeout_s,
                           profile_dir=self.profile_dir,
                           profiler=self.profiler,
                           hb_interval_s=self.hb_interval_s,
                           clock=self.clock).start()
        prof = self.profiler
        if prof.enabled:
            prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_GANG_START,
                         shards=width, backend=self.backend)
        return gang

    # -- sessions ------------------------------------------------------------

    def open_session(self, name: Optional[str] = None) -> Session:
        with self._lock:
            if not self._running:
                raise RuntimeError("service is not running")
            if name is None:
                self._session_seq += 1
                name = f"session-{self._session_seq}"
            if name in self._sessions:
                raise ValueError(f"session {name!r} already open")
            self._sessions[name] = _SessionState(name)
            self._rr.append(name)
        prof = self.profiler
        if prof.enabled:
            prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_SESSION_OPEN,
                         session=name)
        return Session(self, name)

    def close_session(self, name: str) -> None:
        """Stop admitting for ``name``; queued jobs still complete."""
        with self._lock:
            state = self._sessions.get(name)
            if state is None or state.closed:
                return
            state.closed = True
        prof = self.profiler
        if prof.enabled:
            prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_SESSION_CLOSE,
                         session=name, submitted=state.submitted)

    # -- admission -----------------------------------------------------------

    def submit(self, session: str, spec: ProgramSpec,
               fault: Optional[FaultPlan] = None,
               deadline_s: Optional[float] = None) -> JobHandle:
        """Admit one program for ``session`` or raise AdmissionError.

        ``deadline_s`` is a start deadline, relative to now: if the
        estimated queue drain (pending jobs times the cold-job EWMA)
        already exceeds it the submission is rejected immediately with
        ``reason="deadline"``, and an admitted job that nevertheless
        misses its deadline resolves with :class:`JobExpired` at
        dispatch time instead of occupying the gang.
        """
        prof = self.profiler
        with self._cond:
            if not self._running or self._failed_permanently:
                raise RuntimeError(
                    "service is not accepting work"
                    + (" (recovery budget exhausted)"
                       if self._failed_permanently else ""))
            state = self._sessions.get(session)
            if state is None or state.closed:
                raise ValueError(f"no open session {session!r}")
            if self._pending_total >= self.max_pending:
                self.jobs_rejected += 1
                if prof.enabled:
                    prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_JOB_REJECT,
                                 session=session, reason="queue_full")
                raise AdmissionError(
                    f"queue full ({self.max_pending} pending)",
                    reason="queue_full",
                    queue_depth=self._pending_total)
            if state.inflight >= self.session_inflight:
                self.jobs_rejected += 1
                if prof.enabled:
                    prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_JOB_REJECT,
                                 session=session, reason="session_cap")
                raise AdmissionError(
                    f"session {session!r} at its in-flight cap "
                    f"({self.session_inflight})",
                    reason="session_cap",
                    queue_depth=self._pending_total)
            deadline_at = None
            if deadline_s is not None:
                # Deadline-aware admission: refuse work that (by the
                # current drain estimate) cannot start in time, so a
                # saturated service sheds load instead of queueing
                # guaranteed-late jobs.
                est_start_s = self._pending_total * self._job_ewma_s
                if est_start_s > deadline_s:
                    self.jobs_rejected += 1
                    if prof.enabled:
                        prof.instant(CONTROL_SHARD, CAT_SERVICE,
                                     EV_JOB_REJECT, session=session,
                                     reason="deadline")
                    raise AdmissionError(
                        f"cannot start within {deadline_s}s "
                        f"(estimated start delay {est_start_s:.3f}s over "
                        f"{self._pending_total} pending)",
                        reason="deadline",
                        queue_depth=self._pending_total)
                deadline_at = self.clock() + deadline_s
            self._job_seq += 1
            state.submitted += 1
            handle = JobHandle(job_id=f"job-{self._job_seq}",
                               program_id=f"{session}/p{state.submitted}",
                               session=session)
            state.queue.append(_Job(spec, handle, fault, deadline_at))
            state.inflight += 1
            self._pending_total += 1
            if prof.enabled:
                prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_JOB_ADMIT,
                             session=session, program=handle.program_id)
            self._cond.notify_all()
        return handle

    # -- the dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                job = None
                # Stop dispatching the moment close() begins, even with a
                # backlog — close() fails the leftovers deterministically.
                while self._running \
                        and (job := self._next_job_locked()) is None:
                    self._cond.wait(0.5)
                if job is None:
                    return
            self._execute(job)

    def _next_job_locked(self) -> Optional[_Job]:
        """Round-robin over sessions: the fairness policy in one place."""
        for _ in range(len(self._rr)):
            name = self._rr[0]
            self._rr.rotate(-1)
            state = self._sessions[name]
            if state.queue:
                self._pending_total -= 1
                return state.queue.popleft()
        return None

    def _execute(self, job: _Job) -> None:
        handle = job.handle
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        report: Optional[MergedReport] = None
        error: Optional[BaseException] = None
        if job.deadline_at is not None and self.clock() > job.deadline_at:
            # Admission's drain estimate was optimistic: shed the job now
            # rather than spend gang time on an answer nobody wants.
            self.jobs_expired += 1
            if prof.enabled:
                prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_JOB_EXPIRE,
                             program=handle.program_id,
                             session=handle.session)
            with self._cond:
                self._sessions[handle.session].inflight -= 1
                self._cond.notify_all()
            handle._resolve(None, JobExpired(
                f"job {handle.job_id} missed its start deadline"))
            return
        # A submission carrying a fault plan must reach the gang — serving
        # it from a template would silently skip the injection the caller
        # asked for (chaos tests and the CI chaos tier depend on this).
        tpl = None if job.fault is not None \
            else self.templates.lookup(job.spec, self._width)
        if tpl is not None:
            report = tpl.patch(job.spec, program_id=handle.program_id,
                               session=handle.session)
            self.template_serves += 1
            if prof.enabled:
                prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_TEMPLATE_HIT,
                             program=handle.program_id,
                             recorded_from=tpl.recorded_from)
        else:
            cold0 = time.perf_counter()
            try:
                report = self._run_cold(job)
            except BaseException as exc:  # noqa: BLE001 - resolved below
                error = exc
            else:
                observed = time.perf_counter() - cold0
                self._job_ewma_s = observed if self._job_ewma_s == 0.0 \
                    else 0.7 * self._job_ewma_s + 0.3 * observed
        with self._cond:
            state = self._sessions[handle.session]
            state.inflight -= 1
            if error is None:
                self.jobs_completed += 1
            else:
                self.jobs_failed += 1
            self._cond.notify_all()
        if prof.enabled:
            prof.complete(CONTROL_SHARD, CAT_SERVICE, EV_JOB_DISPATCH, t0,
                          prof.now_us() - t0, program=handle.program_id,
                          session=handle.session,
                          template_hit=bool(tpl), ok=error is None)
            prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_JOB_DONE,
                         program=handle.program_id, ok=error is None)
        handle._resolve(report, error)

    def _run_cold(self, job: _Job) -> MergedReport:
        """Analyze on the gang; recover from gang death per policy."""
        handle = job.handle
        fault = job.fault
        while True:
            try:
                shard_reports = self._gang.run_job(
                    job.spec, job_id=handle.job_id,
                    program_id=handle.program_id, session=handle.session,
                    capture_digests=True, fault=fault)
            except GangFailure as failure:
                retry = self._recover(failure)
                if not retry:
                    raise
                # Injected faults are not re-armed on the retry: the
                # point of RESTART/DEGRADE is that the re-execution of
                # the same control program succeeds.
                fault = None
                continue
            merged = merge_reports(
                shard_reports, backend=self.backend,
                program_id=handle.program_id, session=handle.session)
            if merged.conformant:
                if self.templates.record(job.spec, self._width,
                                         merged) is not None \
                        and self.profiler.enabled:
                    self.profiler.instant(
                        CONTROL_SHARD, CAT_SERVICE, EV_TEMPLATE_RECORDED,
                        program=handle.program_id)
            return merged

    def _recover(self, failure: GangFailure) -> bool:
        """Heal the gang per policy; True if the job should retry.

        REJOIN heals in place — deterministic backoff, respawn exactly
        the culprit ranks, re-endpoint the survivors — and replans on
        :class:`RejoinError` until the respawn budget forces the DEGRADE
        fallback; every other action stops the gang and rebuilds it at
        the planned width.
        """
        prof = self.profiler
        current: BaseException = failure
        while True:
            self._recoveries += 1
            plan = plan_gang_recovery(
                self.resilience, current, self._width, self._recoveries,
                respawns_used=self._respawns_used,
                suspicion=getattr(current, "suspicion", None)
                or self._gang.suspicion())
            if plan.action == "exhausted":
                with self._lock:
                    self._failed_permanently = True
                return False
            if plan.action == "respawn":
                ranks = list(plan.details["respawned"])
                attempt = int(plan.details["respawn_attempt"])
                # Counter-based backoff: a pure function of the attempt
                # number, never wall-clock jitter, so two identically
                # seeded soaks heal on identical schedules.
                time.sleep(respawn_backoff(0, attempt))
                if prof.enabled:
                    prof.instant(CONTROL_SHARD, CAT_SERVICE,
                                 EV_GANG_RESPAWN, ranks=ranks,
                                 attempt=attempt,
                                 generation=self._gang.generation + 1)
                self._respawns_used += 1
                try:
                    self._gang.rejoin(ranks, attempt=attempt)
                except RejoinError as exc:
                    # The replacement died mid-rejoin: replan (another
                    # respawn while budget lasts, then DEGRADE).
                    current = exc
                    continue
                if prof.enabled:
                    prof.instant(CONTROL_SHARD, CAT_SERVICE,
                                 EV_GANG_REJOIN, ranks=ranks,
                                 shards=self._width,
                                 generation=self._gang.generation)
                return True
            new_width = int(plan.details["new_width"])
            self._gang.stop()
            self._width = new_width
            self._gang = self._build_gang(new_width)
            if prof.enabled:
                prof.instant(CONTROL_SHARD, CAT_SERVICE, EV_GANG_REBUILD,
                             action=plan.action, shards=new_width,
                             attempt=self._recoveries,
                             culprits=list(getattr(
                                 current, "culprit_shards", ())))
            return bool(plan.details["retry"])

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": self.backend,
                "shards": self._width,
                "width_target": self._target_width,
                "sessions": len(self._sessions),
                "pending": self._pending_total,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "rejected": self.jobs_rejected,
                "expired": self.jobs_expired,
                "template_serves": self.template_serves,
                "recoveries": self._recoveries,
                "respawns": self._respawns_used,
                "templates": self.templates.stats(),
            }

    def health(self) -> Dict[str, Any]:
        """The health endpoint: one dict a load balancer could poll.

        ``status`` summarizes the whole service: ``ok`` (full width, not
        backpressured), ``degraded`` (serving below target width, or a
        replica under heartbeat suspicion), ``overloaded`` (admission is
        rejecting — clients should back off), ``down`` (recovery budget
        exhausted or not running).
        """
        with self._lock:
            running = self._running and not self._failed_permanently
            pending = self._pending_total
            width = self._width
            gang = self._gang
        suspicion = gang.suspicion() if gang is not None else {}
        suspect_ranks = sorted(
            int(r) for r, s in suspicion.get("ranks", {}).items()
            if s["state"] != "healthy")
        backpressure = pending >= self.max_pending
        if not running:
            status = "down"
        elif backpressure:
            status = "overloaded"
        elif width < self._target_width or suspect_ranks:
            status = "degraded"
        else:
            status = "ok"
        budget = getattr(self.resilience, "respawn_budget", 0)
        return {
            "status": status,
            "backend": self.backend,
            "width": width,
            "width_target": self._target_width,
            "pending": pending,
            "max_pending": self.max_pending,
            "backpressure": backpressure,
            "suspect_ranks": suspect_ranks,
            "suspicion": suspicion,
            "respawns": {"used": self._respawns_used, "budget": budget},
            "jobs": {"completed": self.jobs_completed,
                     "failed": self.jobs_failed,
                     "rejected": self.jobs_rejected,
                     "expired": self.jobs_expired},
        }
