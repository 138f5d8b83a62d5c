"""Persistent shard gangs: N long-lived replicas serving a job stream.

A :class:`ServiceGang` is the execution substrate of the service: it
starts N :class:`~repro.dist.worker.ShardWorker` replicas on a
:class:`~repro.dist.gang.Gang` — threads for ``loopback``, forked
processes over the backend's fabric otherwise; the launcher hides which
— and keeps them alive across many programs.  Each :meth:`run_job`
sends one job to every replica and reads the N
:class:`~repro.dist.report.ShardReport`\\ s back, each off its rank's own
channel.  A one-job gang is how ``python -m repro.tools.dist`` runs a
program.

Failure detection is the channels and one rule:

* a rank that dies closes its channel, so the driver's read raises
  :class:`~repro.dist.gang.ChannelClosed`: the rank is **dead**;
* every read of one job shares one deadline, the job's **silence
  budget** (:func:`silence_budget`): a few dozen times what the gang's
  own successful jobs took per unit of work, never below
  :data:`FLOOR_S`, never above ``job_timeout_s``.  A rank still silent
  when it runs out is **stalled** (stopped, wedged or livelocked), is
  killed, and is named a culprit — when its peers are blocked in a
  collective with it, that is all of them;
* a worker that observes a **secondary** failure (``PeerGone`` /
  ``CollectiveTimeout`` echoes of somebody else's death) reports it,
  closes its mesh endpoints so the abort cascades, and waits for
  ``stop`` instead of dying, so only the culprit's channel closes;
* failure *attribution* is structured (:func:`classify_worker_failure`),
  not string matching: crashes blame the crashed rank, determinism
  violations blame exactly the divergent shards even though every rank
  raises, and echoes blame nobody.

A rank whose worker reports a **primary** failure (crash, divergence, a
real bug) dies — its transport closes behind it, so its peers fail
fast — and :meth:`run_job` raises :class:`GangFailure` naming the
culprit ranks.  The gang is then inert (``alive`` is False); the
*service* stops it and builds a new one at the width its recovery policy
plans.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..core.determinism import ControlDeterminismViolation
from ..dist.gang import Channel, ChannelClosed, Gang
from ..dist.programs import ProgramSpec
from ..dist.report import ShardReport
from ..dist.runner import BACKENDS as GANG_BACKENDS
from ..dist.transport import DEFAULT_DEADLINE_S, Transport
from ..dist.worker import ShardWorker
from ..faults.injector import CollectiveTimeout, FaultInjector, ShardCrash
from ..faults.plan import FaultPlan

__all__ = ["GangFailure", "ServiceGang", "GANG_BACKENDS",
           "classify_worker_failure", "silence_budget", "units",
           "FLOOR_S", "K"]

#: The silence budget never drops below this many seconds, whatever the
#: gang's jobs have taken so far.
FLOOR_S = 2.0
#: The budget is this many times the expected duration of the job.
K = 50


def units(spec: ProgramSpec) -> int:
    """A job's size for the budget: tiles times operations."""
    return max(1, spec.tiles * len(spec.ops))


def silence_budget(spec: ProgramSpec, s_per_unit: Optional[float],
                   job_timeout_s: float) -> float:
    """Seconds a gang waits for ``spec``'s results before it calls the
    silent ranks stalled.

    ``s_per_unit`` is the gang's EWMA of seconds per :func:`units` over
    its successful jobs (``None`` before the first one, when the budget
    is ``job_timeout_s``).  Scaling by the job's size keeps the first run
    of a much larger shape from reading as a stall.
    """
    if s_per_unit is None:
        return job_timeout_s
    return min(job_timeout_s, max(FLOOR_S, K * s_per_unit * units(spec)))


class GangFailure(RuntimeError):
    """The gang died (or stalled) executing one job.

    ``culprit_shards`` names the ranks whose workers reported primary
    failures, died, or stayed silent past the job's budget (as opposed to
    the peers that merely observed the resulting dead collectives) — the
    duck-typed attribute :func:`repro.resilience.identify_culprits` looks
    for.
    """

    def __init__(self, job_id: str, failures: List[str],
                 culprit_shards: Optional[List[int]] = None):
        self.job_id = job_id
        self.failures = list(failures)
        self.culprit_shards = list(culprit_shards or [])
        super().__init__(
            f"gang failed job {job_id or '<unnamed>'}: "
            + "; ".join(self.failures))


def _injector_for(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    return FaultInjector(plan) if plan is not None else None


def _primary_failure(message: str) -> bool:
    """String-prefix fallback for legacy (pre-structured) error payloads.

    Kept only for payloads that cross the channel as bare strings;
    everything the workers emit today is classified structurally by
    :func:`classify_worker_failure` *before* stringification, which is
    what fixes the simultaneous-multi-crash attribution (a determinism
    violation raises on **all** ranks — prefix matching would have blamed
    every one of them).
    """
    return not message.startswith(("PeerGone", "CollectiveTimeout"))


def classify_worker_failure(exc: BaseException, rank: int
                            ) -> "tuple[str, bool, List[int]]":
    """``(message, primary, culprits)`` for one worker's failure.

    * a :class:`~repro.faults.injector.ShardCrash` is primary and blames
      the crashed shard (which is ``rank`` itself — the injector fires in
      the crashing replica);
    * a :class:`~repro.core.determinism.ControlDeterminismViolation`
      raises on *every* rank simultaneously (the conformance allreduce
      makes the verdict global), so a rank is a culprit only if it is in
      ``divergent_shards`` — every rank still *names* the divergent set,
      letting the driver attribute correctly even under simultaneous
      multi-shard divergence;
    * ``PeerGone`` / ``CollectiveTimeout`` are secondary echoes of
      somebody else's death: not primary, no culprits — the worker that
      observes one waits for ``stop`` instead of dying;
    * anything else is a primary failure of ``rank`` (a real bug).
    """
    message = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, ShardCrash):
        return message, True, [exc.shard]
    if isinstance(exc, ControlDeterminismViolation):
        divergent = sorted(getattr(exc, "divergent_shards", ()) or ())
        return message, rank in divergent, list(divergent)
    if isinstance(exc, CollectiveTimeout):   # includes PeerGone
        return message, False, []
    return message, True, [rank]


class ServiceGang:
    """N persistent replicas plus the driver-side job broadcast."""

    def __init__(self, num_shards: int, backend: str = "loopback",
                 batch: int = 64, deadline_s: float = DEFAULT_DEADLINE_S,
                 job_timeout_s: float = 60.0,
                 profile_dir: Optional[str] = None):
        if backend not in GANG_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {GANG_BACKENDS}")
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        self.backend = backend
        self.batch = batch
        self.deadline_s = deadline_s
        self.job_timeout_s = job_timeout_s
        self.profile_dir = profile_dir
        self.jobs_run = 0
        self._alive = False
        self._started = False
        self._stopped = False
        self._gang: Optional[Gang] = None
        #: The driver's end of each rank's control channel, by rank.
        self._channels: List[Channel] = []
        #: EWMA of seconds per unit of work over the successful jobs.
        self._s_per_unit: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def process(self, rank: int) -> Any:
        """The thread/process serving ``rank`` (chaos tooling: its pid)."""
        return self._gang.process(rank)

    def start(self) -> "ServiceGang":
        if self._started:
            raise RuntimeError("gang already started")
        self._started = True
        self._gang = Gang(self.backend, self.num_shards,
                          name="repro-svc-shard", deadline_s=self.deadline_s)
        self._channels = [
            self._gang.spawn(rank, _serve, self.backend, self.batch,
                             self.profile_dir)
            for rank in range(self.num_shards)]
        self._gang.release_parent()
        self._alive = True
        return self

    def stop(self) -> None:
        """Graceful shutdown; strictly idempotent, safe on a dead gang."""
        if self._stopped or not self._started:
            return
        self._stopped = True
        self._alive = False
        for channel in self._channels:
            try:
                channel.send(("stop",))
            except ChannelClosed:
                pass
        # Workers told to stop get one shared allowance to save their
        # profiles and exit; the launcher reaps whatever is left.
        self._gang.terminate(grace_s=5.0)

    def __enter__(self) -> "ServiceGang":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- the one public operation --------------------------------------------

    def run_job(self, spec: ProgramSpec, job_id: str = "",
                program_id: str = "", session: str = "",
                capture_digests: bool = False,
                fault: Optional[FaultPlan] = None) -> List[ShardReport]:
        """Send one program to every replica; N conformant reports.

        Raises :class:`GangFailure` — and marks the gang dead — if any
        replica errors, dies, or stays silent past the job's silence
        budget.  ``fault`` scopes an injected fault plan to this job
        (chaos testing / CI).
        """
        if not self._alive:
            raise GangFailure(job_id, ["gang is down"], [])
        self.jobs_run += 1
        job = {"spec": spec, "job_id": job_id,
               "program_id": program_id, "session": session,
               "capture": capture_digests,
               "fault": fault}
        results: Dict[int, tuple] = {}
        for rank, channel in enumerate(self._channels):
            try:
                channel.send(("job", job))
            except ChannelClosed:
                results[rank] = ("gone", "worker control channel is closed")
        t0 = time.monotonic()
        budget = silence_budget(spec, self._s_per_unit, self.job_timeout_s)
        for rank in self._await_results(results, t0 + budget):
            # Stalled: end the wait on it, and its peers' with it.
            self._gang.kill(rank)
            results[rank] = ("silent", f"no result within the {budget:.2f}s "
                                       f"silence budget")
        reports: Dict[int, ShardReport] = {}
        failures: List[str] = []
        culprits: List[int] = []
        for rank, (status, payload) in sorted(results.items()):
            if status == "ok":
                reports[rank] = payload
                continue
            if isinstance(payload, dict):
                failures.append(f"shard {rank}: {payload.get('error')}")
                named = [int(c) for c in payload.get("culprits") or ()]
                if payload.get("primary") and not named:
                    named = [rank]
                culprits.extend(c for c in named if c not in culprits)
            else:
                failures.append(f"shard {rank}: {payload}")
                blamed = status in ("gone", "silent") or (
                    status == "error" and _primary_failure(str(payload)))
                if blamed and rank not in culprits:
                    culprits.append(rank)
        if failures:
            self._alive = False
            raise GangFailure(job_id, failures, sorted(culprits))
        per_unit = (time.monotonic() - t0) / units(spec)
        self._s_per_unit = per_unit if self._s_per_unit is None \
            else 0.7 * self._s_per_unit + 0.3 * per_unit
        return [reports[r] for r in sorted(reports)]

    def _await_results(self, results: Dict[int, tuple],
                       deadline: float) -> List[int]:
        """Read each pending rank's one message off its own channel, in
        rank order, all against ``deadline``; return the ranks still
        silent at it.  A rank whose channel closes is ``gone``."""
        silent: List[int] = []
        for rank, channel in enumerate(self._channels):
            if rank in results:
                continue
            try:
                msg = channel.recv(max(0.0, deadline - time.monotonic()))
            except ChannelClosed:
                results[rank] = ("gone", "worker channel closed "
                                         "(died without a result)")
                continue
            if msg is None:
                silent.append(rank)
            else:
                results[rank] = (msg[0], msg[1])
        return silent


def _serve(transport: Transport, channel: Channel, backend: str, batch: int,
           profile_dir: Optional[str]) -> None:
    """A serving rank: run jobs off the channel until stop or death."""
    rank = transport.rank
    worker = ShardWorker(transport, backend=backend, batch=batch,
                         profile_dir=profile_dir)
    try:
        while True:
            cmd = channel.recv()
            if cmd[0] == "stop":
                return
            job = cmd[1]
            try:
                report = worker.run_job(
                    job["spec"],
                    program_id=job["program_id"], session=job["session"],
                    capture_digests=job["capture"],
                    injector=_injector_for(job["fault"]))
            except BaseException as exc:  # noqa: BLE001 - reported upward
                message, primary, culprits = \
                    classify_worker_failure(exc, rank)
                channel.send(("error", {"rank": rank, "error": message,
                                        "primary": primary,
                                        "culprits": culprits}))
                if primary:
                    # Die: the transport closes behind us, so peers blocked
                    # in this replica's collective fail fast.
                    return
                # Secondary observer: close our mesh endpoints so the abort
                # *cascades* — a peer waiting on us fails fast with
                # PeerGone instead of draining its whole recv deadline —
                # then wait for stop.  Staying alive keeps our channel
                # open, so only the culprit's channel reads closed.
                worker.transport.close()
                continue
            channel.send(("ok", report))
    except ChannelClosed:
        return                          # driver is gone; fold quietly
    finally:
        worker.save_profile()
        worker.transport.close()
