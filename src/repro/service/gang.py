"""Persistent shard gangs: N long-lived replicas serving a job stream.

A :class:`ServiceGang` is the execution substrate of the service: it
starts N :class:`~repro.dist.worker.ShardWorker` replicas on a
:class:`~repro.dist.gang.Gang` — threads for ``loopback``, forked
processes over the backend's fabric otherwise; the launcher hides which
— and keeps them alive across many programs.  Each :meth:`run_job`
broadcasts one job to every replica and collects N
:class:`~repro.dist.report.ShardReport`\\ s under a single shared
deadline.

Self-healing (the REJOIN policy's substrate):

* every worker runs a **heartbeat ticker** beside its serve loop,
  beating on a deterministic Threefry schedule over the same control
  channel results travel on; a driver-side **channel pump** thread
  drains every channel into per-rank mailboxes and feeds the beats to a
  :class:`~repro.dist.heartbeat.HeartbeatMonitor`, so a silent shard is
  *declared dead* at ``phi_dead`` beat-intervals — far below the
  transport's receive deadline — and quarantined mid-job;
* a worker that observes a **secondary** failure (``PeerGone`` /
  ``CollectiveTimeout`` echoes of somebody else's death) reports it and
  **parks** in its serve loop instead of dying, so :meth:`rejoin` can
  spawn a replacement for just the culprit rank, re-endpoint the parked
  survivors onto a fresh fabric (every rank rebinds simultaneously, so
  collective op ordinals restart in lockstep), and return the gang to
  full width without a rebuild;
* failure *attribution* is structured (:func:`classify_worker_failure`),
  not string matching: crashes blame the crashed rank, determinism
  violations blame exactly the divergent shards even though every rank
  raises, and echoes blame nobody.

A rank whose worker reports a **primary** failure (crash, divergence, a
real bug) still dies — its transport closes behind it, so its peers
fail fast — and :meth:`run_job` raises :class:`GangFailure` naming the
culprit ranks plus the monitor's suspicion snapshot.  The gang is then
inert (``alive`` is False); the *service* decides whether to heal it in
place (:meth:`rejoin`) or rebuild it at some width per the recovery
policy.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.determinism import ControlDeterminismViolation
from ..dist.heartbeat import (HB_SUSPECTED, HeartbeatMonitor,
                              heartbeat_interval)
from ..dist.programs import ProgramSpec
from ..dist.report import ShardReport
from ..dist.gang import Channel, ChannelClosed, Gang
from ..dist.transport import (DEFAULT_DEADLINE_S, PROCESS_BACKENDS,
                              Transport, transport_from_claim)
from ..dist.worker import ShardWorker
from ..faults.injector import CollectiveTimeout, FaultInjector, ShardCrash
from ..faults.plan import (FaultPlan, PlannedBeatLoss, PlannedCrash,
                           PlannedRespawnFail, PlannedStall)
from ..obs.events import (CAT_RESILIENCE, CONTROL_SHARD, EV_HB_DEAD,
                          EV_HB_SUSPECT)
from ..obs.profiler import Profiler

__all__ = ["GangFailure", "RejoinError", "ServiceGang", "GANG_BACKENDS",
           "classify_worker_failure"]

GANG_BACKENDS = ("loopback",) + PROCESS_BACKENDS

#: Heartbeat schedule seed and the phi thresholds of the gang's monitor: a
#: rank is suspected at phi 4 and declared dead at phi 12.
_HB_SEED = 0
_PHI_SUSPECT = 4.0
_PHI_DEAD = 12.0


class GangFailure(RuntimeError):
    """The gang died (or timed out) executing one job.

    ``culprit_shards`` names the ranks whose workers reported primary
    failures (crashes and divergences, as opposed to the peers that merely
    observed the resulting dead collectives) — the duck-typed attribute
    :func:`repro.resilience.identify_culprits` looks for.  ``suspicion``
    is the heartbeat monitor's snapshot at failure time, carried into
    recovery reports.
    """

    def __init__(self, job_id: str, failures: List[str],
                 culprit_shards: Optional[List[int]] = None,
                 suspicion: Optional[Dict[str, Any]] = None):
        self.job_id = job_id
        self.failures = list(failures)
        self.culprit_shards = list(culprit_shards or [])
        self.suspicion = dict(suspicion or {})
        super().__init__(
            f"gang failed job {job_id or '<unnamed>'}: "
            + "; ".join(self.failures))


class RejoinError(RuntimeError):
    """A live rejoin did not complete (replacement died mid-rejoin).

    The gang is left inert but safely stoppable; ``culprit_shards`` names
    the ranks that never acknowledged the new generation, so the service
    can replan (another respawn attempt, or the DEGRADE fallback once the
    respawn budget is exhausted).
    """

    def __init__(self, culprit_shards: List[int], message: str):
        self.culprit_shards = list(culprit_shards)
        super().__init__(message)


def _fault_payload(plan: Optional[FaultPlan]) -> Optional[dict]:
    """Wire form of the fault plans the service injects."""
    if plan is None:
        return None
    return {"seed": plan.seed,
            "crashes": [[c.shard, c.call] for c in plan.crashes],
            "beat_losses": [[b.shard, b.beat, b.count]
                            for b in plan.beat_losses],
            "stalls": [[s.shard, s.beat, s.beats] for s in plan.stalls],
            "respawn_fails": [[f.rank, f.attempt]
                              for f in plan.respawn_fails],
            "rates": dict(plan.rates)}


def _fault_injector(payload: Optional[dict]) -> Optional[FaultInjector]:
    if payload is None:
        return None
    plan = FaultPlan(
        seed=int(payload.get("seed", 0)),
        crashes=[PlannedCrash(int(s), int(c))
                 for s, c in payload.get("crashes", ())],
        beat_losses=[PlannedBeatLoss(int(s), int(b), int(n))
                     for s, b, n in payload.get("beat_losses", ())],
        stalls=[PlannedStall(int(s), int(b), int(n))
                for s, b, n in payload.get("stalls", ())],
        respawn_fails=[PlannedRespawnFail(int(r), int(a))
                       for r, a in payload.get("respawn_fails", ())],
        rates={str(k): float(v)
               for k, v in payload.get("rates", {}).items()})
    return FaultInjector(plan)


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
      observes one parks for rejoin instead of dying;
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


def _ticker_loop(send_beat: Callable[[int], None], rank: int,
                 stop: threading.Event, interval_s: float, seed: int,
                 injector: Optional[FaultInjector]) -> None:
    """Worker-side heartbeat: deterministic schedule, injectable loss."""
    k = 0
    while not stop.is_set():
        if stop.wait(heartbeat_interval(seed, rank, k, interval_s)):
            return
        if not (injector is not None and injector.enabled
                and injector.drop_beat(rank, k)):
            try:
                send_beat(k)
            except Exception:  # noqa: BLE001 - channel gone: stop beating
                return
        k += 1


class ServiceGang:
    """N persistent replicas plus the driver-side job broadcast."""

    def __init__(self, num_shards: int, backend: str = "loopback",
                 batch: int = 64, deadline_s: float = DEFAULT_DEADLINE_S,
                 job_timeout_s: float = 60.0,
                 profile_dir: Optional[str] = None,
                 profiler: Optional[Profiler] = None,
                 hb_interval_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic,
                 fault: Optional[FaultPlan] = None):
        if backend not in GANG_BACKENDS:
            raise ValueError(f"unknown gang backend {backend!r}; "
                             f"expected one of {GANG_BACKENDS}")
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        self.backend = backend
        self.batch = batch
        self.deadline_s = deadline_s
        self.job_timeout_s = job_timeout_s
        self.profile_dir = profile_dir
        self.profiler = profiler if profiler is not None \
            else Profiler(enabled=False)
        self.hb_interval_s = hb_interval_s
        self.jobs_run = 0
        self.respawns = 0
        self._clock = clock
        self._alive = False
        self._started = False
        self._stopped = False
        # gang-level chaos plan (heartbeat loss / stalls / respawn
        # failures live here; per-job plans ride the job payload)
        self._fault = fault
        self._injector = FaultInjector(fault) if fault is not None else None
        self._gang: Optional[Gang] = None
        # The driver's end of each live rank's control channel (rank-keyed
        # so a respawn replaces single entries), drained by the pump into
        # per-rank mailboxes.
        self._channels: Dict[int, Channel] = {}
        self._channel_lock = threading.Lock()
        self._mailbox: Dict[int, "queue.Queue"] = {
            r: queue.Queue() for r in range(num_shards)}
        self._monitor: Optional[HeartbeatMonitor] = None
        self._pump: Optional[threading.Thread] = None
        self._pump_stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def generation(self) -> int:
        return self._gang.generation if self._gang is not None else 0

    def process(self, rank: int) -> Any:
        """The thread/process serving ``rank`` (chaos tooling: its pid)."""
        return self._gang.process(rank)

    def start(self) -> "ServiceGang":
        if self._started:
            raise RuntimeError("gang already started")
        self._started = True
        self._monitor = HeartbeatMonitor(
            self.num_shards, self.hb_interval_s,
            phi_suspect=_PHI_SUSPECT, phi_dead=_PHI_DEAD, clock=self._clock)
        self._gang = Gang(self.backend, self.num_shards,
                          name="repro-svc-shard", deadline_s=self.deadline_s)
        self._spawn(range(self.num_shards))
        self._pump = threading.Thread(target=self._pump_loop,
                                      name="svc-gang-pump", daemon=True)
        self._pump.start()
        self._alive = True
        return self

    def stop(self) -> None:
        """Graceful shutdown; strictly idempotent, safe on a dead gang."""
        if self._stopped or not self._started:
            return
        self._stopped = True
        self._alive = False
        # The pump goes down first so worker exits don't get booked as
        # heartbeat deaths during an orderly shutdown.
        self._pump_stop.set()
        if self._pump is not None:
            self._pump.join(2.0)
        for channel in self._channels.values():
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

    # -- liveness ------------------------------------------------------------

    def suspicion(self) -> Dict[str, Any]:
        """The heartbeat monitor's JSON-safe snapshot (health endpoint)."""
        if self._monitor is None:
            return {}
        return self._monitor.snapshot(self._clock())

    def health(self) -> Dict[str, Any]:
        return {"alive": self._alive, "backend": self.backend,
                "num_shards": self.num_shards,
                "generation": self.generation,
                "respawns": self.respawns, "jobs_run": self.jobs_run,
                "suspicion": self.suspicion()}

    def _pump_loop(self) -> None:
        """Drain every worker channel continuously.

        Beats feed the monitor; everything else lands in the sender's
        mailbox for :meth:`_await_results` / :meth:`rejoin` to consume.
        Runs even between jobs, so idle-time deaths are detected (and
        reported as profiler events) before the next dispatch.
        """
        prof = self.profiler
        monitor = self._monitor
        while not self._pump_stop.is_set():
            moved = False
            with self._channel_lock:
                channels = list(self._channels.items())
            for rank, channel in channels:
                for _ in range(64):         # bounded drain per channel
                    try:
                        msg = channel.recv(0)
                    except ChannelClosed:
                        with self._channel_lock:
                            if self._channels.get(rank) is channel:
                                del self._channels[rank]
                        if monitor.force_dead(rank) and prof.enabled:
                            prof.instant(CONTROL_SHARD, CAT_RESILIENCE,
                                         EV_HB_DEAD, rank=rank,
                                         reason="channel-eof")
                        self._mailbox[rank].put(
                            ("gone", "worker channel closed "
                                     "(died without a result)"))
                        break
                    if msg is None:
                        break
                    moved = True
                    if msg[0] == "beat":
                        monitor.beat(rank)
                    else:
                        self._mailbox[rank].put(msg)
            for state, rank, _at in monitor.poll():
                if prof.enabled:
                    ev = EV_HB_SUSPECT if state == HB_SUSPECTED \
                        else EV_HB_DEAD
                    prof.instant(CONTROL_SHARD, CAT_RESILIENCE, ev,
                                 rank=rank, phi=round(monitor.phi(rank), 3))
            if not moved:
                self._pump_stop.wait(0.003)

    def _drain_mailbox(self, rank: int) -> None:
        box = self._mailbox[rank]
        while True:
            try:
                box.get_nowait()
            except queue.Empty:
                return

    # -- the one public operation --------------------------------------------

    def run_job(self, spec: ProgramSpec, job_id: str = "",
                program_id: str = "", session: str = "",
                capture_digests: bool = False,
                fault: Optional[FaultPlan] = None) -> List[ShardReport]:
        """Broadcast one program to every replica; N conformant reports.

        Raises :class:`GangFailure` — and marks the gang dead — if any
        replica errors, goes heartbeat-dead, or the shared deadline
        passes.  ``fault`` scopes an injected fault plan to this job
        (chaos testing / CI).
        """
        if not self._alive:
            raise GangFailure(job_id, ["gang is down"], [],
                              suspicion=self.suspicion())
        dead = self._monitor.dead_ranks(self._clock()) \
            if self._monitor is not None else []
        if dead:
            # Idle-time death, caught by the pump before any dispatch:
            # fail fast instead of feeding a job to a broken gang.
            self._alive = False
            for r in dead:
                self._gang.kill(r)
            raise GangFailure(
                job_id,
                [f"shard {r}: declared dead by heartbeat suspicion "
                 f"before dispatch" for r in dead],
                list(dead), suspicion=self.suspicion())
        self.jobs_run += 1
        job = {"spec": spec, "job_id": job_id,
               "program_id": program_id, "session": session,
               "capture": capture_digests,
               "fault": _fault_payload(fault)}
        for rank in range(self.num_shards):
            self._drain_mailbox(rank)
        results: Dict[int, tuple] = {}
        with self._channel_lock:
            channels = dict(self._channels)
        for rank in range(self.num_shards):
            try:
                channels[rank].send(("job", job))
            except (KeyError, ChannelClosed):
                results[rank] = ("gone", "worker control channel is closed")
        self._await_results(results)
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
                blamed = status in ("gone", "hb-dead") or (
                    status == "error" and _primary_failure(str(payload)))
                if blamed and rank not in culprits:
                    culprits.append(rank)
        if failures:
            self._alive = False
            raise GangFailure(job_id, failures, sorted(culprits),
                              suspicion=self.suspicion())
        return [reports[r] for r in sorted(reports)]

    def _await_results(self, results: Dict[int, tuple]) -> None:
        """Fill ``results`` for every rank, or classify the silence.

        The early-exit path is the heartbeat payoff: a rank the monitor
        declares dead is quarantined immediately (its peers fail fast
        with ``PeerGone``), and once every still-pending rank is
        declared, the wait ends — detection latency is bounded by
        ``phi_dead`` beat-intervals, not by the transport deadline.
        """
        deadline = self._clock() + self.job_timeout_s
        pending = set(range(self.num_shards)) - set(results)
        declared: set = set()
        while pending:
            got = False
            for rank in sorted(pending):
                try:
                    msg = self._mailbox[rank].get_nowait()
                except queue.Empty:
                    continue
                if msg[0] == "rejoined":
                    continue          # stale ack from an older generation
                results[rank] = (msg[0], msg[1])
                pending.discard(rank)
                got = True
            if not pending:
                return
            now = self._clock()
            for rank in self._monitor.dead_ranks(now):
                if rank in pending and rank not in declared:
                    declared.add(rank)
                    self._gang.kill(rank)
            if pending <= declared:
                # Every rank still owing a result is heartbeat-dead: no
                # answer can arrive, stop waiting out the deadline.
                for rank in pending:
                    results[rank] = (
                        "hb-dead",
                        f"declared dead by heartbeat suspicion "
                        f"(phi >= {self._monitor.phi_dead})")
                return
            if now >= deadline:
                for rank in pending:
                    results[rank] = ("timeout",
                                     f"no result within "
                                     f"{self.job_timeout_s}s")
                return
            if not got:
                time.sleep(0.002)

    # -- live rejoin ---------------------------------------------------------

    def rejoin(self, ranks: List[int], attempt: int = 1) -> None:
        """Respawn workers for ``ranks``; re-endpoint the survivors.

        The REJOIN recovery primitive: a fresh fabric replaces the
        poisoned one, parked survivors rebind to it over their control
        channels, replacement workers are spawned for the dead ranks, and
        every rank acknowledges the new generation.  On success the gang
        is alive again at full width with a reset heartbeat baseline; on
        a missing acknowledgment (a replacement died mid-rejoin — see
        :class:`~repro.faults.plan.PlannedRespawnFail`) it raises
        :class:`RejoinError` and the gang stays inert but stoppable.
        """
        if not self._started or self._stopped:
            raise RejoinError(sorted(ranks), "gang is stopped")
        ranks = sorted(set(ranks))
        if not ranks or any(r < 0 or r >= self.num_shards for r in ranks):
            raise ValueError(f"bad rejoin ranks {ranks} "
                             f"for width {self.num_shards}")
        # Planned respawn failures (chaos): the replacement is dead on
        # arrival — never spawned, so its ack can only time out.
        doa = [r for r in ranks
               if self._injector is not None and self._injector.enabled
               and self._injector.fail_respawn(r, attempt)]
        # Reap the dead ranks first.  Flagging them on the poisoned mesh
        # makes survivors still blocked in a collective cascade-abort with
        # PeerGone now; a wedged-but-alive zombie thread exits at its next
        # channel read instead of serving a stale generation.
        for r in ranks:
            with self._channel_lock:
                self._channels.pop(r, None)
            self._gang.kill(r)
            self._drain_mailbox(r)
        old_fabric = self._gang.renew_fabric()
        gen = self._gang.generation
        # Survivors next: each is sent its claim on the new mesh over its
        # control channel (descriptors are duplicated as the claim is
        # pickled, so the parent's copies can be released after the spawns
        # below; shm claims are just segment names to attach by; threads
        # are handed the shared fabric itself).
        with self._channel_lock:
            survivors = dict(self._channels)
        for r, channel in survivors.items():
            try:
                channel.send(("rejoin", gen, self._gang.fabric.claim(r)))
            except ChannelClosed:
                pass   # its ack will be missing; rejoin reports it
        self._spawn([r for r in ranks if r not in doa], gen)
        # The poisoned mesh is fully superseded: every survivor rebinds
        # via its claim, so the parent can release (and for shm, unlink)
        # the old generation's resources.
        old_fabric.close_all()
        missing = self._collect_rejoin_acks(gen, doa)
        if missing:
            raise RejoinError(
                missing, f"no rejoin ack from shards {missing} "
                         f"(generation {gen}, attempt {attempt})")
        self.respawns += len(ranks)
        now = self._clock()
        for r in range(self.num_shards):
            self._monitor.reset(r, now)
        self._alive = True

    def _collect_rejoin_acks(self, gen: int, doa: List[int]) -> List[int]:
        deadline = self._clock() + max(5.0, self.deadline_s)
        pending = set(range(self.num_shards)) - set(doa)
        while pending and self._clock() < deadline:
            got = False
            for rank in sorted(pending):
                try:
                    msg = self._mailbox[rank].get_nowait()
                except queue.Empty:
                    continue
                got = True
                if msg[0] == "rejoined" and msg[2] == gen:
                    pending.discard(rank)
                # anything else is stale pre-rejoin traffic: drop it
            if not got:
                time.sleep(0.002)
        return sorted(pending | set(doa))

    # -- workers -------------------------------------------------------------

    def _spawn(self, ranks: Iterable[int], announce_gen: int = 0) -> None:
        """Start a serving worker on each of ``ranks`` (start and rejoin)."""
        for rank in ranks:
            channel = self._gang.spawn(
                rank, _serve, self.backend, self.batch, self.profile_dir,
                self.hb_interval_s, _fault_payload(self._fault),
                announce_gen)
            with self._channel_lock:
                self._channels[rank] = channel
        self._gang.release_parent()


def _serve(transport: Transport, channel: Channel, backend: str, batch: int,
           profile_dir: Optional[str], hb_interval_s: float,
           fault_payload: Optional[dict], announce_gen: int) -> None:
    """A serving rank: run jobs off the channel until stop or death.

    Everything this loop touches arrives as an argument or over the
    channel: after a respawn the old occupant of the rank keeps its own
    dead channel and fabric, invisible to the new generation.
    """
    rank = transport.rank
    worker = ShardWorker(transport, backend=backend, batch=batch,
                         profile_dir=profile_dir)
    stop_beats = threading.Event()
    ticker = threading.Thread(
        target=_ticker_loop,
        args=(lambda k: channel.send(("beat", rank, k)), rank, stop_beats,
              hb_interval_s, _HB_SEED, _fault_injector(fault_payload)),
        name=f"svc-hb-{rank}", daemon=True)
    ticker.start()
    try:
        if announce_gen:
            channel.send(("rejoined", rank, announce_gen))
        while True:
            cmd = channel.recv()
            if cmd[0] == "stop":
                return
            if cmd[0] == "rejoin":
                _, gen, claim = cmd
                worker.rebind(transport_from_claim(claim))
                channel.send(("rejoined", rank, gen))
                continue
            job = cmd[1]
            try:
                report = worker.run_job(
                    job["spec"],
                    program_id=job["program_id"], session=job["session"],
                    capture_digests=job["capture"],
                    injector=_fault_injector(job["fault"]))
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
                # Secondary observer: park for rejoin (or stop) — the gang
                # heals around the culprit without losing us.  Close our
                # mesh endpoints first so the abort *cascades*: a peer
                # waiting on us fails fast with PeerGone instead of
                # draining its whole recv deadline, and a stale job
                # dispatched before rejoin trips the use-after-close
                # TransportError instead of wedging.
                worker.transport.close()
                continue
            channel.send(("ok", report))
    except ChannelClosed:
        return                          # driver is gone; fold quietly
    finally:
        stop_beats.set()
        worker.save_profile()
        worker.transport.close()
