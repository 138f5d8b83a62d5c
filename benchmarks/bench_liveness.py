"""How fast a serving gang notices a dead or stalled rank, and whether it
ever mistakes a busy one for a stalled one.

::

    PYTHONPATH=src python benchmarks/bench_liveness.py stop tcp
    PYTHONPATH=src python benchmarks/bench_liveness.py {stop,kill,load,idle} BACKEND

Each scenario prints one JSON line:

* ``stop`` — a ×4 gang runs one job, rank 3 is ``SIGSTOP``ped, and the
  next job is timed to its ``GangFailure`` (``gang_failure_s``, with the
  culprits named); then the same through a RESTART ``DCRService``, timed
  from submission to the result of the rebuilt gang;
* ``kill`` — the same with rank 1 ``SIGKILL``ed while the gang idles;
* ``load`` — a saturating load generator (8 clients × 12 submissions, 48
  shapes, tiles 16, steps 4) against a ×4 RESTART service: the cold gang
  jobs' median and maximum duration and the recoveries (a recovery here
  is a false positive);
* ``idle`` — CPU milliseconds per wall second of an idle
  ``DCRService(2, BACKEND)``, three runs.

``docs/resilience.md`` ("Measured detection") has the committed table.
"""

import json
import os
import signal
import statistics
import sys
import time

from repro.dist.programs import OpSpec, ProgramSpec
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.service import DCRService
from repro.service.gang import GangFailure, ServiceGang
from repro.service.loadgen import run_load

SPECS = [
    ProgramSpec(tiles=8, ops=(OpSpec("fill"), OpSpec("bump", 3),
                              OpSpec("blend", 1), OpSpec("readx"))),
    ProgramSpec(tiles=6, ops=(OpSpec("fill"), OpSpec("scale", 2),
                              OpSpec("blend", 5), OpSpec("bump", 7))),
]


def _restart_service(backend, deadline_s=30.0):
    return DCRService(4, backend=backend, deadline_s=deadline_s,
                      job_timeout_s=60.0,
                      resilience=ResilienceConfig(
                          policy=RecoveryPolicy.RESTART, max_recoveries=4))


def _failure_after(backend, harm):
    """Seconds from ``harm(gang)`` to the next job's GangFailure."""
    with ServiceGang(4, backend=backend, deadline_s=30.0,
                     job_timeout_s=60.0) as gang:
        gang.run_job(SPECS[0], job_id="warm")
        harm(gang)
        t0 = time.monotonic()
        try:
            gang.run_job(SPECS[1], job_id="harmed")
            culprits = None
        except GangFailure as failure:
            culprits = failure.culprit_shards
        return round(time.monotonic() - t0, 3), culprits


def _recovered_after(backend, harm):
    """Seconds from submission to result after ``harm(gang)``."""
    with _restart_service(backend) as svc:
        session = svc.open_session("s")
        session.run(SPECS[0])
        harm(svc._gang)
        t0 = time.monotonic()
        session.submit(SPECS[1]).result(120.0)
        return round(time.monotonic() - t0, 3), svc.stats()["recoveries"]


def _sigstop(gang):
    os.kill(gang.process(3).pid, signal.SIGSTOP)


def _sigkill_then_idle(gang):
    victim = gang.process(1)
    victim.kill()
    victim.join(5.0)
    time.sleep(0.5)


def stop(backend):
    failure_s, culprits = _failure_after(backend, _sigstop)
    recovered_s, recoveries = _recovered_after(backend, _sigstop)
    return {"gang_failure_s": failure_s, "culprits": culprits,
            "stop_to_recovered_s": recovered_s, "recoveries": recoveries}


def kill(backend):
    failure_s, culprits = _failure_after(backend, _sigkill_then_idle)
    recovered_s, recoveries = _recovered_after(backend, _sigkill_then_idle)
    return {"gang_failure_s": failure_s, "culprits": culprits,
            "kill_to_recovered_s": recovered_s, "recoveries": recoveries}


def load(backend):
    durations = []
    real = ServiceGang.run_job

    def timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real(self, *args, **kwargs)
        finally:
            durations.append((time.perf_counter() - t0) * 1e3)

    ServiceGang.run_job = timed
    try:
        with _restart_service(backend, deadline_s=10.0) as svc:
            res = run_load(svc, clients=8, submissions_per_client=12,
                           shapes=48, tiles=16, steps=4, seed=0)
            recoveries = svc.stats()["recoveries"]
    finally:
        ServiceGang.run_job = real
    return {"cold_jobs": len(durations),
            "median_ms": round(statistics.median(durations), 1),
            "max_ms": round(max(durations), 1), "recoveries": recoveries,
            "completed": res.completed, "failed": res.failed,
            "rejected": res.rejected}


def idle(backend):
    runs = []
    for _ in range(3):
        with DCRService(2, backend=backend):
            time.sleep(0.5)
            c0, w0 = time.process_time(), time.monotonic()
            time.sleep(3.0)
            c1, w1 = time.process_time(), time.monotonic()
        runs.append(round((c1 - c0) * 1e3 / (w1 - w0), 2))
    return {"idle_cpu_ms_per_s": runs}


SCENARIOS = {"stop": stop, "kill": kill, "load": load, "idle": idle}


def main(argv):
    if len(argv) != 2 or argv[0] not in SCENARIOS:
        print(__doc__, file=sys.stderr)
        return 2
    what, backend = argv
    print(json.dumps({"what": what, "backend": backend,
                      **SCENARIOS[what](backend)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
