"""Gang reaping deadlines: a wedged gang dies in ~1x the timeout, not Nx.

Regression tests for the overshoot bugs the launcher's ``collect`` exists
to prevent: joining each worker with ``remaining + 5.0`` *sequentially*
(up to +5s per worker past the deadline), or joining each thread with the
full timeout (N x total wall clock for N wedged shards) and then never
looking whether it actually finished.  ``Gang.collect`` shares one
monotonic deadline across all waits and treats silence as a failure —
for thread gangs and process gangs alike.
"""

import os
import signal
import threading
import time

import pytest

import repro.dist.runner as runner_mod
import repro.runtime.runtime as runtime_mod
from repro.dist import DistRunner, Gang, stencil_program
from repro.runtime import Runtime

GANGS = ["loopback", "tcp"]

# Released at module teardown so the wedged worker's daemon threads do
# not outlive the tests' interest in them (processes are simply killed).
_RELEASE = threading.Event()


def teardown_module(module):
    _RELEASE.set()


def _wedged(transport, channel):
    channel.recv()                   # a command that never comes


def _exits_fast(transport, channel):
    pass


@pytest.mark.parametrize("backend", GANGS)
def test_collect_gives_up_on_a_wedged_gang_within_one_timeout(backend):
    gang = Gang(backend, 4)
    try:
        for rank in range(4):
            gang.spawn(rank, _wedged)
        gang.release_parent()
        start = time.monotonic()
        payloads, failures = gang.collect(timeout_s=0.5)
        elapsed = time.monotonic() - start
    finally:
        gang.terminate()
    assert payloads == {}
    assert len(failures) == 4
    assert all("no report within" in f for f in failures)
    # One shared deadline, with scheduler slack.  The old per-worker
    # accounting would have taken >= timeout + 4 x 5s here.
    assert elapsed < 3.0, f"wedged gang held the supervisor {elapsed:.1f}s"


@pytest.mark.parametrize("backend", GANGS)
def test_silent_exit_is_a_failure_not_a_short_result(backend):
    gang = Gang(backend, 2)
    try:
        gang.spawn(0, _exits_fast)
        gang.spawn(1, lambda transport, channel:
                   channel.send(("ok", transport.rank)))
        gang.release_parent()
        payloads, failures = gang.collect(timeout_s=10.0)
    finally:
        gang.terminate()
    assert payloads == {1: 1}
    assert len(failures) == 1 and "died without a report" in failures[0]


class _WedgedShardWorker:
    """Stands in for ShardWorker: claims a transport, then never returns."""

    def __init__(self, transport, backend, **kwargs):
        self.transport = transport

    def run_job(self, spec):
        _RELEASE.wait(120.0)


@pytest.mark.parametrize("backend", GANGS)
def test_runner_join_shares_one_deadline(monkeypatch, backend):
    monkeypatch.setattr(runner_mod, "ShardWorker", _WedgedShardWorker)
    runner = DistRunner(stencil_program(4, steps=1), 4, backend=backend,
                        join_timeout_s=1.0)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="no report within"):
        runner.run()
    elapsed = time.monotonic() - start
    # All four wedged shards share one 1s deadline; the old code gave
    # each the full timeout (>= 4s total).
    assert elapsed < 3.0, f"wedged gang held the runner {elapsed:.1f}s"


def test_wedged_loopback_replica_raises_instead_of_returning(monkeypatch):
    """A replica that neither reports nor errors is a failure.

    With checking off nothing else would notice it: the old loopback path
    joined each replica thread with its own 120s and never looked at
    ``is_alive()``, so ``execute`` returned success with a short
    ``replica_reports``.
    """
    monkeypatch.setattr(runtime_mod, "REPLICA_TIMEOUT_S", 0.5,
                        raising=False)
    release = threading.Event()

    def control(ctx):
        ctx.create_field_space([("x", "f8")])
        if ctx.shard == 1:
            release.wait(3.0)

    rt = Runtime(num_shards=3, backend="loopback", safe_checks=False)
    try:
        with pytest.raises(RuntimeError, match="shard 1: no report within"):
            rt.execute(control)
    finally:
        release.set()
    assert rt.replica_reports == []


@pytest.mark.parametrize("backend", GANGS)
def test_terminate_is_idempotent_and_orphan_free(backend):
    """terminate must survive double invocation, already-exited ranks,
    already-closed channels, and a SIGSTOPped (stalled) worker that
    ignores SIGTERM — and leave nothing behind in every case."""
    gang = Gang(backend, 4)
    channels = [gang.spawn(rank, _exits_fast if rank == 0 else _wedged)
                for rank in range(4)]
    gang.release_parent()
    gang.process(0).join(5.0)                # rank 0 already exited
    channels[1].close()                      # rank 1's channel already closed
    if gang.forks:
        # rank 2 stalled: SIGTERM queues, only KILL works
        os.kill(gang.process(2).pid, signal.SIGSTOP)
    gang.terminate()
    gang.terminate()                         # second sweep: strict no-op
    for rank in range(4):
        assert not gang.process(rank).is_alive(), \
            f"rank {rank} survived the sweep"
