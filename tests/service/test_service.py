"""Service behavior: admission control, fairness, lifecycle, client API."""

import threading
import time

import pytest

from repro.dist import stencil_program
from repro.obs.events import CAT_SERVICE, EV_JOB_DISPATCH
from repro.obs.profiler import Profiler
from repro.service import AdmissionError, DCRService


def _service(**kw):
    kw.setdefault("backend", "loopback")
    kw.setdefault("deadline_s", 10.0)
    kw.setdefault("job_timeout_s", 30.0)
    return DCRService(2, **kw)


class _GateKeeper:
    """Replaces gang.run_job: blocks every job until released."""

    def __init__(self, gang):
        self._real = gang.run_job
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()

    def __call__(self, *args, **kwargs):
        self.entered.release()
        assert self.release.wait(30.0), "gate never released"
        return self._real(*args, **kwargs)


# -- basic flow --------------------------------------------------------------

def test_submit_stream_with_template_hits():
    spec = stencil_program(6, steps=2)
    with _service() as svc:
        with svc.open_session("a") as session:
            first = session.run(spec)
            second = session.run(spec)
        assert first.conformant and not first.template_hit
        assert second.conformant and second.template_hit
        assert first.program_id == "a/p1" and second.program_id == "a/p2"
        assert first.graph_digest == second.graph_digest
        assert first.determinism_digest == second.determinism_digest
        stats = svc.stats()
        assert stats["completed"] == 2 and stats["template_serves"] == 1


def test_one_session_run_then_submit():
    spec = stencil_program(4, steps=1)
    with DCRService(2, backend="loopback") as svc:
        session = svc.open_session()
        cold = session.run(spec)
        handle = session.submit(spec)
        warm = handle.result(timeout=30.0)
    assert cold.conformant and warm.template_hit
    assert cold.determinism_digest == warm.determinism_digest


def test_session_bookkeeping_errors():
    with _service() as svc:
        session = svc.open_session("a")
        with pytest.raises(ValueError, match="already open"):
            svc.open_session("a")
        with pytest.raises(ValueError, match="no open session"):
            svc.submit("ghost", stencil_program(4, steps=1))
        session.close()
        with pytest.raises(ValueError, match="no open session"):
            session.submit(stencil_program(4, steps=1))
        session.close()   # idempotent


def test_closed_session_is_retired_once_drained():
    """A closed session's queued jobs still complete; once the last one
    resolves the session is forgotten, so its name can be reopened and
    the dispatcher stops walking it."""
    spec = stencil_program(4, steps=1)
    svc = _service()
    svc.start()
    try:
        gate = _GateKeeper(svc._gang)
        svc._gang.run_job = gate
        session = svc.open_session("alpha")
        blocked = session.submit(spec)
        assert gate.entered.acquire(timeout=10.0)
        queued = session.submit(spec)
        session.close()
        assert svc.stats()["sessions"] == 1          # closed, draining
        gate.release.set()
        assert blocked.result(30.0).conformant
        assert queued.result(30.0).conformant
        assert svc.stats()["sessions"] == 0
        for k in range(100):
            svc.open_session(f"s{k}").close()
        assert svc.stats()["sessions"] == 0 and not svc._rr
        assert svc.open_session("alpha").run(spec).conformant
        assert svc.stats()["sessions"] == 1
    finally:
        gate.release.set()
        svc.close()


def test_close_fails_undispatched_jobs():
    spec = stencil_program(4, steps=1)
    svc = _service()
    svc.start()
    gate = _GateKeeper(svc._gang)
    svc._gang.run_job = gate
    session = svc.open_session("a")
    blocked = session.submit(spec)
    assert gate.entered.acquire(timeout=10.0)
    queued = session.submit(spec)
    # Begin closing while the dispatched job is still blocked in the gang:
    # the dispatcher must finish that job but never pick up the queued one.
    closer = threading.Thread(target=svc.close)
    closer.start()
    time.sleep(0.05)
    gate.release.set()
    closer.join(30.0)
    assert not closer.is_alive()
    assert blocked.result(timeout=1.0).conformant
    with pytest.raises(RuntimeError, match="service closed"):
        queued.result(timeout=1.0)
    with pytest.raises(RuntimeError, match="not accepting"):
        svc.submit("a", spec)


# -- admission control -------------------------------------------------------

def test_session_inflight_cap_rejects():
    spec = stencil_program(4, steps=1)
    svc = _service(session_inflight=2)
    svc.start()
    try:
        gate = _GateKeeper(svc._gang)
        svc._gang.run_job = gate
        session = svc.open_session("a")
        h1 = session.submit(spec)
        h2 = session.submit(spec)
        with pytest.raises(AdmissionError, match="in-flight cap"):
            session.submit(spec)
        assert svc.stats()["rejected"] == 1
        gate.release.set()
        assert h1.result(30.0).conformant and h2.result(30.0).conformant
        # Capacity frees up once jobs resolve.
        assert session.submit(spec).result(30.0).conformant
    finally:
        gate.release.set()
        svc.close()


def test_global_queue_bound_rejects():
    spec = stencil_program(4, steps=1)
    svc = _service(max_pending=2, session_inflight=99)
    svc.start()
    try:
        gate = _GateKeeper(svc._gang)
        svc._gang.run_job = gate
        a = svc.open_session("a")
        b = svc.open_session("b")
        dispatched = a.submit(spec)           # leaves the queue immediately
        assert gate.entered.acquire(timeout=10.0)
        handles = [a.submit(spec), b.submit(spec)]   # fills the queue
        with pytest.raises(AdmissionError, match="queue full"):
            b.submit(spec)
        gate.release.set()
        for h in [dispatched, *handles]:
            assert h.result(30.0).conformant
    finally:
        gate.release.set()
        svc.close()


# -- fairness ----------------------------------------------------------------

def test_round_robin_interleaves_sessions():
    """A backlogged chatty session cannot starve a second session."""
    spec = stencil_program(4, steps=1)
    prof = Profiler(enabled=True)
    svc = _service(profiler=prof, session_inflight=10)
    svc.start()
    try:
        gate = _GateKeeper(svc._gang)
        svc._gang.run_job = gate
        a = svc.open_session("a")
        b = svc.open_session("b")
        first = a.submit(spec)                 # occupies the dispatcher
        assert gate.entered.acquire(timeout=10.0)
        handles = [a.submit(spec) for _ in range(3)]
        handles += [b.submit(spec) for _ in range(3)]
        gate.release.set()
        for h in [first, *handles]:
            h.result(30.0)
    finally:
        gate.release.set()
        svc.close()
    order = [e[6]["session"] for e in prof.events
             if e[2] == CAT_SERVICE and e[3] == EV_JOB_DISPATCH]
    assert len(order) == 7 and order[0] == "a"
    # Despite a's 3-deep head start in arrival order, dispatch alternates.
    assert order[1:] == ["b", "a", "b", "a", "b", "a"]


# -- misc --------------------------------------------------------------------

def test_rejects_unknown_backend_and_width():
    with pytest.raises(ValueError, match="unknown backend"):
        DCRService(2, backend="carrier-pigeon")
    with pytest.raises(ValueError, match="at least one shard"):
        DCRService(0)


def test_open_session_generates_names():
    with _service() as svc:
        s1, s2 = svc.open_session(), svc.open_session()
        assert s1.name != s2.name
