"""Template hits answered at admission, on the submitting thread.

A fault-free submission to a session with nothing in flight is looked up
under the service lock inside ``submit``: a hit resolves before ``submit``
returns, a miss is queued already looked up.  Everything else is looked up
at dispatch, so a session's jobs still complete in submission order.
"""

import dataclasses
import threading

import pytest

from repro.dist import OpSpec, ProgramSpec, run_reference, stencil_program
from repro.dist.report import MergedReport, ShardReport
from repro.faults.plan import FaultPlan
from repro.obs.events import CAT_SERVICE, EV_JOB_DISPATCH, EV_JOB_DONE
from repro.obs.profiler import Profiler
from repro.service import DCRService
from repro.service.templates import copy_report


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


def _reparam(spec, salt):
    """Same shape, new payload values (``spot`` values keep their owner)."""
    return ProgramSpec(
        tiles=spec.tiles, sharding=spec.sharding,
        cells_per_tile=spec.cells_per_tile,
        ops=tuple(OpSpec(op.code, op.value + (0 if op.code == "spot"
                                              else salt))
                  for op in spec.ops))


def _assert_same_as(served, ref):
    assert served.conformant and served.template_hit
    assert served.graph_digest == ref.graph_digest
    assert served.determinism_digest == ref.determinism_digest
    assert len(served.shards) == len(ref.shards)
    for got, want in zip(served.shards, ref.shards):
        assert got.shard == want.shard
        assert got.graph_digest == want.graph_digest
        assert got.fence_sequence == want.fence_sequence
        assert got.call_count == want.call_count
        assert got.determinism_digest == want.determinism_digest


def test_hit_on_an_idle_session_is_done_when_submit_returns():
    spec = stencil_program(6, steps=2)
    warm = _reparam(spec, 11)
    with _service() as svc:
        session = svc.open_session("a")
        assert not session.run(spec).template_hit     # records the shape
        handle = session.submit(warm)
        assert handle.done()
        served = handle.result(0)
        stats = svc.stats()
    _assert_same_as(served, run_reference(warm, 2))
    assert served.program_id == "a/p2" and served.session == "a"
    assert stats["completed"] == 2 and stats["template_serves"] == 1
    assert stats["pending"] == 0


def test_hit_behind_a_held_job_of_its_session_resolves_after_it():
    recorded = stencil_program(4, steps=1)
    cold = stencil_program(4, steps=2)
    prof = Profiler(enabled=True)
    svc = _service(profiler=prof)
    svc.start()
    try:
        svc.open_session("warm").run(recorded)
        gate = _GateKeeper(svc._gang)
        svc._gang.run_job = gate
        session = svc.open_session("a")
        held = session.submit(cold)
        assert gate.entered.acquire(timeout=10.0)
        hit = session.submit(recorded)
        assert not hit.done() and not held.done()
        gate.release.set()
        assert hit.result(30.0).template_hit
        assert not held.result(30.0).template_hit
    finally:
        gate.release.set()
        svc.close()
    done = [e[6]["program"] for e in prof.events
            if e[2] == CAT_SERVICE and e[3] == EV_JOB_DONE]
    assert done.index("a/p1") < done.index("a/p2")


def test_a_recorded_shape_with_a_fault_plan_reaches_the_gang():
    spec = stencil_program(4, steps=1)
    prof = Profiler(enabled=True)
    with _service(profiler=prof) as svc:
        session = svc.open_session("a")
        session.run(spec)
        assert session.run(spec).template_hit
        handle = session.submit(spec, fault=FaultPlan())
        assert not handle.result(30.0).template_hit
        stats = svc.stats()
    assert stats["template_serves"] == 1
    hits = [e[6]["template_hit"] for e in prof.events
            if e[2] == CAT_SERVICE and e[3] == EV_JOB_DISPATCH]
    assert hits == [False, True, False]


def test_each_fault_free_job_counts_as_one_hit_or_one_miss():
    specs = [stencil_program(4, steps=s) for s in (1, 2)]
    fault_free = 0
    with _service(session_inflight=8) as svc:
        a, b = svc.open_session("a"), svc.open_session("b")
        handles = []
        for k in range(6):
            spec = specs[k % 2]
            handles.append(a.submit(spec))        # a mix of idle and busy
            handles.append(b.submit(_reparam(spec, k)))
            fault_free += 2
            if k % 3 == 0:
                handles.append(a.submit(spec, fault=FaultPlan()))
            if k % 2:
                for h in handles:
                    h.result(30.0)
        for h in handles:
            assert h.result(30.0).conformant
        stats = svc.stats()
    templates = stats["templates"]
    assert templates["hits"] + templates["misses"] == fault_free
    assert templates["hits"] == stats["template_serves"]
    assert stats["completed"] == len(handles)


def test_submitters_hit_while_the_dispatcher_records_new_shapes():
    """Loopback x2: four threads submit hits (some at admission, some
    behind their own session's earlier job) while a fifth session's cold
    jobs record new shapes on the dispatcher."""
    hot = stencil_program(6, steps=2)
    variants = [_reparam(hot, salt) for salt in (1, 2, 3)]
    refs = [run_reference(v, 2) for v in variants]
    colds = [stencil_program(4 + k, steps=1 + k % 3) for k in range(5)]
    cold_refs = [run_reference(c, 2) for c in colds]
    failures = []
    with DCRService(2, backend="loopback", session_inflight=4,
                    job_timeout_s=30.0) as svc:
        svc.open_session("warm").run(hot)

        def submitter(name):
            session = svc.open_session(name)
            try:
                for k in range(12):
                    i, j = k % 3, (k + 1) % 3
                    first = session.submit(variants[i])
                    second = session.submit(variants[j])
                    _assert_same_as(first.result(30.0), refs[i])
                    _assert_same_as(second.result(30.0), refs[j])
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=submitter, args=(f"hot{t}",))
                   for t in range(4)]
        for t in threads:
            t.start()
        recorder = svc.open_session("cold")
        for spec, ref in zip(colds, cold_refs):
            report = recorder.run(spec, timeout=60.0)
            assert report.conformant and not report.template_hit
            assert report.graph_digest == ref.graph_digest
            assert report.determinism_digest == ref.determinism_digest
        for t in threads:
            t.join(60.0)
        stats = svc.stats()
    assert not failures, failures[0]
    assert stats["template_serves"] == 4 * 24
    assert stats["templates"]["entries"] == 1 + len(colds)


def _every_field(report):
    return {f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)}


def test_copy_report_equals_dataclasses_replace():
    spec = stencil_program(4, steps=1)
    with _service() as svc:
        merged = svc.open_session("a").run(spec)
    shard = merged.shards[1]
    assert isinstance(shard, ShardReport) and isinstance(merged, MergedReport)
    for report, changes in (
            (shard, {"determinism_digest": 7, "program_id": "p",
                     "session": "s", "wall_s": 0.5, "pid": 3}),
            (merged, {"determinism_digest": 7, "program_id": "p",
                      "session": "s", "shards": merged.shards[::-1]}),
            (shard, {})):
        copied = copy_report(report, changes)
        replaced = dataclasses.replace(report, **changes)
        assert type(copied) is type(report)
        assert copied == replaced
        assert _every_field(copied) == _every_field(replaced)
        assert copied is not report
    with pytest.raises(dataclasses.FrozenInstanceError):
        copy_report(shard, {}).pid = 1
