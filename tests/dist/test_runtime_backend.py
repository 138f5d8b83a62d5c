"""Runtime(backend=...) and DCRModel(backend=...): gang backend wiring."""

import json
import multiprocessing
import os
import threading

import pytest

from repro.core.determinism import ControlDeterminismViolation
from repro.models import DCRModel
from repro.resilience import RecoveryPolicy, ResilienceConfig
from repro.runtime import Runtime
from repro.sim import MachineSpec


def stencil_control(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(16), fs, "r")
    tiles = ctx.partition_equal(r, 4)
    ctx.fill(r, "x", 1.0)

    def bump(point, arg):
        arg["x"].view[...] += 1.0
        return float(arg["x"].view.sum())

    for _ in range(2):
        ctx.index_launch(bump, range(4), [(tiles, "x", "rw")])
    fm = ctx.index_launch(lambda p, arg: float(arg["x"].view.sum()),
                          range(4), [(tiles, "x", "ro")])
    return fm.reduce(lambda a, b: a + b)


def divergent_control(ctx):
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(8), fs, "r")
    # Shard-dependent control flow: the canonical determinism violation.
    ctx.fill(r, "x", float(ctx.shard))
    return None


@pytest.mark.parametrize("num_shards", [2, 3])
def test_forked_backend_result_parity(num_shards):
    ref = Runtime(num_shards=num_shards).execute(stencil_control)
    rt = Runtime(num_shards=num_shards, backend="tcp",
                 check_batch=4)
    got = rt.execute(stencil_control)
    assert got == ref
    # Every replica ran in its own process and verified the driver's
    # call stream over the socket transport.
    assert len(rt.replica_reports) == num_shards - 1
    digests = {rep["stream_digest"] for rep in rt.replica_reports}
    assert len(digests) == 1
    assert all(rep["frames_sent"] > 0 for rep in rt.replica_reports)
    assert rt.dist_checks > 0


def array_control(ctx):
    """A 30-op array program: fill, then 29 dependent tile launches."""
    fs = ctx.create_field_space([("x", "f8")])
    r = ctx.create_region(ctx.create_index_space(16), fs, "r")
    tiles = ctx.partition_equal(r, 4)
    ctx.fill(r, "x", 0.5)

    def axpy(point, arg, k):
        arg["x"].view[...] = arg["x"].view * 1.01 + k

    for k in range(28):
        ctx.index_launch(axpy, range(4), [(tiles, "x", "rw")], args=(k,))
    fm = ctx.index_launch(lambda p, arg: float(arg["x"].view.sum()),
                          range(4), [(tiles, "x", "ro")])
    return fm.reduce(lambda a, b: a + b)


@pytest.mark.parametrize("batch", [4, 16])
@pytest.mark.parametrize("backend", ["inprocess", "loopback", "shm", "tcp"])
def test_one_check_schedule_on_every_backend(backend, batch):
    """One monitor class, one cadence, everywhere.

    A gang replica's monitor once got a different window setting from the
    driver's, so it exchanged more often and a deterministic program
    "diverged"; every rank now builds its monitor from ``check_batch``
    alone.
    """
    ref = Runtime(num_shards=2).execute(array_control)
    rt = Runtime(num_shards=2, backend=backend, check_batch=batch)
    assert rt.execute(array_control) == ref
    # 35 calls: 8 full windows of 4 and the final one, or 2 full windows
    # of 16 and the final one.
    checks = rt.monitor.checks_performed + rt.dist_checks
    assert checks == {4: 9, 16: 3}[batch]
    assert [rep["checks"] for rep in rt.replica_reports] == \
        [checks] * (backend != "inprocess")


def finalizer_control(announcers):
    """A finalizer deletion that only the shards in ``announcers`` see."""
    def control(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        ctx.fill(r, "x", 1.0)
        if ctx.shard in announcers:
            with ctx.finalizer():
                ctx.delete_region(r)
        return r
    return control


@pytest.mark.parametrize("announcers,deleted", [((0,), False),
                                                ((0, 1), True)])
@pytest.mark.parametrize("backend", ["inprocess", "loopback", "tcp"])
def test_finalizer_deletion_waits_for_every_shard(backend, announcers,
                                                  deleted):
    """§4.3: a deferred deletion is applied once every active shard has
    announced it.  One announcement short, ``execute`` still returns and
    the deletion stays pending — on every backend alike."""
    rt = Runtime(num_shards=2, backend=backend)
    out = {}

    def run():
        try:
            out["region"] = rt.execute(finalizer_control(announcers))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "execute did not return"
    if "error" in out:
        raise out["error"]
    r = out["region"]
    assert rt.store.has_field(r.tree_id, r.field_space["x"]) is not deleted
    assert rt.deferred.outstanding == (0 if deleted else 1)


def test_forked_replicas_are_separate_processes():
    rt = Runtime(num_shards=3, backend="tcp")
    rt.execute(stencil_control)
    pids = {rep["pid"] for rep in rt.replica_reports if "pid" in rep}
    # Reports may omit pid; fall back to counting reports.
    assert len(rt.replica_reports) == 2
    assert os.getpid() not in pids
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-replica-")]


def test_forked_backend_single_shard_short_circuits():
    rt = Runtime(num_shards=1, backend="tcp")
    assert rt.execute(stencil_control) == \
        Runtime(num_shards=1).execute(stencil_control)
    assert rt.replica_reports == []


def test_forked_backend_divergence_raises():
    rt = Runtime(num_shards=3, backend="tcp", check_batch=2)
    with pytest.raises(ControlDeterminismViolation) as exc:
        rt.execute(divergent_control)
    assert "diverg" in str(exc.value).lower()
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-replica-")]


def test_forked_backend_rejects_resilience():
    with pytest.raises(ValueError, match="does not support recovery"):
        Runtime(num_shards=2, backend="tcp",
                resilience=ResilienceConfig(policy=RecoveryPolicy.DEGRADE))


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        Runtime(num_shards=2, backend="carrier-pigeon")
    with pytest.raises(ValueError, match="backend must be"):
        DCRModel(MachineSpec("m", nodes=4, cpus_per_node=1,
                             gpus_per_node=1), backend="carrier-pigeon")


def _sim_chain(points=16, iters=8, warm=2):
    from repro.sim import DepSpec, ProcKind, SimOp, SimProgram

    prog = SimProgram("chain")
    prog.work_per_iteration = 1.0
    prev = None
    for it in range(warm + iters):
        start = prog.begin_iteration() if it >= warm else None
        deps = ([DepSpec(prev, "halo", 4096, (-1, 1))]
                if prev is not None else [])
        prev = prog.add(SimOp(f"s[{it}]", points, 1e-7, deps=deps,
                              proc_kind=ProcKind.CPU, fence=True,
                              traced=False))
        if it >= warm:
            prog.end_iteration(start)
    return prog


def test_dcr_model_multiprocess_charges_ipc():
    m = MachineSpec("m", nodes=16, cpus_per_node=1, gpus_per_node=1)
    inproc = DCRModel(m, backend="inprocess").run(_sim_chain())
    multiproc = DCRModel(m, backend="multiprocess").run(_sim_chain())
    # IPC surcharges (per-hop and per-call) make the same program slower.
    assert multiproc.iteration_time > inproc.iteration_time


def test_cli_smoke(tmp_path):
    from repro.tools.dist import main

    report = tmp_path / "report.json"
    code = main(["--shards", "3", "--tiles", "6", "--steps", "2",
                 "--batch", "8", "--verify", "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["conformant"] is True
    assert payload["num_shards"] == 3
    assert len(payload["shards"]) == 3
    assert len({s["pid"] for s in payload["shards"]}) == 3
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-shard-")]


def test_cli_loopback_with_profiles(tmp_path):
    from repro.tools.dist import main

    prof_dir = tmp_path / "prof"
    code = main(["--shards", "2", "--tiles", "4", "--steps", "1",
                 "--backend", "loopback", "--profile-dir", str(prof_dir)])
    assert code == 0
    profiles = sorted(p.name for p in prof_dir.iterdir())
    assert any(name.endswith(".profile.json") for name in profiles)
    assert any(name.endswith(".chrome.json") for name in profiles)


def test_cli_rejects_bad_shard_count(capsys):
    from repro.tools.dist import main

    assert main(["--shards", "0"]) == 1
    assert "--shards" in capsys.readouterr().err
