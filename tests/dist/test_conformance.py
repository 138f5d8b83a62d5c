"""The headline property: every backend produces byte-identical artifacts.

Hypothesis-generated programs, replayed under the serial in-process
reference, the loopback (threads) backend, and every process backend
(shm rings, tcp sockets) at 2-4 shards, must agree
on the task-graph digest, the fence sequence, and the determinism hash —
the conformance criterion of the ISSUE's tentpole.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist import (PROCESS_BACKENDS, DistRunner, OpSpec, ProgramSpec,
                        run_reference, stencil_program)
from repro.dist.programs import OP_CODES, SHARDINGS

op_specs = st.builds(OpSpec,
                     code=st.sampled_from(OP_CODES),
                     value=st.integers(min_value=0, max_value=12))

program_specs = st.builds(
    ProgramSpec,
    tiles=st.integers(min_value=2, max_value=8),
    sharding=st.sampled_from(sorted(SHARDINGS)),
    ops=st.lists(op_specs, min_size=1, max_size=10).map(tuple))


def assert_conformant(merged, reference):
    assert merged.conformant, merged.mismatches
    assert reference.conformant, reference.mismatches
    assert merged.graph_digest == reference.graph_digest
    assert merged.determinism_digest == reference.determinism_digest
    for dist_shard, ref_shard in zip(merged.shards, reference.shards):
        assert dist_shard.fence_sequence == ref_shard.fence_sequence
        assert dist_shard.call_count == ref_shard.call_count


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=program_specs, num_shards=st.integers(min_value=2, max_value=4))
def test_loopback_matches_reference(spec, num_shards):
    reference = run_reference(spec, num_shards)
    merged = DistRunner(spec, num_shards, backend="loopback",
                        batch=8).run()
    assert_conformant(merged, reference)


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
@pytest.mark.parametrize("num_shards", [2, 3, 4])
def test_process_backends_match_reference_stencil(backend, num_shards):
    spec = stencil_program(6, steps=2)
    reference = run_reference(spec, num_shards)
    merged = DistRunner(spec, num_shards, backend=backend,
                        batch=8).run()
    assert_conformant(merged, reference)
    pids = {shard.pid for shard in merged.shards}
    assert len(pids) == num_shards  # genuinely separate OS processes


def test_forked_gang_matches_reference_irregular():
    # Mixed single/group ops with fences and owner-targeted tasks.
    spec = ProgramSpec(tiles=5, sharding="cyclic", ops=(
        OpSpec("fill"), OpSpec("spot", 2), OpSpec("blend"),
        OpSpec("bump"), OpSpec("fill"), OpSpec("readx"),
        OpSpec("spot", 7), OpSpec("scale")))
    reference = run_reference(spec, 3)
    merged = DistRunner(spec, 3, backend="tcp", batch=4).run()
    assert_conformant(merged, reference)


def test_all_backends_agree():
    """Byte-identical digests across every fabric, at one go."""
    spec = stencil_program(6, steps=2)
    reference = run_reference(spec, 3)
    runs = {backend: DistRunner(spec, 3, backend=backend, batch=8).run()
            for backend in ("loopback",) + PROCESS_BACKENDS}
    for backend, merged in runs.items():
        assert merged.conformant, (backend, merged.mismatches)
        assert merged.graph_digest == reference.graph_digest, backend
        assert merged.determinism_digest \
            == reference.determinism_digest, backend
        assert merged.shards[0].fence_sequence \
            == reference.shards[0].fence_sequence, backend


def test_long_check_windows_preserve_conformance():
    """The window size must not change any artifact digest."""
    spec = stencil_program(6, steps=3)
    reference = run_reference(spec, 3)
    plain = DistRunner(spec, 3, backend="shm", batch=4).run()
    merged = DistRunner(spec, 3, backend="shm", batch=32).run()
    assert_conformant(plain, reference)
    assert_conformant(merged, reference)
    # The whole point: far fewer collective rounds than short windows.
    assert all(c.checks < p.checks
               for c, p in zip(merged.shards, plain.shards))


def test_single_shard_degenerate():
    spec = stencil_program(4, steps=1)
    reference = run_reference(spec, 1)
    merged = DistRunner(spec, 1, backend="loopback").run()
    assert_conformant(merged, reference)


def test_distinct_programs_get_distinct_digests():
    a = run_reference(stencil_program(6, steps=2), 2)
    b = run_reference(stencil_program(6, steps=3), 2)
    assert a.graph_digest != b.graph_digest
    assert a.determinism_digest != b.determinism_digest


def test_runner_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        DistRunner(stencil_program(4), 2, backend="smoke-signals")


def test_worker_crash_fails_run_without_orphans(monkeypatch):
    import multiprocessing
    import os

    import repro.dist.runner as runner_mod

    spec = stencil_program(6, steps=2)
    runner = DistRunner(spec, 3, backend="tcp",
                        join_timeout_s=30.0)
    # Sabotage: rank 2's forked copy of the rank entrypoint dies without a
    # report (and without closing anything), as a crashed process would.
    real_run_one_job = runner_mod._run_one_job

    def crashing_run_one_job(transport, channel, *args):
        if transport.rank == 2:
            os._exit(3)
        real_run_one_job(transport, channel, *args)

    monkeypatch.setattr(runner_mod, "_run_one_job", crashing_run_one_job)
    with pytest.raises(RuntimeError, match="tcp run failed") as exc:
        runner.run()
    assert "shard 2: died without a report" in str(exc.value)
    # The no-orphans sweep: nothing from this gang is still alive.
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-shard-")]
