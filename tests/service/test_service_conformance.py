"""Template serving is invisible in the artifacts, property-tested.

The service-level conformance criterion: for any program shape and any
parameter assignment, the merged report of a **template-hit** submission
is byte-identical — graph digest, fence sequence, determinism digest — to
both a **cold** run of the same spec and the serial in-process
:func:`~repro.dist.runner.run_reference`.  If parameter patching ever
shortcuts something that actually depends on payload values, this is the
property that breaks.
"""

import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist import OpSpec, ProgramSpec, run_reference, stencil_program
from repro.dist.programs import OP_CODES, SHARDINGS
from repro.service import DCRService

op_specs = st.builds(OpSpec,
                     code=st.sampled_from(OP_CODES),
                     value=st.integers(min_value=0, max_value=12))

program_specs = st.builds(
    ProgramSpec,
    tiles=st.integers(min_value=2, max_value=8),
    sharding=st.sampled_from(sorted(SHARDINGS)),
    ops=st.lists(op_specs, min_size=1, max_size=8).map(tuple))


def _reparameterize(spec: ProgramSpec, salt: int) -> ProgramSpec:
    """Same shape, different payload values (spot owners preserved)."""
    return ProgramSpec(
        tiles=spec.tiles, sharding=spec.sharding,
        cells_per_tile=spec.cells_per_tile,
        ops=tuple(op if op.code == "spot"
                  else OpSpec(op.code, op.value + salt)
                  for op in spec.ops))


def _assert_identical(a, b):
    assert a.conformant and b.conformant
    assert a.graph_digest == b.graph_digest
    assert a.determinism_digest == b.determinism_digest
    assert len(a.shards) == len(b.shards)
    for x, y in zip(a.shards, b.shards):
        assert x.shard == y.shard
        assert x.graph_digest == y.graph_digest
        assert x.fence_sequence == y.fence_sequence
        assert x.call_count == y.call_count
        assert x.determinism_digest == y.determinism_digest


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=program_specs,
       num_shards=st.integers(min_value=2, max_value=3),
       salt=st.integers(min_value=1, max_value=1000))
def test_template_hit_matches_cold_and_reference(spec, num_shards, salt):
    warm_spec = _reparameterize(spec, salt)
    with DCRService(num_shards, backend="loopback", batch=8) as svc:
        session = svc.open_session("prop")
        cold = session.run(spec)              # records the template
        served = session.run(warm_spec)       # must be a hit
        assert not cold.template_hit and served.template_hit
    reference = run_reference(warm_spec, num_shards)
    _assert_identical(served, reference)
    # And the hit of the *original* params agrees with its own cold run.
    with DCRService(num_shards, backend="loopback", batch=8) as svc:
        cold_warm = svc.open_session("x").run(warm_spec)
    _assert_identical(served, cold_warm)


def test_sessions_are_isolated():
    """Interleaved sessions each get their own programs' artifacts."""
    specs = {"alpha": stencil_program(6, steps=2),
             "beta": stencil_program(6, steps=3)}
    refs = {name: run_reference(spec, 2)
            for name, spec in specs.items()}
    assert refs["alpha"].graph_digest != refs["beta"].graph_digest
    results = {}
    with DCRService(2, backend="loopback") as svc:

        def client(name):
            session = svc.open_session(name)
            results[name] = [session.run(specs[name]) for _ in range(3)]
            session.close()

        threads = [threading.Thread(target=client, args=(n,))
                   for n in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for name, reports in results.items():
        for i, report in enumerate(reports):
            assert report.session == name
            assert report.program_id == f"{name}/p{i + 1}"
            assert report.graph_digest == refs[name].graph_digest
            assert report.determinism_digest \
                == refs[name].determinism_digest
        # Repeat submissions were template-served, never cross-served.
        assert [r.template_hit for r in reports] == [False, True, True]
