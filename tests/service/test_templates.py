"""Analysis-template keying and parameter patching, in isolation."""

import pytest

from repro.dist import OpSpec, ProgramSpec, merge_reports, run_reference, \
    stencil_program
from repro.service import ServiceGang, TemplateStore, structural_signature
from repro.service.templates import AnalysisTemplate


def _cold_merged(spec, num_shards):
    with ServiceGang(num_shards, backend="loopback") as gang:
        reports = gang.run_job(spec, capture_digests=True)
    return merge_reports(reports, backend="loopback")


# -- shape vs parameter ------------------------------------------------------

def test_signature_ignores_payload_values():
    a = ProgramSpec(tiles=4, ops=(OpSpec("fill"), OpSpec("bump", 1)))
    b = ProgramSpec(tiles=4, ops=(OpSpec("fill"), OpSpec("bump", 99)))
    assert structural_signature(a, 2) == structural_signature(b, 2)


def test_signature_keeps_spot_owner_structural():
    # A spot op's value selects the owner shard, so it IS shape.
    a = ProgramSpec(tiles=4, ops=(OpSpec("spot", 0),))
    b = ProgramSpec(tiles=4, ops=(OpSpec("spot", 1),))
    c = ProgramSpec(tiles=4, ops=(OpSpec("spot", 2),))  # 2 % 2 == 0
    assert structural_signature(a, 2) != structural_signature(b, 2)
    assert structural_signature(a, 2) == structural_signature(c, 2)


def test_key_depends_on_width_and_shape():
    spec = stencil_program(6, steps=2)
    assert structural_signature(spec, 2) != structural_signature(spec, 3)
    other = stencil_program(6, steps=3)
    assert structural_signature(spec, 2) != structural_signature(other, 2)
    # The signature *is* the store's key: equal for equal shapes built
    # independently, and hashable.
    again = structural_signature(stencil_program(6, steps=2), 2)
    assert {structural_signature(spec, 2)} == {again}


# -- store ------------------------------------------------------------------

def test_record_then_lookup_roundtrip():
    spec = stencil_program(6, steps=2)
    store = TemplateStore()
    assert store.lookup(spec, 2) is None
    tpl = store.record(spec, 2, _cold_merged(spec, 2))
    assert tpl is not None
    assert store.lookup(spec, 2) is tpl
    assert store.stats() == {"entries": 1, "hits": 1, "misses": 1,
                             "evictions": 0}


def test_record_refuses_reports_without_digests():
    spec = stencil_program(4, steps=1)
    store = TemplateStore()
    merged = run_reference(spec, 2)   # reference runs capture no digests
    assert store.record(spec, 2, merged) is None
    assert len(store) == 0


def test_lru_eviction_and_touch():
    specs = [stencil_program(4, steps=s) for s in (1, 2, 3)]
    store = TemplateStore(capacity=2)
    store.record(specs[0], 2, _cold_merged(specs[0], 2))
    store.record(specs[1], 2, _cold_merged(specs[1], 2))
    assert store.lookup(specs[0], 2) is not None   # touch: 0 is now newest
    store.record(specs[2], 2, _cold_merged(specs[2], 2))
    assert store.evictions == 1
    assert store.lookup(specs[1], 2) is None       # 1 was the LRU victim
    assert store.lookup(specs[0], 2) is not None
    assert store.lookup(specs[2], 2) is not None


def test_rerecording_a_shape_makes_it_youngest():
    """A cold run of an already-cached shape (fault-carrying submissions
    bypass lookup and record again) must refresh its LRU position."""
    a, b, c = (stencil_program(4, steps=s) for s in (1, 2, 3))
    store = TemplateStore(capacity=2)
    for spec in (a, b, a, c):
        store.record(spec, 2, _cold_merged(spec, 2))
    assert store.evictions == 1 and len(store) == 2
    assert store.lookup(b, 2) is None              # b was the LRU victim
    assert store.lookup(a, 2) is not None
    assert store.lookup(c, 2) is not None


def test_store_rejects_silly_capacity():
    with pytest.raises(ValueError, match="capacity"):
        TemplateStore(capacity=0)


# -- patching ---------------------------------------------------------------

def test_patch_matches_cold_run_of_new_params():
    base = stencil_program(6, steps=2)
    store = TemplateStore()
    tpl = store.record(base, 3, _cold_merged(base, 3))
    # Same shape, different payload values everywhere.
    patched_spec = ProgramSpec(
        tiles=base.tiles, sharding=base.sharding,
        ops=tuple(OpSpec(op.code, op.value + 7) for op in base.ops))
    served = tpl.patch(patched_spec, program_id="s/p2", session="s")
    ref = run_reference(patched_spec, 3)
    assert served.template_hit and served.conformant
    assert served.graph_digest == ref.graph_digest
    assert served.determinism_digest == ref.determinism_digest
    assert served.shards[0].fence_sequence == ref.shards[0].fence_sequence
    assert served.program_id == "s/p2" and served.session == "s"
    # The patched digest differs from the recording run's (the params
    # really flowed into the artifact; this is not a cached constant).
    base_ref = run_reference(base, 3)
    assert served.determinism_digest != base_ref.determinism_digest


def test_template_is_width_specific():
    spec = stencil_program(6, steps=2)
    store = TemplateStore()
    store.record(spec, 2, _cold_merged(spec, 2))
    assert store.lookup(spec, 3) is None   # never served at a new width


def test_patch_counts_hits():
    spec = stencil_program(4, steps=1)
    tpl = TemplateStore().record(spec, 2, _cold_merged(spec, 2))
    assert isinstance(tpl, AnalysisTemplate) and tpl.hits == 0
    tpl.patch(spec)
    tpl.patch(spec)
    assert tpl.hits == 2
