"""A fresh launch is analysed as one unit, and that changes no product.

The fine stage enters each (requirement, field) epoch once per launch,
takes a launch's shards from one evaluation per launch domain, and decides
classes with rectangle tests.  The pins below are the analysis products of
the benchmark programs as the per-point analysis computed them: the
task-graph digest (dependences, fences, elisions, scan counts, the point
graph and its per-shard attribution) and the fence sequence, keyed by
the regions' structural keys and the fields' names.
"""

import gc
import hashlib
import sys
from unittest import mock

import numpy as np
import pytest

from repro.apps.stencil import stencil2d_control
from repro.core.pipeline import analysis_digest, fence_sequence
from repro.legate import make_wave, preconditioned_cg, sliced_stencil
from repro.regions import FieldSpace
from repro.runtime import Runtime

# program, auto_trace -> (analysis digest, fences, sha256 of the sequence)
PINNED = {
    ("sliced_stencil", False): (
        "4f4b1b11d77aad6559ec48bed2a02214f3b514598df9d14adc805f2e7c2e2673",
        100,
        "ec282f97717817fe9e69fc1d2a0ad48bff61f4baa364a321ceea896cb2432ccf"),
    ("sliced_stencil", True): (
        "5f34681d647a681a166da30fc574afb9166c3efb9426d3b0c43e62ef1c1a735e",
        100,
        "a8f61e43439fb9a3e9fb7c917418828285a2726f9d0662f6585c0cfe445f06b0"),
    ("preconditioned_cg", False): (
        "e81119c6431d5e3ad91dedc68b1aff35c6d0ebcb0d52f0f672a565491efd1af8",
        41,
        "65582bf9c7101699a83d2fae1947db15bf861305778b7d3ccab69a92444abeba"),
    ("preconditioned_cg", True): (
        "1b4dec7f3ff7d732124bffe4a6592e39918b898c79c773d9971225441d498e5d",
        41,
        "b9ba5e6f73f93da64ccd19c2b79d687e85adfaa324cb3c0c55cd13d1c24aab6e"),
}

#: The same products with fences keyed the interned way
#: (``helpers.interned_fence_sequence``), as pinned before regions carried
#: structural keys.
INTERNED = {
    ("sliced_stencil", False): (
        "4cf3a3a7a8b4d614c1c8d5f217697362bd123a6a9e520d031b76254438ccd412",
        100,
        "18e3d447513606e662d04bc5133309be855b897e88e4cb33f97e3f747f21747f"),
    ("sliced_stencil", True): (
        "845001324fc1eb65108eee7d0bc26dad527f17b06b3e03a8bffa5790cf54c6f8",
        100,
        "07591d3d953207fcfe71ca95f1e5f47fdd3972d1f59d032934e913d09f222f2b"),
    ("preconditioned_cg", False): (
        "19760926eff784ddc7a0d051ed8f489bcdbe0f4e112fb011a7cf0faf66433ab7",
        41,
        "240a6f519d71c30abd4aebedf418913599cd8d311dd132fd22b3d7a691b8a3d6"),
    ("preconditioned_cg", True): (
        "8766e55df9cb91e61fee979fa44470efa44626b909071ec9f65e5c371eeaebf1",
        41,
        "70deb694719284e469c089f1a9b0fcc6bcfcf5e484d24d13686d9ca36555e16a"),
}


def _cg_input():
    """The end-to-end benchmark's CG system at seed 1 (n = 256); the
    analysis reads its shape, never its values."""
    rng = np.random.default_rng([1, 3])
    m = rng.standard_normal((256, 256))
    return m @ m.T / 256 + 4.0 * np.eye(256), rng.standard_normal(256)


def _run(name, auto_trace):
    if name == "sliced_stencil":
        rt = Runtime(num_shards=4, auto_trace=auto_trace)
        rt.execute(sliced_stencil, make_wave(2048), 50, 8)
    else:
        rt = Runtime(num_shards=2, auto_trace=auto_trace)
        rt.execute(preconditioned_cg, *_cg_input(), 20, 4)
    return rt.pipeline


def _products(pipeline, fences):
    return (analysis_digest(pipeline.coarse_result, pipeline.fine_result),
            len(fences), hashlib.sha256(repr(fences).encode()).hexdigest())


@pytest.mark.parametrize("name, auto_trace", sorted(PINNED))
def test_analysis_products_are_pinned(name, auto_trace):
    pipeline = _run(name, auto_trace)
    pipeline.settle()
    assert _products(pipeline, fence_sequence(pipeline.coarse_result)) \
        == PINNED[name, auto_trace]


@pytest.mark.parametrize("name, auto_trace", sorted(INTERNED))
def test_structural_keys_renamed_the_fences_and_changed_nothing(
        name, auto_trace):
    """Keyed the interned way, the same fences and the whole analysis
    digest are the ones pinned before: only the names moved."""
    from helpers import interned_fence_sequence

    from repro.core import pipeline as pipeline_module

    pipeline = _run(name, auto_trace)
    pipeline.settle()
    with mock.patch.object(pipeline_module, "fence_sequence",
                           interned_fence_sequence):
        got = _products(pipeline,
                        interned_fence_sequence(pipeline.coarse_result))
    assert got == INTERNED[name, auto_trace]


def _coarse_calls():
    """Python calls made in ``core/coarse.py`` by one small 2-D stencil on
    four shards (its fence probes ask for two fields at once)."""
    calls = 0

    def on_event(frame, event, _arg):
        nonlocal calls
        if event == "call" \
                and frame.f_code.co_filename.endswith("core/coarse.py"):
            calls += 1

    rt = Runtime(num_shards=4)
    gc.collect()
    gc.disable()
    sys.setprofile(on_event)
    try:
        rt.execute(stencil2d_control, 16, 4, 8)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def test_fence_probes_do_not_depend_on_field_ids():
    """The coverage check probes a query's fields in fid order, so the
    same program makes the same calls however many fields the process
    created before it (iterating the field set made one run in twelve
    read one call fewer)."""
    counts = []
    for _ in range(12):
        counts.append(_coarse_calls())
        FieldSpace([("u", "f8")])       # moves every later fid along
    assert len(set(counts)) == 1, counts


def _aliased_write_program():
    """A group launch writing through an *aliased* partition (whose
    launched pieces do not overlap, one of them empty) beside a read of the
    same field: it retires point by point, so it enters point by point."""
    from repro.core.operation import (CoarseRequirement, IDENTITY_PROJECTION,
                                      Operation)
    from repro.core.sharding import CYCLIC
    from repro.oracle import READ_ONLY, READ_WRITE
    from repro.regions import IndexSpace, LogicalRegion, Rect

    fs = FieldSpace([("state", "f8")])
    cells = LogicalRegion(IndexSpace.line(16), fs, name="cells")
    owned = cells.partition_equal(4, name="owned")
    holes = cells.partition_by_spaces(
        {c: IndexSpace(rect=Rect((lo,), (hi,))) for c, (lo, hi)
         in enumerate([(0, 3), (2, 5), (8, 11), (5, 4)])}, name="holes")
    state = frozenset(fs.fields)

    def group(part, priv, dom):
        return Operation("task", [CoarseRequirement(
            part, state, priv, IDENTITY_PROJECTION)], launch_domain=dom,
            sharding=CYCLIC)

    def single(region, priv, shard=0):
        return Operation("task", [CoarseRequirement(region, state, priv)],
                         owner_shard=shard)

    def aliased(dom):
        return Operation(
            "task", [CoarseRequirement(holes, state, READ_WRITE,
                                       IDENTITY_PROJECTION),
                     CoarseRequirement(owned, state, READ_ONLY,
                                       IDENTITY_PROJECTION)],
            launch_domain=dom, sharding=CYCLIC)

    ops = [single(cells, READ_WRITE), group(owned, READ_ONLY, [0, 1, 2, 3]),
           single(holes[2], READ_ONLY, 1), single(holes[1], READ_ONLY, 2),
           aliased([0, 2, 3]), group(owned, READ_ONLY, [0, 1, 2, 3]),
           single(owned[2], READ_WRITE, 3), aliased([2, 0])]
    for i, op in enumerate(ops):
        op.seq = i
    return ops


def _assert_matches_naive(ops):
    from helpers import run_naive_analysis

    from repro.core.coarse import CoarseAnalysis
    from repro.core.fine import FineAnalysis

    coarse, fine = CoarseAnalysis(3), FineAnalysis(3)
    for op in ops:
        coarse.analyze(op)
        fine.analyze(op)
    naive_coarse, naive_fine = run_naive_analysis(ops, 3)
    assert fine.result.scans_per_shard == naive_fine.result.scans_per_shard
    assert set(fine.result.graph.deps) == set(naive_fine.result.graph.deps)
    assert analysis_digest(coarse.result, fine.result) == \
        analysis_digest(naive_coarse.result, naive_fine.result)
    assert fine.uncovered_cross_edges(coarse.result) == []


def test_a_launch_writing_outside_a_disjoint_partition_matches_naive():
    _assert_matches_naive(_aliased_write_program())


def test_an_empty_region_named_twice_matches_naive():
    """An empty region aliases nothing, itself included: two writes of
    one empty piece on two shards are not ordered, by the indexed stages
    and by the naive reference alike."""
    from repro.core.operation import CoarseRequirement, Operation
    from repro.oracle import READ_WRITE
    from repro.regions import IndexSpace, LogicalRegion, Rect

    fs = FieldSpace([("state", "f8")])
    cells = LogicalRegion(IndexSpace.line(8), fs, name="cells")
    pieces = cells.partition_by_spaces(
        {0: IndexSpace(rect=Rect((0,), (3,))),
         1: IndexSpace(rect=Rect((5,), (4,)))}, name="pieces")
    state = frozenset(fs.fields)
    ops = [Operation("task", [CoarseRequirement(region, state, READ_WRITE)],
                     owner_shard=shard)
           for region, shard in ((pieces[1], 0), (pieces[1], 1),
                                 (pieces[0], 2), (pieces[1], 0))]
    for i, op in enumerate(ops):
        op.seq = i
    _assert_matches_naive(ops)
