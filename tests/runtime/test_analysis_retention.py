"""A finished analysis leaves no regions behind.

Each execute (and each service job) creates fresh region uids, so nothing
its analysis memoized can be hit by a later one.  The coarse and fine
class tables belong to their pipeline and die with it; a table shared by
the whole process would keep every requirement class's representative —
and so every region of every finished program — reachable.
"""

import gc

import numpy as np

from repro.dist.programs import stencil_program
from repro.dist.runner import run_reference
from repro.legate import sliced_stencil
from repro.legate.stencil import make_wave
from repro.regions import LogicalRegion
from repro.runtime import Runtime


def _live_regions() -> int:
    # LogicalRegion has __slots__ without __weakref__: count instances.
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is LogicalRegion)


def _run_stencil(init: np.ndarray) -> None:
    rt = Runtime(num_shards=4)
    out = rt.execute(sliced_stencil, init, 4, 4)
    assert out.shape == init.shape


def test_live_regions_do_not_grow_with_executes():
    init = make_wave(64)
    _run_stencil(init)
    baseline = _live_regions()
    for _ in range(19):
        _run_stencil(init)
    assert _live_regions() <= baseline


def test_live_regions_do_not_grow_with_cold_jobs():
    """The service lifetime: one process, many jobs, a fresh pipeline per
    job and rank."""
    spec = stencil_program(4, steps=2)
    run_reference(spec, 2)
    baseline = _live_regions()
    for _ in range(49):
        run_reference(spec, 2)
    assert _live_regions() <= baseline
