"""Functional mini-Soleil against the NumPy reference."""

import numpy as np
import pytest

from repro.apps.soleil_mini import (reference_soleil_mini,
                                    soleil_mini_control)
from repro.runtime import Runtime


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_matches_reference(shards):
    rt = Runtime(num_shards=shards)
    cells, parts = rt.execute(soleil_mini_control, 32, 4, 16, 6)
    ct = rt.store.raw(cells, cells.field_space["t"])
    px = rt.store.raw(parts, parts.field_space["x"])
    pt = rt.store.raw(parts, parts.field_space["tp"])
    ref_ct, ref_px, ref_pt = reference_soleil_mini(32, 16, 6)
    assert np.allclose(ct, ref_ct)
    assert np.allclose(px, ref_px)
    assert np.allclose(pt, ref_pt)


def test_particles_heat_up():
    """Cold particles absorb heat from the hot half of the rod."""
    _ct, _px, pt = reference_soleil_mini(32, 16, 12)
    assert pt.max() > 0.5


def test_heat_diffuses():
    """The initial step function smooths toward its mean."""
    ct0, *_ = reference_soleil_mini(32, 0, 0)
    ct, _px, _pt = reference_soleil_mini(32, 0, 20)
    assert ct.std() < np.std(np.where(np.arange(32) < 16, 2.0, 0.5))


def test_dcr_graph_and_fences_validate():
    rt = Runtime(num_shards=4)
    rt.execute(soleil_mini_control, 32, 4, 16, 5)
    rt.pipeline.validate()
    coarse = rt.coarse_result()
    # The whole-region particle reads/reductions force fences every step.
    assert len(coarse.fences) >= 5
    graph = rt.task_graph()
    assert graph.is_acyclic()
    # fill(t_new)=1 point + one 4-point init + 4 phases x 5 steps x 4 tiles.
    assert len(graph.tasks) == 1 + 4 + 4 * 5 * 4


def test_replayable_out_of_order():
    """Out of program order the bytes are the same: the heat deposits into
    one field keep program order among themselves, so their sums do too."""
    from helpers import field_bytes, reordered_runtime
    rt = Runtime(num_shards=2)
    rt.execute(soleil_mini_control, 16, 4, 8, 4)
    reordered = reordered_runtime(1, num_shards=2)
    reordered.execute(soleil_mini_control, 16, 4, 8, 4)
    assert field_bytes(reordered) == field_bytes(rt)
