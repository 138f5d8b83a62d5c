"""Adversarial execution order: the point graph alone orders the kernels.

The runtime's queue normally runs points in program order.  Under a
``FaultPlan(reorder=True)`` it runs them in a seeded random topological
order of the fine stage's ``preds`` (global fences as barriers), and every
program must still write the same bytes.  The negative control drops the
edges and must then change them.
"""

import pytest

from helpers import drop_fine_edges, field_bytes, reordered_runtime
from repro.apps.circuit import circuit_control
from repro.apps.stencil import stencil2d_control
from repro.runtime import Runtime


def _bytes(rt, control, *args):
    rt.execute(control, *args)
    return field_bytes(rt)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_stencil_replays_in_any_topological_order(seed):
    expected = _bytes(Runtime(num_shards=2), stencil2d_control, 12, 4, 4)
    assert _bytes(reordered_runtime(seed, num_shards=2),
                  stencil2d_control, 12, 4, 4) == expected


def test_circuit_replays():
    expected = _bytes(Runtime(num_shards=2), circuit_control, 3, 6, 8, 3)
    for seed in (0, 5):
        assert _bytes(reordered_runtime(seed, num_shards=2),
                      circuit_control, 3, 6, 8, 3) == expected


def test_replay_detects_missing_dependences(monkeypatch):
    """Negative control: with no fine edges, every seed's order writes
    different bytes (otherwise the tests above prove nothing)."""
    drop_fine_edges(monkeypatch)
    expected = _bytes(Runtime(num_shards=2), stencil2d_control, 12, 4, 5)
    for seed in range(6):
        assert _bytes(reordered_runtime(seed, num_shards=2),
                      stencil2d_control, 12, 4, 5) != expected, seed


def test_replay_scalar_args_preserved():
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        ctx.fill(r, "x", 1.0)

        def scale(point, arg, k):
            arg["x"].view[...] *= k

        ctx.index_launch(scale, range(4), [(tiles, "x", "rw")], args=(3.0,))
        ctx.index_launch(scale, range(4), [(tiles, "x", "rw")], args=(5.0,))
        return r

    rt = reordered_runtime(9, num_shards=1)
    r = rt.execute(main)
    assert (rt.store.raw(r, r.field_space["x"]) == 15.0).all()
