#!/usr/bin/env python
"""Quickstart: the paper's Fig. 7 one-dimensional stencil, replicated.

This is the exact program the paper walks through in §4 — a top-level task
that fills a region, then loops launching ``add_one``, ``mul_two`` and
``stencil`` group tasks over four tiles — executed here with dynamic
control replication across four shards.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Runtime


def add_one(point, cells):
    """cells[i].state += 1 over this tile."""
    cells["state"].view[...] += 1.0


def mul_two(point, cells):
    """cells[i].flux *= 2 over this tile."""
    cells["flux"].view[...] *= 2.0


def stencil(point, owned, ghost):
    """owned[i].flux += 0.5 * (ghost[i-1].state + ghost[i+1].state)."""
    flux = owned["flux"].view
    state = ghost["state"].view
    lo = owned.region.index_space.rect.lo[0] \
        - ghost.region.index_space.rect.lo[0]
    n = flux.shape[0]
    left = np.zeros(n)
    right = np.zeros(n)
    for i in range(n):
        if lo + i - 1 >= 0:
            left[i] = state[lo + i - 1]
        if lo + i + 1 < state.shape[0]:
            right[i] = state[lo + i + 1]
    flux += 0.5 * (left + right)


def main(ctx, ncells=16, ntiles=4, nsteps=3, init=1.0):
    """The replicable top-level task (__demand(__replicable) in Regent)."""
    fspace = ctx.create_field_space([("state", "f8"), ("flux", "f8")],
                                    "Cell")
    grid = ctx.create_index_space(ncells, "grid")
    cells = ctx.create_region(grid, fspace, "cells")
    owned = ctx.partition_equal(cells, ntiles, name="owned")
    interior = ctx.partition_equal(cells, ntiles, name="interior")
    ghost = ctx.partition_ghost(cells, owned, 1, name="ghost")

    ctx.fill(cells, ["state", "flux"], init)
    tiles = list(range(ntiles))
    for _step in range(nsteps):
        ctx.index_launch(add_one, tiles, [(owned, "state", "rw")])
        ctx.index_launch(mul_two, tiles, [(interior, "flux", "rw")])
        ctx.index_launch(stencil, tiles,
                         [(interior, "flux", "rw"), (ghost, "state", "ro")])
    return cells


if __name__ == "__main__":
    runtime = Runtime(num_shards=4)
    cells = runtime.execute(main)

    flux = runtime.store.raw(cells, cells.field_space["flux"])
    print("final flux:", flux)

    graph = runtime.task_graph()
    coarse = runtime.coarse_result()
    print(f"\npoint tasks analyzed : {len(graph.tasks)}")
    print(f"dependences          : {len(graph.deps)}")
    print(f"critical path        : {graph.critical_path_length()} tasks")
    print(f"cross-shard fences   : {len(coarse.fences)} "
          f"(elided {coarse.fences_elided} — the mul_two->stencil chains "
          f"on the shared disjoint partition, exactly Fig. 10)")
    print(f"determinism checks   : {runtime.monitor.checks_performed} "
          f"all-reduce batches, all agreeing")

    # The same program with one shard gives bit-identical results.
    solo = Runtime(num_shards=1)
    cells1 = solo.execute(main)
    flux1 = solo.store.raw(cells1, cells1.field_space["flux"])
    assert np.array_equal(flux, flux1)
    print("\n4-shard result == 1-shard result: the shards collectively "
          "behaved as a single logical task.")
