"""Data-dependent control flow: the programs static analysis cannot touch.

The paper's motivation for *dynamic* control replication is programs whose
control flow and partitioning depend on computed data (§1: data-dependent
control flow defeats static analysis; §5.2: Soleil-X needs a number of
partitions that "cannot be fixed statically").  These tests exercise
exactly that in the functional runtime: mid-run re-partitioning driven by
future values, iteration counts decided by convergence tests, and branch
selection on reduced data — all replicated, all deterministic.
"""

import numpy as np
import pytest

from repro.runtime import Runtime
from repro.tools import validate_run


def test_adaptive_repartitioning():
    """Load-balance by re-partitioning when measured imbalance exceeds a
    threshold — the partition count and boundaries are computed from data.
    """
    def main(ctx):
        fs = ctx.create_field_space([("w", "f8"), ("out", "f8")])
        r = ctx.create_region(ctx.create_index_space(24), fs, "work")
        coarse2 = ctx.partition_equal(r, 2, name="p2")
        ctx.fill(r, "out", 0.0)

        # Skewed per-cell "work" weights: first half heavy.
        def init(point, a):
            lo = a.region.index_space.rect.lo[0]
            for i in range(a["w"].view.shape[0]):
                a["w"].view[i] = 9.0 if lo + i < 6 else 1.0

        ctx.index_launch(init, range(2), [(coarse2, "w", "rw")])

        def measure(point, a):
            return float(a["w"].view.sum())

        fm = ctx.index_launch(measure, range(2), [(coarse2, "w", "ro")])
        loads = [fm[p].get() for p in range(2)]
        imbalance = max(loads) / (sum(loads) / len(loads))

        # Data-dependent decision: with the skew above, rebalance fires.
        if imbalance > 1.25:
            # Compute balanced boundaries from the measured weights — a
            # partition whose shape exists only at run time.
            weights = []

            def collect(a):
                return tuple(float(v) for v in a["w"].view)

            fut = ctx.launch(collect, [(r, "w", "ro")])
            weights = list(ctx.get_value(fut))
            total = sum(weights)
            pieces, acc, cur, colors = 4, 0.0, [], {}
            target = total / 4
            cidx = 0
            for i, w in enumerate(weights):
                cur.append(i)
                acc += w
                if acc >= target and cidx < pieces - 1:
                    colors[cidx] = list(cur)
                    cidx, acc, cur = cidx + 1, 0.0, []
            colors[cidx] = list(cur)
            balanced = ctx.partition_by_points(r, colors, disjoint=True,
                                               name="balanced")
            dom = sorted(colors)
        else:                                  # pragma: no cover
            balanced = coarse2
            dom = [0, 1]

        def work(point, a):
            for p in sorted(a.region.index_space.point_set()):
                a["out"][p] = a["w"][p] * 2.0

        ctx.index_launch(work, dom, [(balanced, ["w", "out"], "rw")])
        return r, len(dom), [len(colors[c]) for c in sorted(colors)]

    for shards in (1, 3):
        rt = Runtime(num_shards=shards)
        r, pieces, sizes = rt.execute(main)
        out = rt.store.raw(r, r.field_space["out"])
        w = rt.store.raw(r, r.field_space["w"])
        assert np.allclose(out, 2.0 * w)
        assert pieces == 4
        # The heavy half got small pieces, the light half big ones.
        assert sizes[0] < sizes[-1]
        rt.pipeline.validate()
        assert validate_run(rt).clean


def test_convergence_controlled_iteration():
    """`while residual > tol` over a future value: the iteration count is
    decided by the data, identically on every shard."""
    def main(ctx):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        ctx.fill(r, "x", 1.0)

        def decay(point, a):
            a["x"].view[...] *= 0.5

        def residual(point, a):
            return float(np.abs(a["x"].view).max())

        iters = 0
        while True:
            ctx.index_launch(decay, range(4), [(tiles, "x", "rw")])
            fm = ctx.index_launch(residual, range(4), [(tiles, "x", "ro")])
            iters += 1
            if fm.reduce(max) < 0.05:
                break
        return iters, r

    rt1 = Runtime(num_shards=1)
    iters1, _ = rt1.execute(main)
    rt4 = Runtime(num_shards=4)
    iters4, r = rt4.execute(main)
    assert iters1 == iters4 == 5          # 0.5^5 = 0.03125 < 0.05
    assert np.allclose(rt4.store.raw(r, r.field_space["x"]),
                       0.03125)


def test_branch_on_reduced_data():
    """Algorithm selection on a computed statistic (the §3-safe version of
    Fig. 4: the 'random' input is region data, identical everywhere)."""
    def main(ctx, bias):
        fs = ctx.create_field_space([("x", "f8")])
        r = ctx.create_region(ctx.create_index_space(8), fs, "r")
        tiles = ctx.partition_equal(r, 4)
        ctx.fill(r, "x", bias)
        fm = ctx.index_launch(lambda p, a: float(a["x"].view.mean()),
                              range(4), [(tiles, "x", "ro")])
        mean = fm.reduce(lambda a, b: a + b) / 4
        if mean > 0.5:
            ctx.index_launch(lambda p, a: a["x"].view.__iadd__(1.0),
                             range(4), [(tiles, "x", "rw")])
        else:
            ctx.index_launch(lambda p, a: a["x"].view.__imul__(2.0),
                             range(4), [(tiles, "x", "rw")])
        return r

    for bias, expected in ((1.0, 2.0), (0.25, 0.5)):
        rt = Runtime(num_shards=3)
        r = rt.execute(main, bias)
        assert (rt.store.raw(r, r.field_space["x"])
                == expected).all()
