"""1-D Jacobi stencil written purely through deferred-array slicing.

The classic NumPy stencil idiom

    u[1:-1] = (u[:-2] + u[2:]) * 0.5

exercises the heart of the :class:`~.views.ViewSpec` machinery: the two
shifted operands are step-1 slice *views* of the same base field whose
rect partitions are offset against each other, the elementwise add still
launches one aligned group task, and the in-place slice write goes
through the writable-view path onto a sub-rectangle partition of the
base region.

:func:`explicit_stencil` is the traditional hand-written counterpart —
double-buffered regions with an *aliased ghost partition* (each tile reads
one halo cell beyond its interior) — computing the token-identical
per-element expression, so outputs are byte-for-byte equal.
"""

from __future__ import annotations

import numpy as np

from ..runtime.runtime import Context
from . import ops
from .array import LegateContext
from .views import choose_tiling

__all__ = ["sliced_stencil", "explicit_stencil", "reference_stencil",
           "make_wave"]


def make_wave(n: int) -> np.ndarray:
    """Deterministic initial condition: a spike plus a coarse ramp."""
    u = np.zeros(n)
    u[n // 3] = 8.0
    u += np.arange(n, dtype=np.float64) / n
    return u


def sliced_stencil(ctx: Context, init: np.ndarray, iterations: int = 10,
                   num_tiles: int = 4) -> np.ndarray:
    """Jacobi smoothing as a pure sliced-array program."""
    lg = LegateContext(ctx, num_tiles)
    n = init.shape[0]
    if n < 3:
        raise ValueError("stencil needs at least 3 points")
    u = lg.from_values(init, "st_u")
    for _ in range(iterations):
        u[1:n - 1] = (u[0:n - 2] + u[2:n]) * 0.5
    return u.to_numpy()


def explicit_stencil(ctx: Context, init: np.ndarray, iterations: int = 10,
                     num_tiles: int = 4) -> np.ndarray:
    """Ghost-partition explicit-region mirror of :func:`sliced_stencil`.

    Double-buffered: each step writes the interior tiles of one region
    from an aliased ghost partition of the other (one halo cell each
    side), evaluating the same ``(left + right) * 0.5`` expression the
    sliced program's kernels do.
    """
    n = init.shape[0]
    if n < 3:
        raise ValueError("stencil needs at least 3 points")

    def make_region(name):
        fs = ctx.create_field_space([("v", "f8")], f"{name}_fs")
        ispace = ctx.create_index_space(n, f"{name}_is")
        return ctx.create_region(ispace, fs, name)

    u = make_region("est_u")
    v = make_region("est_v")

    # Interior tiles [1, n-2] use the same boundaries the sliced program
    # derives for its (n-2,)-shaped intermediate views.
    interior = [((lo[0] + 1,), (hi[0] + 1,))
                for lo, hi in choose_tiling((n - 2,), num_tiles)]
    ghost = [((lo[0] - 1,), (hi[0] + 1,)) for lo, hi in interior]
    dom = list(range(len(interior)))

    parts = {}
    for region in (u, v):
        parts[region.uid, "int"] = ctx.partition_rects(
            region, interior, disjoint=True, name=f"{region.name}_int")
        parts[region.uid, "ghost"] = ctx.partition_rects(
            region, ghost, name=f"{region.name}_ghost")
    full_dom = list(range(len(choose_tiling((n,), num_tiles))))
    for region in (u, v):
        parts[region.uid, "full"] = ctx.partition_rects(
            region, choose_tiling((n,), num_tiles), disjoint=True,
            complete=True, name=f"{region.name}_full")

    # Boundary cells never change: seed both buffers once.
    payload = ops.ingest(init)
    for region in (u, v):
        ctx.index_launch(ops.init_body, full_dom,
                         [(parts[region.uid, "full"], "v", "wd")],
                         args=(payload, (n,)))

    def step(point, out_arg, ghost_arg):
        g = ghost_arg["v"].view
        out_arg["v"].view[...] = (g[:-2] + g[2:]) * 0.5

    src, dst = u, v
    for _ in range(iterations):
        ctx.index_launch(step, dom,
                         [(parts[dst.uid, "int"], "v", "wd"),
                          (parts[src.uid, "ghost"], "v", "ro")])
        src, dst = dst, src

    return ctx.runtime.store.raw(src.tree_id, src.field_space["v"]).copy()


def reference_stencil(init: np.ndarray, iterations: int = 10) -> np.ndarray:
    """Plain-NumPy reference."""
    u = init.copy()
    for _ in range(iterations):
        u[1:-1] = (u[:-2] + u[2:]) * 0.5
    return u
