"""k-means clustering expressed *entirely* through deferred array ops.

The Legate NumPy paper's flagship demos are logistic regression, CG and
k-means; this module writes the third as a pure array program — no custom
task bodies.  Per iteration:

* **assign** — for each center ``c``, the squared distance is a sliced
  row view ``centers[c:c+1, :]`` broadcast against the data, squared, and
  row-summed; the argmin is a where-chain with strict ``less`` (first
  minimum wins, matching ``np.argmin``'s tie-break).
* **update** — each center's membership mask is an ``equal`` comparison;
  the masked column sums use a broadcast-transpose view of the mask and an
  axis-0 reduction (per-tile partials plus one combining task — the
  map-reduce shape a centralized scheduler would bottleneck on).

Branching on a cluster count is §3-safe: the count folds deterministically
from shared per-tile futures, so every shard takes the same branch.

:func:`explicit_kmeans` is the explicit-region mirror: the same tilings
(:func:`~.views.choose_tiling`) and the same per-tile NumPy expressions as
the generic kernels, hand-rolled over raw regions — byte-for-byte equal
output, used by the byte-identity tier.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.rng import CounterRNG
from ..runtime.runtime import Context
from . import ops
from .array import LegateContext
from .views import choose_tiling

__all__ = ["kmeans", "explicit_kmeans", "reference_kmeans", "make_blobs"]


def make_blobs(n: int, f: int, k: int, seed: int = 9, spread: float = 0.15
               ) -> np.ndarray:
    """Deterministic clustered data: k well-separated blobs in [0,1]^f."""
    rng = CounterRNG(seed)
    centers = np.array([[rng.random() for _ in range(f)] for _ in range(k)])
    rows = []
    for i in range(n):
        c = centers[i % k]
        rows.append([c[j] + spread * (rng.random() - 0.5)
                     for j in range(f)])
    return np.array(rows)


def kmeans(ctx: Context, data: np.ndarray, k: int, iterations: int = 8,
           num_tiles: int = 4) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm as a pure array program; returns (centers, labels)."""
    lg = LegateContext(ctx, num_tiles)
    n, f = data.shape
    x = lg.from_values(data, "km_x")
    centers = lg.from_values(data[:k].copy(), "km_centers")
    labels = lg.zeros(n, "km_labels")

    for _ in range(iterations):
        # assign: running (best-distance, label) where-chain over centers.
        best = None
        for c in range(k):
            diff = x - centers[c:c + 1, 0:f]
            dist = (diff * diff).sum(axis=1)
            if best is None:
                best = dist
                labels = lg.zeros(n)
            else:
                better = dist.less(best)
                labels = lg.full(n, float(c)).where(better, labels)
                best = dist.where(better, best)
        # update: masked column means; an empty cluster keeps its center.
        for c in range(k):
            mask = labels.equal(float(c))
            cnt = mask.sum()
            if cnt > 0:
                col = mask.broadcast_to((f, n)).T
                sums = (x * col).sum(axis=0)
                centers[c:c + 1, 0:f] = sums / cnt
    return centers.to_numpy(), labels.to_numpy()


def explicit_kmeans(ctx: Context, data: np.ndarray, k: int,
                    iterations: int = 8, num_tiles: int = 4
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Explicit-region mirror of :func:`kmeans` (byte-identical output).

    Same row tilings, same per-tile expressions, same partial/combine
    structure — only the plumbing is hand-written instead of deferred.
    """
    n, f = data.shape

    def make_region(name, shape):
        fs = ctx.create_field_space([("v", "f8")], f"{name}_fs")
        ispace = ctx.create_index_space(shape, f"{name}_is")
        return ctx.create_region(ispace, fs, name)

    def rect_partition(region, shape, row_only=False):
        rects = choose_tiling(shape, num_tiles, row_only=row_only)
        return ctx.partition_rects(region, rects, disjoint=True,
                                   complete=True,
                                   name=f"{region.name}_p"), len(rects)

    x = make_region("ekm_x", (n, f))
    centers = make_region("ekm_centers", (k, f))
    labels = make_region("ekm_labels", n)
    best = make_region("ekm_best", n)
    rows, ntiles = rect_partition(x, (n, f), row_only=True)
    lrows, _ = rect_partition(labels, (n,))
    brows, _ = rect_partition(best, (n,))
    partials = make_region("ekm_partials", (ntiles, f))
    prow, _ = rect_partition(partials, (ntiles, f), row_only=True)
    sums = make_region("ekm_sums", f)
    dom = list(range(ntiles))

    ctx.index_launch(ops.init_body, dom, [(rows, "v", "wd")],
                     args=(ops.ingest(data), (n, f)))

    def init_centers(c_arg, payload):
        c_arg["v"].view[...] = np.asarray(payload)

    ctx.launch(init_centers, [(centers, "v", "wd")],
               args=(ops.ingest(data[:k]),))
    ctx.fill(labels, "v", 0.0)
    ctx.fill(best, "v", 0.0)

    def assign(point, x_arg, c_arg, l_arg, b_arg):
        # The same expressions the array program's kernels evaluate, in
        # the same order: diff/square, row-sum, strict-less where-chain.
        xs = x_arg["v"].view
        cen = c_arg["v"].view
        lbl = l_arg["v"].view
        bst = b_arg["v"].view
        for c in range(cen.shape[0]):
            diff = xs - cen[c:c + 1, :]
            dist = (diff * diff).sum(axis=1)
            if c == 0:
                bst[...] = dist
                lbl[...] = 0.0
            else:
                better = (dist < bst).astype(np.float64)
                lbl[...] = np.where(better != 0, float(c), lbl)
                bst[...] = np.where(better != 0, dist, bst)

    def count_tile(point, x_arg, l_arg, c):
        return float(np.sum((l_arg["v"].view == c).astype(np.float64)))

    def partial_sums(point, p_arg, x_arg, l_arg, c):
        mask = (l_arg["v"].view == c).astype(np.float64)
        p_arg["v"].view[...] = (x_arg["v"].view
                                * mask[:, None]).sum(axis=0)

    def combine(p_arg, s_arg):
        s_arg["v"].view[...] = p_arg["v"].view.sum(axis=0)

    def update_center(c_arg, s_arg, c, cnt):
        c_arg["v"].view[c:c + 1, :] = s_arg["v"].view / cnt

    for _ in range(iterations):
        ctx.index_launch(assign, dom,
                         [(rows, "v", "ro"), (centers, "v", "ro"),
                          (lrows, "v", "rw"), (brows, "v", "rw")])
        for c in range(k):
            fm = ctx.index_launch(count_tile, dom,
                                  [(rows, "v", "ro"), (lrows, "v", "ro")],
                                  args=(float(c),))
            cnt = fm.reduce(lambda a, b: a + b)
            if cnt > 0:
                ctx.index_launch(partial_sums, dom,
                                 [(prow, "v", "wd"), (rows, "v", "ro"),
                                  (lrows, "v", "ro")], args=(float(c),))
                ctx.launch(combine, [(partials, "v", "ro"),
                                     (sums, "v", "wd")])
                ctx.launch(update_center,
                           [(centers, "v", "rw"), (sums, "v", "ro")],
                           args=(c, cnt))

    store = ctx.runtime.store
    cen = store.raw(centers, centers.field_space["v"]).copy()
    lbl = store.raw(labels, labels.field_space["v"]).copy()
    return cen, lbl


def reference_kmeans(data: np.ndarray, k: int, iterations: int = 8
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Plain-NumPy Lloyd's algorithm with the same initialization."""
    centers = data[:k].copy()
    labels = np.zeros(len(data))
    for _ in range(iterations):
        d = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d, axis=1)
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = data[mask].mean(axis=0)
    return centers, labels.astype(np.float64)
