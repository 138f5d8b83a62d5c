"""Legate NumPy solvers: the two Fig. 19/20 workloads, functionally.

Both are written exactly as the NumPy programs the paper benchmarks —
logistic regression by batch gradient descent, and a (Jacobi-)
preconditioned conjugate gradient solver — but against the deferred
:class:`LegateArray` API, so every array operation is a real (group) task
launch analyzed by DCR.  NumPy references allow exact checking.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.rng import CounterRNG
from ..runtime.runtime import Context
from . import ops
from .array import LegateArray, LegateContext
from .views import choose_tiling

__all__ = ["logistic_regression", "explicit_logistic_regression",
           "reference_logistic_regression",
           "preconditioned_cg", "reference_preconditioned_cg",
           "make_problem"]


def make_problem(n: int, f: int, seed: int = 3
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic classification problem (counter-based RNG)."""
    rng = CounterRNG(seed)
    x = np.array([rng.random() - 0.5 for _ in range(n * f)]).reshape(n, f)
    w_true = np.array([rng.random() - 0.5 for _ in range(f)])
    y = (x @ w_true > 0).astype(np.float64)
    return x, y


def logistic_regression(ctx: Context, x_data: np.ndarray,
                        y_data: np.ndarray, iterations: int = 10,
                        lr: float = 0.5, num_tiles: int = 4) -> np.ndarray:
    """Batch-gradient-descent logistic regression on the deferred arrays.

    The per-iteration structure matches the Fig. 19 benchmark: a row-tiled
    matvec, a sigmoid, a transposed matvec producing the gradient, and a
    weight update that every subsequent iteration depends on.
    """
    lg = LegateContext(ctx, num_tiles)
    n, f = x_data.shape
    x = lg.from_values(x_data, "X")
    y = lg.from_values(y_data, "y")
    w = lg.zeros(f, "w")
    for _ in range(iterations):
        z = x.matvec(w)
        p = z.sigmoid()
        r = p - y
        grad = x.rmatvec(r)
        w.axpy(-lr / n, grad)
    return w.to_numpy()


def explicit_logistic_regression(ctx: Context, x_data: np.ndarray,
                                 y_data: np.ndarray, iterations: int = 10,
                                 lr: float = 0.5, num_tiles: int = 4
                                 ) -> np.ndarray:
    """Explicit-region mirror of :func:`logistic_regression`.

    Byte-identical output: the same :func:`~.views.choose_tiling` row
    boundaries, the same per-tile expressions the generic kernels
    evaluate (matvec against the whole vector, the sigmoid form,
    ``mat.T @ vec`` partials folded by ``sum(axis=0)``), hand-written
    over raw regions.  The byte-identity tier diffs the two.
    """
    n, f = x_data.shape

    def make_region(name, shape):
        fs = ctx.create_field_space([("v", "f8")], f"{name}_fs")
        ispace = ctx.create_index_space(shape, f"{name}_is")
        return ctx.create_region(ispace, fs, name)

    def rect_partition(region, shape, row_only=False):
        rects = choose_tiling(shape, num_tiles, row_only=row_only)
        return ctx.partition_rects(region, rects, disjoint=True,
                                   complete=True,
                                   name=f"{region.name}_p"), len(rects)

    x = make_region("elr_x", (n, f))
    y = make_region("elr_y", n)
    w = make_region("elr_w", f)
    z = make_region("elr_z", n)
    p = make_region("elr_p", n)
    r = make_region("elr_r", n)
    xrows, ntiles = rect_partition(x, (n, f), row_only=True)
    yrows, _ = rect_partition(y, (n,))
    zrows, _ = rect_partition(z, (n,))
    prows, _ = rect_partition(p, (n,))
    rrows, _ = rect_partition(r, (n,))
    wrows, wtiles = rect_partition(w, (f,))
    partials = make_region("elr_partials", (ntiles, f))
    prow, _ = rect_partition(partials, (ntiles, f), row_only=True)
    grad = make_region("elr_grad", f)
    grows, _ = rect_partition(grad, (f,))
    dom = list(range(ntiles))
    wdom = list(range(wtiles))

    ctx.index_launch(ops.init_body, dom, [(xrows, "v", "wd")],
                     args=(ops.ingest(x_data), (n, f)))
    ctx.index_launch(ops.init_body, dom, [(yrows, "v", "wd")],
                     args=(ops.ingest(y_data), (n,)))
    ctx.fill(w, "v", 0.0)

    def matvec(point, z_arg, x_arg, w_arg):
        # Row tile against the whole weight vector — the broadcast read
        # the array frontend's matvec_body makes.
        z_arg["v"].view[...] = x_arg["v"].view @ w_arg["v"].view

    def sigmoid(point, p_arg, z_arg):
        p_arg["v"].view[...] = 1.0 / (1.0 + np.exp(-z_arg["v"].view))

    def residual(point, r_arg, p_arg, y_arg):
        r_arg["v"].view[...] = p_arg["v"].view - y_arg["v"].view

    def partial(point, pt_arg, x_arg, r_arg):
        pt_arg["v"].view[...] = x_arg["v"].view.T @ r_arg["v"].view

    def combine(pt_arg, g_arg):
        g_arg["v"].view[...] = pt_arg["v"].view.sum(axis=0)

    def axpy(point, w_arg, g_arg, alpha):
        w_arg["v"].view[...] += alpha * g_arg["v"].view

    for _ in range(iterations):
        ctx.index_launch(matvec, dom,
                         [(zrows, "v", "wd"), (xrows, "v", "ro"),
                          (w, "v", "ro")])
        ctx.index_launch(sigmoid, dom,
                         [(prows, "v", "wd"), (zrows, "v", "ro")])
        ctx.index_launch(residual, dom,
                         [(rrows, "v", "wd"), (prows, "v", "ro"),
                          (yrows, "v", "ro")])
        ctx.index_launch(partial, dom,
                         [(prow, "v", "wd"), (xrows, "v", "ro"),
                          (rrows, "v", "ro")])
        ctx.launch(combine, [(partials, "v", "ro"), (grad, "v", "wd")])
        ctx.index_launch(axpy, wdom,
                         [(wrows, "v", "rw"), (grows, "v", "ro")],
                         args=(-lr / n,))

    return ctx.runtime.store.raw(w.tree_id, w.field_space["v"]).copy()


def reference_logistic_regression(x: np.ndarray, y: np.ndarray,
                                  iterations: int = 10,
                                  lr: float = 0.5) -> np.ndarray:
    n, _f = x.shape
    w = np.zeros(x.shape[1])
    for _ in range(iterations):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        grad = x.T @ (p - y)
        w = w - lr / n * grad
    return w


def preconditioned_cg(ctx: Context, a_data: np.ndarray, b_data: np.ndarray,
                      iterations: int = 10, num_tiles: int = 4
                      ) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients on the deferred arrays."""
    lg = LegateContext(ctx, num_tiles)
    a = lg.from_values(a_data, "A")
    b = lg.from_values(b_data, "b")
    minv = lg.from_values(1.0 / np.diag(a_data), "Minv")
    x = lg.zeros(b_data.shape[0], "x")
    r = b - a.matvec(x)
    z = minv * r
    p = z * 1.0
    rz = r.dot(z)
    for _ in range(iterations):
        ap = a.matvec(p)
        alpha = rz / p.dot(ap)
        x.axpy(alpha, p)
        r.axpy(-alpha, ap)
        z = minv * r
        rz_new = r.dot(z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return x.to_numpy()


def reference_preconditioned_cg(a: np.ndarray, b: np.ndarray,
                                iterations: int = 10) -> np.ndarray:
    minv = 1.0 / np.diag(a)
    x = np.zeros_like(b)
    r = b - a @ x
    z = minv * r
    p = z.copy()
    rz = r @ z
    for _ in range(iterations):
        ap = a @ p
        alpha = rz / (p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        z = minv * r
        rz_new = r @ z
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return x
