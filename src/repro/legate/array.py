"""Legate NumPy core: deferred ndarray-like arrays backed by regions.

Legate NumPy (paper §5.4) translates NumPy programs onto the Legion data
model: each array is a field of a region, each API call launches one or
more (group) tasks, and under DCR the whole NumPy program replicates
across shards with no centralized bottleneck.  This module is the
functional equivalent on our runtime, organized around three pieces:

* :class:`~.views.ViewSpec` — arrays are *views* over a backing region
  field.  Step-1 slices, transposes, and broadcasts compose without
  materializing; every launch maps the logical tiling through the view to
  a rectangle partition of the base region, so transformed operands still
  launch aligned group tasks (cunumeric's ``DeferredArrayView``).
* :class:`~.fields.FieldManager` — freed (shape, dtype) fields pool for
  reuse, with frees deferred until later launches retire, so long array
  programs keep bounded region counts and stable uid streams
  (legate.core's field manager).
* :mod:`~.ops` — a few generic module-level task bodies plus a kernel
  registry carry the whole operator surface; the kernel code travels in
  the hashed task arguments, and so does ``from_values`` data: as one
  read-only ndarray, hashed as a buffer and sliced (not rebuilt) per tile.

Chunking is automatic (the paper contrasts this with Dask's hand-tuned
chunks): :func:`~.views.choose_tiling` picks a grid — including column
tiles when the leading dimension is shorter than the tile budget.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..runtime.runtime import Context
from . import ops
from .fields import FieldManager
from .views import ViewSpec, choose_tiling

__all__ = ["LegateContext", "LegateArray"]

_MAX_ARGS = 1 << 10      # elementwise args tuples held per context


def _slice_bounds(key, shape: Tuple[int, ...]):
    """Normalize a getitem/setitem key into per-dim [lo, stop) bounds."""
    if not isinstance(key, tuple):
        key = (key,)
    if len(key) > len(shape):
        raise IndexError(f"too many indices for shape {shape}")
    bounds = []
    for d, ext in enumerate(shape):
        if d >= len(key):
            bounds.append((0, ext))
            continue
        k = key[d]
        if not isinstance(k, slice):
            raise TypeError(
                "deferred arrays support step-1 slice indexing only "
                f"(got {k!r}); use a length-1 slice to keep the dimension")
        if k.step not in (None, 1):
            raise ValueError("only step-1 slices are supported")
        lo, stop, _ = k.indices(ext)
        bounds.append((lo, stop))
    return bounds


class LegateContext:
    """Factory for deferred arrays inside a replicated control program."""

    def __init__(self, ctx: Context, num_tiles: int = 4):
        self.ctx = ctx
        self.num_tiles = max(1, num_tiles)
        # Per-context (hence per-shard) counters: names and partition ids
        # must be pure functions of the control program's call sequence, or
        # the hashed create_* calls would diverge across shards (§3).
        self._next_name = 0
        self._next_part = 0
        self.fields = FieldManager(self)
        self._partitions: dict = {}
        # Lowering memos: a repeated array op finds its tiling, launch
        # domain, key partitions and task-argument tuples here, and hands
        # the very same tuples to every launch, so the determinism hasher
        # reuses their bytes (cunumeric caches its key partitions alike).
        self._tilings: dict = {}
        self._domains: dict = {}
        self._key_parts: dict = {}
        self._canon: dict = {}
        self._args: dict = {}
        hook = getattr(ctx.runtime, "add_drain_hook", None)
        if hook is not None:
            hook(self.fields.flush)

    # -- backing storage -----------------------------------------------------

    def _create_region(self, shape: Tuple[int, ...]):
        name = f"lgarr{self._next_name}"
        self._next_name += 1
        fs = self.ctx.create_field_space([("v", "f8")], f"{name}_fs")
        ispace = self.ctx.create_index_space(shape, f"{name}_is")
        return self.ctx.create_region(ispace, fs, name)

    def _new_array(self, shape: Tuple[int, ...]) -> "LegateArray":
        block, lease = self.fields.checkout(shape)
        return LegateArray(self, block, lease, ViewSpec.identity(shape))

    def _partition_for(self, region, rects, disjoint=None, complete=None):
        """The key partition for a rect list, created once per (region,
        rects) pair — repeated launches over pooled fields hit the cache
        and add no new resources to any shard's stream."""
        key = (region.uid, tuple(rects))
        part = self._partitions.get(key)
        if part is None:
            part = self.ctx.partition_rects(
                region, rects, name=f"{region.name}_v{self._next_part}",
                disjoint=disjoint, complete=complete)
            self._next_part += 1
            self._partitions[key] = part
        return part

    def _tiling(self, shape: Tuple[int, ...], row_only: bool = False,
               max_tiles: Optional[int] = None) -> Tuple:
        """:func:`~.views.choose_tiling` of ``shape`` as a tuple, once per
        (shape, row_only, tile budget); the budget defaults to
        ``num_tiles``."""
        key = (shape, row_only, max_tiles)
        hit = self._tilings.get(key)
        if hit is None:
            hit = self._tilings[key] = tuple(choose_tiling(
                shape, max_tiles or self.num_tiles, row_only))
        return hit

    def _domain(self, points: int) -> Tuple[int, ...]:
        """The launch domain ``(0, ..., points - 1)``, one tuple per size."""
        hit = self._domains.get(points)
        if hit is None:
            hit = self._domains[points] = tuple(range(points))
        return hit

    def _canonical(self, value: Tuple) -> Tuple:
        """The one tuple equal to ``value`` this context hands to launches.

        Only for the frontend's own kinds, task specs and tile shapes, and
        args tuples made of them and of kernel codes, whose members are
        strings, ints and ``None``: equal values encode identically there,
        so keying by ``==`` is safe.  Args with a float go through
        :meth:`_elementwise_args` or stay fresh.
        """
        return self._canon.setdefault(value, value)

    # -- creation ------------------------------------------------------------

    def zeros(self, shape: Union[int, Tuple[int, ...]],
              name: str = "") -> "LegateArray":
        """A zero-filled deferred array."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        arr = self._new_array(shape)
        self.ctx.fill(arr.region, "v", 0.0)
        return arr

    def full(self, shape: Union[int, Tuple[int, ...]], value: float,
             name: str = "") -> "LegateArray":
        """A constant-filled deferred array."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        arr = self._new_array(shape)
        self.ctx.fill(arr.region, "v", float(value))
        return arr

    def from_values(self, values: Sequence, name: str = "") -> "LegateArray":
        """Materialize explicit values through an initializer task."""
        data = ops.ingest(values)
        arr = self._new_array(data.shape)
        self.fields.note_launch()
        self.ctx.index_launch(
            ops.init_body, self._domain(len(arr._tiling())),
            [(arr.tiles, "v", "wd")], args=(data, data.shape))
        return arr

    # -- launch plumbing -----------------------------------------------------

    def _launch_elementwise(self, code: str, operands) -> "LegateArray":
        """One aligned group launch of a registry kernel over operands.

        Operands are deferred arrays (any view) or Python scalars; array
        shapes broadcast by NumPy rules and the result owns a fresh
        (possibly pooled) field.
        """
        arrays, kinds, scalars = [], [], []
        for o in operands:
            if isinstance(o, LegateArray):
                arrays.append(o)
                kinds.append("a")
            else:
                scalars.append(float(o))
                kinds.append("s")
        shapes = {a.view.shape for a in arrays}
        rshape = shapes.pop() if len(shapes) == 1 \
            else tuple(np.broadcast_shapes(*shapes))
        views = [a if a.view.shape == rshape else a.broadcast_to(rshape)
                 for a in arrays]
        out = self._new_array(rshape)
        tiling = self._tiling(rshape)
        self.fields.note_launch()
        reqs = [(out._partition(tiling), "v", "wd")]
        reqs += [(v._partition(tiling), "v", "ro") for v in views]
        specs = self._canonical(tuple([v.view.task_spec() for v in views]))
        self.ctx.index_launch(ops.elementwise_body,
                              self._domain(len(tiling)), reqs,
                              args=self._elementwise_args(
                                  code, self._canonical(tuple(kinds)), specs,
                                  scalars))
        return out

    def _elementwise_args(self, code: str, kinds: Tuple, specs: Tuple,
                          scalars: Sequence[float]) -> Tuple:
        """The one args tuple this context hands to every elementwise
        launch of (code, kinds, specs, scalars), so the hasher's skeleton
        serves it.  Scalars are keyed by ``float.hex``, which tells -0.0
        from 0.0 (``==`` does not) exactly as their encoding does; the
        memo is cleared when full, as scalars may differ at every call."""
        key = (code, kinds, specs, tuple([s.hex() for s in scalars]))
        args = self._args.get(key)
        if args is None:
            if len(self._args) >= _MAX_ARGS:
                self._args.clear()
            args = self._args[key] = (code, kinds, specs, tuple(scalars))
        return args


class LegateArray:
    """A deferred dense array: a view over a pooled region field.

    Slicing, ``.T`` and :meth:`broadcast_to` return *views* sharing this
    array's backing field (and its lease); operators launch group tasks.
    """

    def __init__(self, lg: LegateContext, block, lease, view: ViewSpec):
        self.lg = lg
        self.block = block
        self.lease = lease
        self.view = view

    # -- structure -----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.view.shape

    @property
    def ndim(self) -> int:
        return len(self.view.shape)

    @property
    def region(self):
        """The backing root region (shared by all views of this field)."""
        return self.block.region

    @property
    def tiles(self):
        """The canonical key partition for this view's logical tiling."""
        return self._partition(self._tiling())

    def free(self) -> None:
        """Release the backing field to the pool (deferred; explicit form
        of the lease's GC release)."""
        self.lease.release()

    def _tiling(self, row_only: bool = False):
        return self.lg._tiling(self.view.shape, row_only)

    def _partition(self, tiling):
        """The key partition of this view under ``tiling``, looked up by
        (backing region, view, tiling) before any rect is mapped."""
        view = self.view
        # the view's fields, not the view: a tuple of ints hashes in C
        key = (self.block.region.uid, view.base_shape, view.shape, view.axes,
               view.offsets, view.stretched, tiling)
        part = self.lg._key_parts.get(key)
        if part is None:
            rects = [self.view.base_rect(lo, hi) for lo, hi in tiling]
            if self.view.writable:
                disjoint: Optional[bool] = True
                complete: Optional[bool] = \
                    True if self.view.is_identity else None
            else:
                disjoint = complete = None
            part = self.lg._key_parts[key] = self.lg._partition_for(
                self.block.region, rects, disjoint=disjoint,
                complete=complete)
        return part

    def _tile_shapes(self, tiling):
        return self.lg._canonical(tuple(
            tuple(h - l + 1 for l, h in zip(lo, hi)) for lo, hi in tiling))

    def _task_spec(self):
        return self.lg._canonical(self.view.task_spec())

    # -- views ---------------------------------------------------------------

    def __getitem__(self, key) -> "LegateArray":
        """A step-1 slice view (no data movement, shared lease)."""
        bounds = _slice_bounds(key, self.view.shape)
        return LegateArray(self.lg, self.block, self.lease,
                           self.view.sliced(bounds))

    @property
    def T(self) -> "LegateArray":
        """Transpose view (identity for 1-D arrays)."""
        return LegateArray(self.lg, self.block, self.lease,
                           self.view.transposed())

    def transpose(self) -> "LegateArray":
        return self.T

    def broadcast_to(self, shape: Sequence[int]) -> "LegateArray":
        """A broadcast view following NumPy rules (read-only semantics)."""
        return LegateArray(self.lg, self.block, self.lease,
                           self.view.broadcast_to(shape))

    def _materialized(self) -> "LegateArray":
        """Copy this view into a fresh identity array (one launch)."""
        return self.lg._launch_elementwise("copy", (self,))

    def _as_dense(self) -> "LegateArray":
        """An identity-view array (self, or a materialized copy)."""
        return self if self.view.is_identity else self._materialized()

    def _no_broadcast(self) -> "LegateArray":
        """Self unless the view broadcasts (those kernels read blocks
        whose extent must match the tile)."""
        if any(self.view.stretched) or any(b is None for b in self.view.axes):
            return self._materialized()
        return self

    # -- in-place writes -----------------------------------------------------

    def __setitem__(self, key, value) -> None:
        """Write a scalar or (broadcastable) array into a slice of self."""
        if not self.view.writable:
            raise ValueError("cannot write through a transposed or "
                             "broadcast view")
        bounds = _slice_bounds(key, self.view.shape)
        dst = LegateArray(self.lg, self.block, self.lease,
                          self.view.sliced(bounds))
        tiling = dst._tiling()
        if not isinstance(value, LegateArray):
            self.lg.fields.note_launch()
            self.lg.ctx.index_launch(
                ops.fill_tile_body, self.lg._domain(len(tiling)),
                [(dst._partition(tiling), "v", "rw")],
                args=(float(value),))
            return
        if value.block is self.block:
            # Aliased source: materialize first, so the write has NumPy's
            # copy semantics instead of an order-dependent overlap.
            value = value._materialized()
        shape = dst.view.shape
        src = value if value.view.shape == shape \
            else value.broadcast_to(shape)
        self.lg.fields.note_launch()
        self.lg.ctx.index_launch(
            ops.setitem_body, self.lg._domain(len(tiling)),
            [(dst._partition(tiling), "v", "rw"),
             (src._partition(tiling), "v", "ro")],
            args=self.lg._canonical((src._task_spec(),)))

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, code: str, other) -> "LegateArray":
        if not isinstance(other, LegateArray):
            other = float(other)
        return self.lg._launch_elementwise(code, (self, other))

    def _rbinary(self, code: str, other) -> "LegateArray":
        return self.lg._launch_elementwise(code, (float(other), self))

    def __add__(self, other):
        return self._binary("add", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary("sub", other)

    def __rsub__(self, other):
        return self._rbinary("sub", other)

    def __mul__(self, other):
        return self._binary("mul", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary("div", other)

    def __rtruediv__(self, other):
        return self._rbinary("div", other)

    def __neg__(self):
        return self.lg._launch_elementwise("neg", (self,))

    # -- elementwise methods -------------------------------------------------

    def copy(self) -> "LegateArray":
        """An independent copy (materializes views)."""
        return self.lg._launch_elementwise("copy", (self,))

    def abs(self) -> "LegateArray":
        return self.lg._launch_elementwise("abs", (self,))

    def exp(self) -> "LegateArray":
        return self.lg._launch_elementwise("exp", (self,))

    def log(self) -> "LegateArray":
        return self.lg._launch_elementwise("log", (self,))

    def sqrt(self) -> "LegateArray":
        return self.lg._launch_elementwise("sqrt", (self,))

    def tanh(self) -> "LegateArray":
        return self.lg._launch_elementwise("tanh", (self,))

    def sigmoid(self) -> "LegateArray":
        return self.lg._launch_elementwise("sigmoid", (self,))

    def power(self, exponent: float) -> "LegateArray":
        return self.lg._launch_elementwise("pow", (self, float(exponent)))

    def clip(self, lo: float, hi: float) -> "LegateArray":
        return self.lg._launch_elementwise(
            "clip", (self, float(lo), float(hi)))

    def maximum(self, other) -> "LegateArray":
        return self._binary("maximum", other)

    def minimum(self, other) -> "LegateArray":
        return self._binary("minimum", other)

    # -- comparisons (0.0/1.0 doubles) --------------------------------------

    def greater(self, other) -> "LegateArray":
        return self._binary("gt", other)

    def greater_equal(self, other) -> "LegateArray":
        return self._binary("ge", other)

    def less(self, other) -> "LegateArray":
        return self._binary("lt", other)

    def less_equal(self, other) -> "LegateArray":
        return self._binary("le", other)

    def equal(self, other) -> "LegateArray":
        return self._binary("eq", other)

    def not_equal(self, other) -> "LegateArray":
        return self._binary("ne", other)

    def where(self, cond: "LegateArray", other) -> "LegateArray":
        """Elementwise select: cond != 0 ? self : other."""
        if not isinstance(other, LegateArray):
            other = float(other)
        return self.lg._launch_elementwise("where", (cond, self, other))

    def axpy(self, alpha: float, x: "LegateArray") -> "LegateArray":
        """self += alpha * x, in place (returns self)."""
        if not self.view.writable:
            raise ValueError("axpy target must be a writable view")
        xb = x if x.shape == self.shape else x.broadcast_to(self.shape)
        tiling = self._tiling()
        self.lg.fields.note_launch()
        self.lg.ctx.index_launch(
            ops.axpy_body, self.lg._domain(len(tiling)),
            [(self._partition(tiling), "v", "rw"),
             (xb._partition(tiling), "v", "ro")],
            args=(float(alpha), xb._task_spec()))
        return self

    # -- reductions ----------------------------------------------------------

    def _reduce_scalar(self, code: str) -> float:
        tiling = self._tiling()
        self.lg.fields.note_launch()
        fm = self.lg.ctx.index_launch(
            ops.reduce_tile_body, self.lg._domain(len(tiling)),
            [(self._partition(tiling), "v", "ro")],
            args=self.lg._canonical(
                (code, self._task_spec(), self._tile_shapes(tiling))))
        if code == "sum":
            return fm.reduce(lambda a, b: a + b)
        return fm.reduce(max if code == "max" else min)

    def _axis0_reduce(self, code: str) -> "LegateArray":
        if self.ndim != 2:
            raise ValueError("axis-0 reductions require a 2-D array")
        _n, m = self.shape
        tiling = self._tiling(row_only=True)
        ntiles = len(tiling)
        partials = self.lg._new_array((ntiles, m))
        out = self.lg._new_array((m,))
        prow = self.lg._tiling((ntiles, m), True, ntiles)
        self.lg.fields.note_launch()
        self.lg.ctx.index_launch(
            ops.axis0_partial_body, self.lg._domain(ntiles),
            [(partials._partition(prow), "v", "wd"),
             (self._partition(tiling), "v", "ro")],
            args=self.lg._canonical(
                (code, self._task_spec(), self._tile_shapes(tiling))))
        self.lg.fields.note_launch()
        self.lg.ctx.launch(
            ops.axis0_combine_body,
            [(partials.region, "v", "ro"), (out.region, "v", "wd")],
            args=self.lg._canonical((code,)))
        partials.free()
        return out

    def sum(self, axis: Optional[int] = None):
        """Sum of all elements, or along axis 0/1 of a 2-D array.

        ``axis=1`` is tile-local under row tiling; ``axis=0`` uses
        per-tile partials plus a combining task — the shard-and-gather
        shape a centralized scheduler would bottleneck on.
        """
        if axis is None:
            return self._reduce_scalar("sum")
        if self.ndim != 2 or axis not in (0, 1):
            raise ValueError("axis sums require a 2-D array and axis 0/1")
        if axis == 0:
            return self._axis0_reduce("sum")
        out = self.lg._new_array((self.shape[0],))
        tiling = self._tiling(row_only=True)
        self.lg.fields.note_launch()
        self.lg.ctx.index_launch(
            ops.rowsum_body, self.lg._domain(len(tiling)),
            [(out._partition(out._tiling()), "v", "wd"),
             (self._partition(tiling), "v", "ro")],
            args=self.lg._canonical(
                (self._task_spec(), self._tile_shapes(tiling))))
        return out

    def max(self, axis: Optional[int] = None):
        """Maximum of all elements, or along axis 0 of a 2-D array."""
        if axis is None:
            return self._reduce_scalar("max")
        if axis != 0:
            raise ValueError("max supports axis=None or axis=0")
        return self._axis0_reduce("max")

    def min(self) -> float:
        """Minimum element (a distributed reduction)."""
        return self._reduce_scalar("min")

    def mean(self) -> float:
        """Mean of all elements (a distributed reduction)."""
        total = 1
        for e in self.shape:
            total *= e
        return self.sum() / total

    def norm(self) -> float:
        """Euclidean norm via a distributed dot."""
        return math.sqrt(self.dot(self))

    def dot(self, other: "LegateArray") -> float:
        """Inner product via per-tile partials + a future-map reduction."""
        if self.shape != other.shape:
            raise ValueError("dot requires matching shapes")
        tiling = self._tiling()
        self.lg.fields.note_launch()
        fm = self.lg.ctx.index_launch(
            ops.dot_tile_body, self.lg._domain(len(tiling)),
            [(self._partition(tiling), "v", "ro"),
             (other._partition(tiling), "v", "ro")],
            args=self.lg._canonical((self._task_spec(), other._task_spec(),
                                     self._tile_shapes(tiling))))
        return fm.reduce(lambda a, b: a + b)

    # -- linear algebra ------------------------------------------------------

    def matvec(self, vec: "LegateArray") -> "LegateArray":
        """Row-tiled matrix-vector product: (N, F) @ (F,) -> (N,).

        Each point task reads the *whole* vector (a broadcast in the
        dependence analysis) and its own row tile.
        """
        if self.ndim != 2 or vec.ndim != 1 or self.shape[1] != vec.shape[0]:
            raise ValueError("matvec shape mismatch")
        mat = self._no_broadcast()
        vec_d = vec._as_dense()
        out = self.lg._new_array((self.shape[0],))
        tiling = mat._tiling(row_only=True)
        self.lg.fields.note_launch()
        self.lg.ctx.index_launch(
            ops.matvec_body, self.lg._domain(len(tiling)),
            [(out._partition(out._tiling()), "v", "wd"),
             (mat._partition(tiling), "v", "ro"),
             (vec_d.region, "v", "ro")],
            args=self.lg._canonical((mat._task_spec(),)))
        return out

    def rmatvec(self, vec: "LegateArray") -> "LegateArray":
        """Transposed product: (N, F).T @ (N,) -> (F,).

        Per-tile partial results land in a (tiles, F) scratch field
        (pooled across calls), then one combining task reduces them — the
        gather a centralized system would bottleneck on and DCR shards.
        """
        if self.ndim != 2 or vec.ndim != 1 or self.shape[0] != vec.shape[0]:
            raise ValueError("rmatvec shape mismatch")
        mat = self._no_broadcast()
        vecb = vec._no_broadcast()
        tiling = mat._tiling(row_only=True)
        vtiling = self.lg._tiling((self.shape[0],))
        ntiles = len(tiling)
        f = self.shape[1]
        partials = self.lg._new_array((ntiles, f))
        out = self.lg._new_array((f,))
        prow = self.lg._tiling((ntiles, f), True, ntiles)
        self.lg.fields.note_launch()
        self.lg.ctx.index_launch(
            ops.rmatvec_partial_body, self.lg._domain(ntiles),
            [(partials._partition(prow), "v", "wd"),
             (mat._partition(tiling), "v", "ro"),
             (vecb._partition(vtiling), "v", "ro")],
            args=self.lg._canonical((mat._task_spec(),
                                     vecb._task_spec())))
        self.lg.fields.note_launch()
        self.lg.ctx.launch(
            ops.rmatvec_combine_body,
            [(partials.region, "v", "ro"), (out.region, "v", "wd")])
        partials.free()
        return out

    def matmat(self, other: "LegateArray") -> "LegateArray":
        """Row-tiled matrix-matrix product: (N, K) @ (K, M) -> (N, M).

        Like ``matvec``, the right operand is read whole by every point
        task (a broadcast); the left rows stay tiled.
        """
        if self.ndim != 2 or other.ndim != 2 \
                or self.shape[1] != other.shape[0]:
            raise ValueError("matmat shape mismatch")
        mat = self._no_broadcast()
        rhs = other._as_dense()
        out = self.lg._new_array((self.shape[0], other.shape[1]))
        tiling = mat._tiling(row_only=True)
        self.lg.fields.note_launch()
        self.lg.ctx.index_launch(
            ops.matmat_body, self.lg._domain(len(tiling)),
            [(out._partition(out._tiling(row_only=True)), "v", "wd"),
             (mat._partition(tiling), "v", "ro"),
             (rhs.region, "v", "ro")],
            args=self.lg._canonical((mat._task_spec(),)))
        return out

    # -- export --------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Copy out the view's current contents (test/debug helper)."""
        store = self.lg.ctx.runtime.store
        f = self.region.field_space["v"]
        return self.view.read(store.raw(self.region, f))
