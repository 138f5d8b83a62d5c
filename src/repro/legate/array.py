"""Legate NumPy core: deferred ndarray-like arrays backed by regions.

Legate NumPy (paper §5.4) translates NumPy programs onto the Legion data
model: each array is a field of a region, each API call launches one or
more (group) tasks, and under DCR the whole NumPy program replicates
across shards with no centralized bottleneck.  This module is the
functional equivalent on our runtime, organized around four pieces:

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
* Lowering memos — under DCR every shard runs the whole program, so
  every shard lowers every op.  A :class:`LegateContext` interns its
  views (one identity view per shape, one view per parent view and
  slice, transpose or broadcast) and keeps one op memo for all launch
  sites, keyed by the site, the kernel code and each operand's (block,
  view) identity, never by a scalar's value.  A repeated op pays only for
  its output's checkout and key partition, and for its scalars.

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
from .views import ViewSpec, ViewTable, choose_tiling

__all__ = ["LegateContext", "LegateArray"]

_MAX_MEMO = 1 << 10      # entries a lowering memo holds (cleared when full)


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
        # (region uid, rects) -> key partition: the one place a partition
        # is created, so it names resources and is never cleared.
        self._partitions: dict = {}
        # Lowering memos, each cleared when full (``_MAX_MEMO``): a
        # repeated array op finds its views, tiling, domain, input
        # requirements, kinds and specs here and hands the very same
        # tuples to every launch, so the determinism hasher reuses their
        # bytes (cunumeric caches its key partitions on the view alike).
        # ``_views`` interns views: one identity view per shape, one view
        # per (parent view, slice, transpose or broadcast).
        self._views = ViewTable(_MAX_MEMO)
        self._ops: dict = {}        # one entry per launch site x operands
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
        hit = self._views.get(shape)        # ViewTable.identity, inlined
        view = hit[0] if hit is not None else self._views.identity(shape)
        return LegateArray(self, block, lease, view)

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

    def _key_partition(self, region, view: ViewSpec, tiling: Tuple):
        """The key partition of ``view`` of ``region`` under ``tiling``.
        Its rects are mapped on every call, which only a memo miss
        makes."""
        rects = [view.base_rect(lo, hi) for lo, hi in tiling]
        if view.writable:
            disjoint: Optional[bool] = True
            complete: Optional[bool] = True if view.is_identity else None
        else:
            disjoint = complete = None
        return self._partition_for(region, rects, disjoint=disjoint,
                                   complete=complete)

    def _dense_partition(self, region, tiling: Tuple):
        """The key partition of a whole (identity-view) array under
        ``tiling``, whose rects are the tiling itself: what an op's output
        needs on every call, since its pooled block differs call to call."""
        part = self._partitions.get((region.uid, tiling))
        if part is None:
            part = self._partition_for(region, tiling, True, True)
        return part

    def _tiling(self, shape: Tuple[int, ...], row_only: bool = False,
                max_tiles: Optional[int] = None) -> Tuple:
        """:func:`~.views.choose_tiling` of ``shape`` as a canonical tuple
        (the budget defaults to ``num_tiles``); asked on memo misses."""
        return self._canonical(tuple(choose_tiling(
            shape, max_tiles or self.num_tiles, row_only)))

    def _domain(self, points: int) -> Tuple[int, ...]:
        """The launch domain ``(0, ..., points - 1)``, one tuple per size."""
        return self._canonical(tuple(range(points)))

    def _canonical(self, value: Tuple) -> Tuple:
        """The one tuple equal to ``value`` this context hands to launches.

        Only for the frontend's own tilings, domains, kinds, task specs and
        tile shapes, and args tuples made of them and of kernel codes,
        whose members are strings, ints and ``None``: equal values encode
        identically there, so keying by ``==`` is safe.  Args with a float
        go through :meth:`_elementwise_args` or stay fresh.
        """
        if len(self._canon) >= _MAX_MEMO:
            self._canon.clear()
        return self._canon.setdefault(value, value)

    # -- the op memo ---------------------------------------------------------

    def _remember(self, key: Tuple, entry: Tuple) -> Tuple:
        """File a launch site's lowering under ``key``: the site's task
        body, its kernel code, and each operand's (block, view identity).
        Every entry ends with the views its key names by ``id``, which it
        keeps alive, so an id in a live key is never reused."""
        if len(self._ops) >= _MAX_MEMO:
            self._ops.clear()
        self._ops[key] = entry
        return entry

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
        (possibly pooled) field.  The op memo is keyed by the code and
        each operand's (block, view), a scalar by its position alone, so
        a repeated op pays only for its output's checkout and key
        partition, and for its scalars.
        """
        key = [ops.elementwise_body, code]
        scalars = []
        for o in operands:
            if isinstance(o, LegateArray):
                key += (o.block, id(o.view))
            else:
                scalars.append(float(o))
                key.append(None)
        key = tuple(key)
        entry = self._ops.get(key)
        if entry is None:
            out, out_part, entry = self._lower_elementwise(key, operands)
        else:
            out = self._new_array(entry[0].shape)
            # _dense_partition's lookup, inlined on the hottest path
            out_part = self._partitions.get((out.block.region.uid, entry[1]))
            if out_part is None:
                out_part = self._dense_partition(out.block.region, entry[1])
        _view, _tiling, domain, in_reqs, kinds, specs, args, _held = entry
        self.fields.note_launch()
        self.ctx.index_launch(
            ops.elementwise_body, domain, [(out_part, "v", "wd"), *in_reqs],
            args=args if args is not None else self._elementwise_args(
                key[1], kinds, specs, scalars))
        return out

    def _lower_elementwise(self, key: Tuple, operands) -> Tuple:
        """An elementwise memo miss, in the order the hashed calls have
        always come: the new array, its key partition, then the operands'
        key partitions."""
        arrays = [o for o in operands if isinstance(o, LegateArray)]
        kinds = self._canonical(tuple(
            ["a" if isinstance(o, LegateArray) else "s" for o in operands]))
        shapes = {a.view.shape for a in arrays}
        rshape = shapes.pop() if len(shapes) == 1 \
            else tuple(np.broadcast_shapes(*shapes))
        views = [a if a.view.shape == rshape else a.broadcast_to(rshape)
                 for a in arrays]
        out = self._new_array(rshape)
        tiling = self._tiling(rshape)
        out_part = self._dense_partition(out.block.region, tiling)
        in_reqs = tuple([(v._partition(tiling), "v", "ro") for v in views])
        specs = self._canonical(tuple([v.view.task_spec() for v in views]))
        args = None if "s" in kinds \
            else self._elementwise_args(key[1], kinds, specs, ())
        return out, out_part, self._remember(key, (
            out.view, tiling, self._domain(len(tiling)), in_reqs, kinds,
            specs, args, tuple([a.view for a in arrays])))

    def _elementwise_args(self, code: str, kinds: Tuple, specs: Tuple,
                          scalars: Sequence[float]) -> Tuple:
        """The one args tuple this context hands to every elementwise
        launch of (code, kinds, specs, scalars), so the hasher's skeleton
        serves it.  Scalars are keyed by ``float.hex``, which tells -0.0
        from 0.0 (``==`` does not) exactly as their encoding does; the
        memo is cleared when full, as scalars may differ at every call."""
        key = (code, kinds, specs, tuple(map(float.hex, scalars)))
        args = self._args.get(key)
        if args is None:
            if len(self._args) >= _MAX_MEMO:
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
        return self.lg._key_partition(self.block.region, self.view, tiling)

    def _tile_shapes(self, tiling):
        return self.lg._canonical(tuple(
            tuple(h - l + 1 for l, h in zip(lo, hi)) for lo, hi in tiling))

    def _task_spec(self):
        return self.lg._canonical(self.view.task_spec())

    # -- views ---------------------------------------------------------------

    def __getitem__(self, key) -> "LegateArray":
        """A step-1 slice view (no data movement, shared lease)."""
        return LegateArray(self.lg, self.block, self.lease,
                           self.lg._views.sliced(self.view, key))

    @property
    def T(self) -> "LegateArray":
        """Transpose view (identity for 1-D arrays)."""
        return LegateArray(self.lg, self.block, self.lease,
                           self.lg._views.transformed(self.view, "T"))

    def transpose(self) -> "LegateArray":
        return self.T

    def broadcast_to(self, shape: Sequence[int]) -> "LegateArray":
        """A broadcast view following NumPy rules (read-only semantics)."""
        return LegateArray(self.lg, self.block, self.lease,
                           self.lg._views.transformed(self.view, "b",
                                                     tuple(shape)))

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
        lg = self.lg
        dst = lg._views.sliced(self.view, key)
        if not isinstance(value, LegateArray):
            body = ops.fill_tile_body
            memo_key = (body, self.block, id(dst))
        else:
            if value.block is self.block:
                # Aliased source: materialize first, so the write has
                # NumPy's copy semantics instead of an order-dependent
                # overlap.
                value = value._materialized()
            body = ops.setitem_body
            memo_key = (body, self.block, id(dst), value.block,
                        id(value.view))
        entry = lg._ops.get(memo_key)
        if entry is None:
            tiling = lg._tiling(dst.shape)
            reqs = [(lg._key_partition(self.region, dst, tiling), "v", "rw")]
            args = None
            if body is ops.setitem_body:
                src = value if value.view.shape == dst.shape \
                    else value.broadcast_to(dst.shape)
                reqs.append((src._partition(tiling), "v", "ro"))
                args = lg._canonical((src._task_spec(),))
            entry = lg._remember(memo_key, (
                lg._domain(len(tiling)), tuple(reqs), args,
                (dst,) if args is None else (dst, value.view)))
        domain, reqs, args, _held = entry
        lg.fields.note_launch()
        lg.ctx.index_launch(body, domain, reqs,
                            args=args if args is not None
                            else (float(value),))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self.lg._launch_elementwise("add", (self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.lg._launch_elementwise("sub", (self, other))

    def __rsub__(self, other):
        return self.lg._launch_elementwise("sub", (other, self))

    def __mul__(self, other):
        return self.lg._launch_elementwise("mul", (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.lg._launch_elementwise("div", (self, other))

    def __rtruediv__(self, other):
        return self.lg._launch_elementwise("div", (other, self))

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
        return self.lg._launch_elementwise("maximum", (self, other))

    def minimum(self, other) -> "LegateArray":
        return self.lg._launch_elementwise("minimum", (self, other))

    # -- comparisons (0.0/1.0 doubles) --------------------------------------

    def greater(self, other) -> "LegateArray":
        return self.lg._launch_elementwise("gt", (self, other))

    def greater_equal(self, other) -> "LegateArray":
        return self.lg._launch_elementwise("ge", (self, other))

    def less(self, other) -> "LegateArray":
        return self.lg._launch_elementwise("lt", (self, other))

    def less_equal(self, other) -> "LegateArray":
        return self.lg._launch_elementwise("le", (self, other))

    def equal(self, other) -> "LegateArray":
        return self.lg._launch_elementwise("eq", (self, other))

    def not_equal(self, other) -> "LegateArray":
        return self.lg._launch_elementwise("ne", (self, other))

    def where(self, cond: "LegateArray", other) -> "LegateArray":
        """Elementwise select: cond != 0 ? self : other."""
        return self.lg._launch_elementwise("where", (cond, self, other))

    def axpy(self, alpha: float, x: "LegateArray") -> "LegateArray":
        """self += alpha * x, in place (returns self)."""
        if not self.view.writable:
            raise ValueError("axpy target must be a writable view")
        lg = self.lg
        key = (ops.axpy_body, self.block, id(self.view), x.block, id(x.view))
        entry = lg._ops.get(key)
        if entry is None:
            xb = x if x.shape == self.shape else x.broadcast_to(self.shape)
            tiling = self._tiling()
            entry = lg._remember(key, (
                lg._domain(len(tiling)),
                ((self._partition(tiling), "v", "rw"),
                 (xb._partition(tiling), "v", "ro")),
                xb._task_spec(), (self.view, x.view)))
        domain, reqs, spec, _held = entry
        lg.fields.note_launch()
        lg.ctx.index_launch(ops.axpy_body, domain, reqs,
                            args=(float(alpha), spec))
        return self

    # -- reductions ----------------------------------------------------------

    def _reduce_scalar(self, code: str) -> float:
        lg = self.lg
        key = (ops.reduce_tile_body, code, self.block, id(self.view))
        entry = lg._ops.get(key)
        if entry is None:
            tiling = self._tiling()
            entry = lg._remember(key, (
                lg._domain(len(tiling)),
                ((self._partition(tiling), "v", "ro"),),
                lg._canonical((code, self._task_spec(),
                               self._tile_shapes(tiling))), self.view))
        domain, reqs, args, _held = entry
        lg.fields.note_launch()
        fm = lg.ctx.index_launch(ops.reduce_tile_body, domain, reqs,
                                 args=args)
        if code == "sum":
            return fm.reduce(lambda a, b: a + b)
        return fm.reduce(max if code == "max" else min)

    def _axis0_reduce(self, code: str) -> "LegateArray":
        lg = self.lg
        key = (ops.axis0_partial_body, code, self.block, id(self.view))
        entry = lg._ops.get(key)
        if entry is None:
            if self.ndim != 2:
                raise ValueError("axis-0 reductions require a 2-D array")
            _n, m = self.shape
            tiling = self._tiling(row_only=True)
            ntiles = len(tiling)
            partials = lg._new_array((ntiles, m))
            out = lg._new_array((m,))
            prow = lg._tiling((ntiles, m), True, ntiles)
            ppart = lg._dense_partition(partials.region, prow)
            entry = lg._remember(key, (
                partials.view, out.view, prow, lg._domain(ntiles),
                (self._partition(tiling), "v", "ro"),
                lg._canonical((code, self._task_spec(),
                               self._tile_shapes(tiling))),
                lg._canonical((code,)), self.view))
        else:
            partials = lg._new_array(entry[0].shape)
            out = lg._new_array(entry[1].shape)
            ppart = lg._dense_partition(partials.region, entry[2])
        _pview, _oview, _prow, domain, req, args, combine, _held = entry
        lg.fields.note_launch()
        lg.ctx.index_launch(ops.axis0_partial_body, domain,
                            [(ppart, "v", "wd"), req], args=args)
        lg.fields.note_launch()
        lg.ctx.launch(ops.axis0_combine_body,
                      [(partials.region, "v", "ro"), (out.region, "v", "wd")],
                      args=combine)
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
        lg = self.lg
        key = (ops.rowsum_body, self.block, id(self.view))
        entry = lg._ops.get(key)
        if entry is None:
            out = lg._new_array((self.shape[0],))
            otiling = out._tiling()
            opart = lg._dense_partition(out.region, otiling)
            tiling = self._tiling(row_only=True)
            entry = lg._remember(key, (
                out.view, otiling, lg._domain(len(tiling)),
                (self._partition(tiling), "v", "ro"),
                lg._canonical((self._task_spec(),
                               self._tile_shapes(tiling))), self.view))
        else:
            out = lg._new_array(entry[0].shape)
            opart = lg._dense_partition(out.region, entry[1])
        _view, _otiling, domain, req, args, _held = entry
        lg.fields.note_launch()
        lg.ctx.index_launch(ops.rowsum_body, domain,
                            [(opart, "v", "wd"), req], args=args)
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
        lg = self.lg
        key = (ops.dot_tile_body, self.block, id(self.view), other.block,
               id(other.view))
        entry = lg._ops.get(key)
        if entry is None:
            if self.shape != other.shape:
                raise ValueError("dot requires matching shapes")
            tiling = self._tiling()
            entry = lg._remember(key, (
                lg._domain(len(tiling)),
                ((self._partition(tiling), "v", "ro"),
                 (other._partition(tiling), "v", "ro")),
                lg._canonical((self._task_spec(), other._task_spec(),
                               self._tile_shapes(tiling))),
                (self.view, other.view)))
        domain, reqs, args, _held = entry
        lg.fields.note_launch()
        fm = lg.ctx.index_launch(ops.dot_tile_body, domain, reqs, args=args)
        return fm.reduce(lambda a, b: a + b)

    # -- linear algebra ------------------------------------------------------

    def _row_product(self, body, other: "LegateArray", out_shape,
                     out_row_only: bool) -> "LegateArray":
        """``matvec``/``matmat``: each point reads its row tile of self and
        the whole of ``other`` (a broadcast in the dependence analysis).

        Memoised only when both operands are used as they are; a
        broadcast matrix or a non-identity right operand is materialized
        first, on every call, as it always was."""
        lg = self.lg
        key = (body, self.block, id(self.view), other.block, id(other.view))
        entry = lg._ops.get(key)
        if entry is None:
            mat = self._no_broadcast()
            rhs = other._as_dense()
            out = lg._new_array(out_shape)
            otiling = out._tiling(row_only=out_row_only)
            opart = lg._dense_partition(out.region, otiling)
            tiling = mat._tiling(row_only=True)
            entry = (out.view, otiling, lg._domain(len(tiling)),
                     (mat._partition(tiling), "v", "ro"),
                     (rhs.region, "v", "ro"),
                     lg._canonical((mat._task_spec(),)),
                     (self.view, other.view))
            if mat is self and rhs is other:
                lg._remember(key, entry)
        else:
            out = lg._new_array(entry[0].shape)
            opart = lg._dense_partition(out.region, entry[1])
        _view, _otiling, domain, mat_req, rhs_req, args, _held = entry
        lg.fields.note_launch()
        lg.ctx.index_launch(body, domain, [(opart, "v", "wd"), mat_req,
                                           rhs_req], args=args)
        return out

    def matvec(self, vec: "LegateArray") -> "LegateArray":
        """Row-tiled matrix-vector product: (N, F) @ (F,) -> (N,).

        Each point task reads the *whole* vector (a broadcast in the
        dependence analysis) and its own row tile.
        """
        if self.ndim != 2 or vec.ndim != 1 or self.shape[1] != vec.shape[0]:
            raise ValueError("matvec shape mismatch")
        return self._row_product(ops.matvec_body, vec, (self.shape[0],),
                                 False)

    def rmatvec(self, vec: "LegateArray") -> "LegateArray":
        """Transposed product: (N, F).T @ (N,) -> (F,).

        Per-tile partial results land in a (tiles, F) scratch field
        (pooled across calls), then one combining task reduces them — the
        gather a centralized system would bottleneck on and DCR shards.
        Memoised only when neither operand broadcasts.
        """
        if self.ndim != 2 or vec.ndim != 1 or self.shape[0] != vec.shape[0]:
            raise ValueError("rmatvec shape mismatch")
        lg = self.lg
        key = (ops.rmatvec_partial_body, self.block, id(self.view),
               vec.block, id(vec.view))
        entry = lg._ops.get(key)
        if entry is None:
            mat = self._no_broadcast()
            vecb = vec._no_broadcast()
            tiling = mat._tiling(row_only=True)
            vtiling = lg._tiling((self.shape[0],))
            ntiles = len(tiling)
            f = self.shape[1]
            partials = lg._new_array((ntiles, f))
            out = lg._new_array((f,))
            prow = lg._tiling((ntiles, f), True, ntiles)
            ppart = lg._dense_partition(partials.region, prow)
            entry = (partials.view, out.view, prow, lg._domain(ntiles),
                     ((mat._partition(tiling), "v", "ro"),
                      (vecb._partition(vtiling), "v", "ro")),
                     lg._canonical((mat._task_spec(), vecb._task_spec())),
                     (self.view, vec.view))
            if mat is self and vecb is vec:
                lg._remember(key, entry)
        else:
            partials = lg._new_array(entry[0].shape)
            out = lg._new_array(entry[1].shape)
            ppart = lg._dense_partition(partials.region, entry[2])
        _pview, _oview, _prow, domain, reqs, args, _held = entry
        lg.fields.note_launch()
        lg.ctx.index_launch(ops.rmatvec_partial_body, domain,
                            [(ppart, "v", "wd"), *reqs], args=args)
        lg.fields.note_launch()
        lg.ctx.launch(
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
        return self._row_product(ops.matmat_body, other,
                                 (self.shape[0], other.shape[1]), True)

    # -- export --------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Copy out the view's current contents (test/debug helper)."""
        store = self.lg.ctx.runtime.store
        f = self.region.field_space["v"]
        return self.view.read(store.raw(self.region, f))
