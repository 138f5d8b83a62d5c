"""Composable deferred-array views (the cunumeric ``DeferredArrayView`` idiom).

A :class:`ViewSpec` describes how a logical array maps onto a backing
region/field *without materializing*: step-1 slices become per-dimension
offsets, transposes become an axis permutation, and broadcasts become
``None`` (new) or *stretched* (size-1) logical dimensions.  Transforms
compose — a slice of a transpose of a broadcast is still a single spec —
and every group-task launch maps the logical tiling through the spec to a
rectangle list over the base region, so sliced and transposed operands
still launch as aligned group tasks over a key partition chosen per view
(paper §5.4; cunumeric's ``find_or_create_key_partition``).

The math here is deliberately pure: specs never touch the runtime, so view
creation issues no API calls and costs nothing until a launch uses it.
Each ``LegateContext`` interns the specs it derives in a
:class:`ViewTable`, one object per value, so a repeated slice is one
lookup and the context's memos can key on a spec's identity; specs still
compare by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ViewSpec", "ViewTable", "choose_tiling", "extract_block"]

Rect2 = Tuple[Tuple[int, ...], Tuple[int, ...]]     # (lo, hi) inclusive


@dataclass(frozen=True)
class ViewSpec:
    """A composable transform from logical indices to base-region indices.

    ``axes[d]`` names the base dimension logical dimension ``d`` reads
    (``None`` for a broadcast-new axis); non-``None`` entries are a
    permutation of the base dimensions, so no base dimension is ever
    dropped.  ``offsets`` are per *base* dimension (slicing accumulates
    there), and ``stretched[d]`` marks a size-1 base extent broadcast to a
    larger logical extent — those logical dims all map to one base index.
    """

    base_shape: Tuple[int, ...]
    shape: Tuple[int, ...]
    axes: Tuple[Optional[int], ...]
    offsets: Tuple[int, ...]
    stretched: Tuple[bool, ...]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(shape: Sequence[int]) -> "ViewSpec":
        shape = tuple(map(int, shape))
        return ViewSpec(base_shape=shape, shape=shape,
                        axes=tuple(range(len(shape))),
                        offsets=(0,) * len(shape),
                        stretched=(False,) * len(shape))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_identity(self) -> bool:
        return (self.shape == self.base_shape
                and self.axes == tuple(range(len(self.base_shape)))
                and not any(self.stretched)
                and all(o == 0 for o in self.offsets))

    @property
    def writable(self) -> bool:
        """Whether writes through this view are well-defined.

        Requires an untransposed, unbroadcast mapping (offsets are fine:
        a step-1 slice writes a sub-rectangle of the base).
        """
        return (self.axes == tuple(range(len(self.base_shape)))
                and not any(self.stretched))

    # -- transform composition ----------------------------------------------

    def sliced(self, bounds: Sequence[Tuple[int, int]]) -> "ViewSpec":
        """Compose a step-1 slice: per logical dim, [lo, stop) bounds."""
        if len(bounds) != len(self.shape):
            raise ValueError("slice bounds must cover every dimension")
        shape: List[int] = []
        offsets = list(self.offsets)
        for d, (lo, stop) in enumerate(bounds):
            if not 0 <= lo <= stop <= self.shape[d]:
                raise ValueError(
                    f"slice [{lo}:{stop}] out of range for extent "
                    f"{self.shape[d]} (dim {d})")
            if stop == lo:
                raise ValueError("empty slices are not supported")
            shape.append(stop - lo)
            b = self.axes[d]
            if b is not None and not self.stretched[d]:
                offsets[b] += lo
        return ViewSpec(self.base_shape, tuple(shape), self.axes,
                        tuple(offsets), self.stretched)

    def transposed(self) -> "ViewSpec":
        """Reverse the logical dimensions (1-D transpose is the identity)."""
        return ViewSpec(self.base_shape, self.shape[::-1], self.axes[::-1],
                        self.offsets, self.stretched[::-1])

    def broadcast_to(self, target: Sequence[int]) -> "ViewSpec":
        """Compose a NumPy-rules broadcast to ``target`` shape."""
        target = tuple(int(e) for e in target)
        if len(target) < self.ndim:
            raise ValueError("broadcast cannot drop dimensions")
        pad = len(target) - self.ndim
        shape: List[int] = []
        axes: List[Optional[int]] = []
        stretched: List[bool] = []
        for d, ext in enumerate(target):
            if d < pad:                       # brand-new leading axis
                shape.append(ext)
                axes.append(None)
                stretched.append(False)
                continue
            sd = d - pad
            cur = self.shape[sd]
            if cur == ext:
                shape.append(ext)
                axes.append(self.axes[sd])
                stretched.append(self.stretched[sd])
            elif cur == 1:
                shape.append(ext)
                axes.append(self.axes[sd])
                stretched.append(self.axes[sd] is not None)
            else:
                raise ValueError(
                    f"cannot broadcast extent {cur} to {ext} (dim {sd})")
        return ViewSpec(self.base_shape, tuple(shape), tuple(axes),
                        self.offsets, tuple(stretched))

    # -- rect mapping --------------------------------------------------------

    def base_rect(self, lo: Sequence[int], hi: Sequence[int]) -> Rect2:
        """Map an inclusive logical rect to the base rect it reads."""
        blo = list(self.offsets)
        bhi = list(self.offsets)
        for d, b in enumerate(self.axes):
            if b is None:
                continue
            if self.stretched[d]:
                bhi[b] = blo[b]               # every index reads one point
            else:
                blo[b] = self.offsets[b] + lo[d]
                bhi[b] = self.offsets[b] + hi[d]
        return tuple(blo), tuple(bhi)

    def task_spec(self) -> Tuple[Tuple[Optional[int], ...], ...]:
        """The hashable transform description shipped to task bodies."""
        return (self.axes,)

    # -- host-side materialization ------------------------------------------

    def read(self, raw: np.ndarray) -> np.ndarray:
        """Materialize the view from the base's root-wide array (a copy)."""
        sl = []
        extents = [1] * len(self.base_shape)
        for d, b in enumerate(self.axes):
            if b is not None and not self.stretched[d]:
                extents[b] = self.shape[d]
        for b, off in enumerate(self.offsets):
            sl.append(slice(off, off + extents[b]))
        block = raw[tuple(sl)]
        arr = extract_block(block, self.task_spec())
        return np.broadcast_to(arr, self.shape).copy()


def _slice_bounds(key, shape: Tuple[int, ...]) -> List[Tuple[int, int]]:
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


class ViewTable(dict):
    """One context's interned views, cleared when it holds ``limit``.

    Keys are a shape (its identity view), a parent view's ``id`` with a
    slice key or a transform, and a view's five fields, which intern it
    by value: equal views are one object, so a memo keyed by a view's
    identity shares its entries across them.  Each value is ``(view,
    parent)``: an entry whose key names a parent by ``id`` keeps the
    parent alive, so the id cannot be reused while the key is here.
    """

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def _intern(self, key, view: ViewSpec,
                parent: Optional[ViewSpec] = None) -> ViewSpec:
        if len(self) + 2 > self.limit:
            self.clear()
        view = self.setdefault((view.base_shape, view.shape, view.axes,
                                view.offsets, view.stretched),
                               (view, None))[0]
        self[key] = (view, parent)
        return view

    def identity(self, shape: Tuple[int, ...]) -> ViewSpec:
        hit = self.get(shape)
        return hit[0] if hit is not None \
            else self._intern(shape, ViewSpec.identity(shape))

    def sliced(self, view: ViewSpec, key) -> ViewSpec:
        """``view[key]``, looked up by the raw (start, stop, step) of each
        slice, so a repeated slice skips :func:`_slice_bounds`; a key that
        is not all slices raises there."""
        skey = [id(view), "s"]
        for k in key if type(key) is tuple else (key,):
            if type(k) is not slice:
                _slice_bounds(key, view.shape)          # raises
            # with their classes: 1.0 == 1, but only the int is an index
            skey += (k.start, k.stop, k.step, k.start.__class__,
                     k.stop.__class__, k.step.__class__)
        skey = tuple(skey)
        hit = self.get(skey)
        if hit is not None:
            return hit[0]
        return self._intern(skey, view.sliced(_slice_bounds(key, view.shape)),
                            view)

    def transformed(self, view: ViewSpec, how: str, arg=None) -> ViewSpec:
        """``view`` transposed (``how == "T"``) or broadcast to the shape
        ``arg`` (``"b"``)."""
        key = (id(view), how, arg)
        hit = self.get(key)
        if hit is not None:
            return hit[0]
        return self._intern(key, view.transposed() if how == "T"
                            else view.broadcast_to(arg), view)


def extract_block(block: np.ndarray,
                  spec: Tuple[Tuple[Optional[int], ...], ...]) -> np.ndarray:
    """Reorient a base-rect block into logical order (task-body helper).

    ``block`` carries base dimensions in base order; the result carries the
    logical dimensions (new/stretched axes as size-1, so it broadcasts
    against the launch tile's shape inside a kernel).  Under the identity
    axes the block already is in logical order and comes back untouched.
    """
    (axes,) = spec
    if axes == tuple(range(block.ndim)):
        return block
    arr = block.transpose([b for b in axes if b is not None]
                          if None in axes else axes)
    for d, b in enumerate(axes):
        if b is None:
            arr = np.expand_dims(arr, d)
    return arr


def choose_tiling(shape: Sequence[int], max_tiles: int,
                  row_only: bool = False) -> List[Rect2]:
    """Non-empty tile rects (inclusive lo/hi) for a logical shape.

    1-D shapes split into ``min(max_tiles, n)`` contiguous blocks.  2-D
    shapes split into a ``rows x cols`` grid: rows first, and when the
    leading dimension is smaller than the budget the spare factor tiles
    the columns — the fix for the latent ``min(num_tiles, shape[0])``
    chunking bug, which silently degraded wide arrays with short leading
    dimensions to ``shape[0]`` tiles.  ``row_only`` forces pure row
    tiling (rows must stay whole for row-local kernels like ``matvec``
    and ``sum(axis=1)``).  Colors are row-major flattened ints.
    """
    shape = tuple(int(e) for e in shape)
    n = shape[0]
    rows = max(1, min(max_tiles, n))
    cols = 1
    if len(shape) == 2 and not row_only and rows < max_tiles:
        cols = max(1, min(max_tiles // rows, shape[1]))

    def splits(extent: int, pieces: int) -> List[Tuple[int, int]]:
        return [((extent * i) // pieces, (extent * (i + 1)) // pieces - 1)
                for i in range(pieces)]

    row_sp = splits(n, rows)
    if len(shape) == 1:
        return [((lo,), (hi,)) for lo, hi in row_sp]
    col_sp = splits(shape[1], cols)
    rest_lo = tuple(0 for _ in shape[2:])
    rest_hi = tuple(e - 1 for e in shape[2:])
    rects: List[Rect2] = []
    for rlo, rhi in row_sp:
        for clo, chi in col_sp:
            rects.append(((rlo, clo) + rest_lo, (rhi, chi) + rest_hi))
    return rects
