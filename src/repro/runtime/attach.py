"""Attach/detach: tying external resources to regions (paper §4.3).

Attach operations associate external memory (a NumPy array handed in by
other code) or files (``.npy`` here, HDF5 in Legion) with a region; detach
flushes updates back and severs the association.  Under DCR these are
sharded like any other operation: a plain attach/detach is performed by a
single owner shard, while the *group* variants attach one file per
subregion of a partition, modeling parallel file I/O.

All functions are control-deterministic API calls (hashed), and detach may
be issued from a finalizer via :meth:`Context.finalizer`, exercising the
deferred-operation consensus.
"""

from __future__ import annotations

import os
from typing import Callable, Hashable

import numpy as np

from ..core import Operation
from ..oracle import READ_ONLY, READ_WRITE
from ..regions import LogicalRegion, Partition
from .runtime import Context

__all__ = ["attach_array", "detach_array", "attach_file", "detach_file",
           "attach_file_group", "detach_file_group"]


def _issue(ctx: Context, kind: str, region: LogicalRegion, field_name: str,
           writes_region: bool):
    """Check and analyse one attach or detach of ``region.field_name``;
    on the driver, return the region's block of the field's array."""
    _names, req = ctx._door.region_req(
        kind, region, field_name, READ_WRITE if writes_region else READ_ONLY)
    if not ctx.is_driver:
        return None
    ctx.runtime.pipeline.analyze(
        Operation(kind, [req], name=f"{kind}({region.name}.{field_name})"))
    field, = req.fields
    rect = region.index_space.rect
    return ctx.runtime.store.raw(region, field)[rect.to_slices()]


def attach_array(ctx: Context, region: LogicalRegion, field_name: str,
                 array: np.ndarray) -> None:
    """Associate an external allocation with ``region.field``: copy it in.

    Only the *shape* of the attachment is control (and hashed); the array
    contents are data — the driver may already have mutated them through an
    earlier attach by the time later shards make this call.
    """
    ctx._record("attach_array", region, field_name,
                list(array.shape), str(array.dtype))
    block = _issue(ctx, "attach", region, field_name, writes_region=True)
    if block is not None:
        block[...] = np.asarray(array).reshape(block.shape)


def detach_array(ctx: Context, region: LogicalRegion, field_name: str,
                 array: np.ndarray) -> None:
    """Flush the region's contents back into the external allocation."""
    ctx._record("detach_array", region, field_name)
    block = _issue(ctx, "detach", region, field_name, writes_region=False)
    if block is not None:
        np.copyto(array.reshape(block.shape), block)


def attach_file(ctx: Context, region: LogicalRegion, field_name: str,
                path: str) -> None:
    """Read a ``.npy`` file into the region; performed by one owner shard."""
    ctx._record("attach_file", region, field_name, path)
    block = _issue(ctx, "attach", region, field_name, writes_region=True)
    if block is not None:
        block[...] = np.load(path).reshape(block.shape)


def detach_file(ctx: Context, region: LogicalRegion, field_name: str,
                path: str) -> None:
    """Write the region's contents to a ``.npy`` file and detach."""
    ctx._record("detach_file", region, field_name, path)
    block = _issue(ctx, "detach", region, field_name, writes_region=False)
    if block is not None:
        np.save(path, block)


def attach_file_group(ctx: Context, partition: Partition, field_name: str,
                      path_of: Callable[[Hashable], str]) -> None:
    """Parallel file attach: one file per subregion, sharded like a group op."""
    colors = sorted(partition.colors, key=str)
    ctx._record("attach_file_group", partition, field_name,
                [path_of(c) for c in colors])
    for color in colors:
        block = _issue(ctx, "attach", partition[color], field_name,
                       writes_region=True)
        if block is not None:
            block[...] = np.load(path_of(color)).reshape(block.shape)


def detach_file_group(ctx: Context, partition: Partition, field_name: str,
                      path_of: Callable[[Hashable], str]) -> None:
    """Parallel file detach: flush one file per subregion."""
    colors = sorted(partition.colors, key=str)
    ctx._record("detach_file_group", partition, field_name,
                [path_of(c) for c in colors])
    for color in colors:
        block = _issue(ctx, "detach", partition[color], field_name,
                       writes_region=False)
        if block is not None:
            os.makedirs(os.path.dirname(path_of(color)) or ".", exist_ok=True)
            np.save(path_of(color), block)
