"""Region checkpoint/restore built on attach/detach (paper §4.3 extension).

A practical library feature layered on the external-resource machinery:
save every field of a region (or each subregion of a partition, for
parallel I/O) to ``.npz``/``.npy`` files, and restore into a later run.
Checkpoint operations are ordinary runtime operations, so they are
correctly ordered against in-flight tasks and replicate safely.
"""

from __future__ import annotations

import os

from ..regions import LogicalRegion, Partition
from ..runtime.attach import detach_file, attach_file
from ..runtime.runtime import Context

__all__ = ["save_region", "load_region", "save_partitioned",
           "load_partitioned"]


def _field_path(directory: str, region_name: str, field_name: str) -> str:
    return os.path.join(directory, f"{region_name}.{field_name}.npy")


def save_region(ctx: Context, region: LogicalRegion, directory: str) -> None:
    """Checkpoint every field of ``region`` into ``directory``."""
    ctx._record("save_region", region, directory)
    if ctx.is_driver:
        os.makedirs(directory, exist_ok=True)
    for name in sorted(f.name for f in region.field_space.fields):
        detach_file(ctx, region, name,
                    _field_path(directory, region.name, name))


def load_region(ctx: Context, region: LogicalRegion, directory: str) -> None:
    """Restore every field of ``region`` from ``directory``."""
    ctx._record("load_region", region, directory)
    for name in sorted(f.name for f in region.field_space.fields):
        path = _field_path(directory, region.name, name)
        if ctx.is_driver and not os.path.exists(path):
            raise FileNotFoundError(
                f"checkpoint is missing field file {path}")
        attach_file(ctx, region, name, path)


def save_partitioned(ctx: Context, partition: Partition, field_name: str,
                     directory: str) -> None:
    """Parallel checkpoint: one file per subregion (group detach)."""
    from ..runtime.attach import detach_file_group
    ctx._record("save_partitioned", partition, field_name, directory)
    if ctx.is_driver:
        os.makedirs(directory, exist_ok=True)
    detach_file_group(
        ctx, partition, field_name,
        lambda c: os.path.join(directory,
                               f"{partition.name}.{field_name}.{c}.npy"))


def load_partitioned(ctx: Context, partition: Partition, field_name: str,
                     directory: str) -> None:
    """Parallel restore: one file per subregion (group attach)."""
    from ..runtime.attach import attach_file_group
    ctx._record("load_partitioned", partition, field_name, directory)
    attach_file_group(
        ctx, partition, field_name,
        lambda c: os.path.join(directory,
                               f"{partition.name}.{field_name}.{c}.npy"))
