"""Serializable program specs expanded identically in every process.

The multiprocess backend cannot ship live :class:`~repro.core.Operation`
objects between processes (they hold region trees, closures, and
process-global uids), so conformance runs describe programs as plain data:
a :class:`ProgramSpec` is a tuple of :class:`OpSpec` codes over one
two-field tiled region.  Every shard process — and the in-process
reference run — calls :func:`build_operations` on the *same spec* and gets
a structurally identical operation stream, which is exactly the premise of
dynamic control replication: each replica re-derives the program rather
than receiving it.

Op codes (mirroring the generators in
``tests/integration/test_random_programs.py``):

========  =====================================================
``bump``   group launch, read-write field ``x`` over owned tiles
``scale``  group launch, read-write field ``y`` over owned tiles
``blend``  group launch, rw ``y`` owned + read-only ``x`` ghosts
``readx``  group launch, read-only ``x`` over owned tiles
``fill``   single task, write-discard ``x``+``y`` on the root
``spot``   single task, read-write ``x``, owner ``value % shards``
========  =====================================================

``blend`` is the stencil step: its ghost read forces the cross-shard
dependencies (and fences, when a ``fill`` precedes it) that make the
conformance digests non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core import BLOCKED, CYCLIC, HASHED, Operation, ShardingFunction
from ..oracle import READ_ONLY, READ_WRITE, WRITE_DISCARD
from ..apps.common import TiledField, group_op, single_op

__all__ = ["OpSpec", "ProgramSpec", "SHARDINGS", "OP_CODES",
           "build_field", "build_operations", "stencil_program"]

#: Sharding functions a spec may name (stable ids in core.sharding).
SHARDINGS: Dict[str, ShardingFunction] = {
    "blocked": BLOCKED,
    "cyclic": CYCLIC,
    "hashed": HASHED,
}

OP_CODES: Tuple[str, ...] = ("bump", "scale", "blend", "readx", "fill",
                             "spot")


@dataclass(frozen=True)
class OpSpec:
    """One operation: an op ``code`` plus a small integer parameter."""

    code: str
    value: int = 0

    def signature(self) -> Tuple[str, int]:
        """Canonical form, as hashed into the determinism call stream."""
        return (self.code, self.value)


@dataclass(frozen=True)
class ProgramSpec:
    """A complete program: one tiled region and an op stream."""

    tiles: int
    sharding: str = "blocked"
    ops: Tuple[OpSpec, ...] = ()
    cells_per_tile: int = 4

    def __post_init__(self) -> None:
        if self.tiles < 1:
            raise ValueError(f"need at least one tile, got {self.tiles}")
        if self.sharding not in SHARDINGS:
            raise ValueError(
                f"unknown sharding {self.sharding!r}; "
                f"expected one of {sorted(SHARDINGS)}")
        for op in self.ops:
            if op.code not in OP_CODES:
                raise ValueError(f"unknown op code {op.code!r}; "
                                 f"expected one of {OP_CODES}")

    def signature(self) -> tuple:
        """Canonical description — what the workers hash and exchange."""
        return (self.tiles, self.cells_per_tile, self.sharding,
                tuple(op.signature() for op in self.ops))


def build_field(spec: ProgramSpec) -> TiledField:
    """The spec's region tree: fields ``x``/``y``, tiles, 1-cell ghosts."""
    return TiledField.build("dist", [("x", float), ("y", float)],
                            num_tiles=spec.tiles,
                            cells_per_tile=spec.cells_per_tile,
                            with_ghost=True)


def build_operations(spec: ProgramSpec, num_shards: int,
                     field: TiledField = None) -> List[Operation]:
    """Expand a spec into the concrete operation stream, deterministically.

    Every process calling this with an equal ``(spec, num_shards)`` pair
    produces operations with identical structure (kinds, requirements,
    launch domains, sharding ids, owner shards, names) — uids and object
    identities differ, which is why all cross-process comparisons go
    through interned digests.
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    f = field if field is not None else build_field(spec)
    sharding = SHARDINGS[spec.sharding]
    x, y = f.fieldset("x"), f.fieldset("y")
    ops: List[Operation] = []
    for i, o in enumerate(spec.ops):
        name = f"{o.code}{i}"
        if o.code == "bump":
            ops.append(group_op(name, spec.tiles,
                                [(f.tiles, x, READ_WRITE)], sharding))
        elif o.code == "scale":
            ops.append(group_op(name, spec.tiles,
                                [(f.tiles, y, READ_WRITE)], sharding))
        elif o.code == "blend":
            ops.append(group_op(name, spec.tiles,
                                [(f.tiles, y, READ_WRITE),
                                 (f.ghost, x, READ_ONLY)], sharding))
        elif o.code == "readx":
            ops.append(group_op(name, spec.tiles,
                                [(f.tiles, x, READ_ONLY)], sharding))
        elif o.code == "fill":
            ops.append(single_op(name, [(f.region, x | y, WRITE_DISCARD)]))
        elif o.code == "spot":
            ops.append(single_op(name, [(f.region, x, READ_WRITE)],
                                 owner_shard=o.value % num_shards))
        else:  # pragma: no cover - __post_init__ rejects unknown codes
            raise ValueError(f"unknown op code {o.code!r}")
    return ops


def stencil_program(tiles: int, steps: int = 4,
                    sharding: str = "blocked") -> ProgramSpec:
    """The canonical demo program: fill, then ``steps`` stencil sweeps.

    Each sweep is a ghost-reading ``blend`` (cross-shard halo exchange)
    followed by an owned-only ``bump``, bracketed by a ``fill`` epoch that
    forces a fence — the shape the CLI smoke run and docs use.
    """
    ops: List[OpSpec] = [OpSpec("fill")]
    for _ in range(steps):
        ops.append(OpSpec("blend"))
        ops.append(OpSpec("bump"))
    ops.append(OpSpec("readx"))
    return ProgramSpec(tiles=tiles, sharding=sharding, ops=tuple(ops))
