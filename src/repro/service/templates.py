"""Analysis templates: cached per-program-shape analysis products.

Following *Execution Templates* (Mashayekhi et al., PAPERS.md), a repeat
submission of an already-analyzed program **shape** should not pay for
dependence analysis again: the service caches the conformance artifacts of
the cold run — graph digest, fence sequence, per-shard counters — keyed by
the program's structural shape, and serves later submissions by *patching
parameters* into the cached products.

Templates are keyed by the shape itself — :func:`structural_signature` is
a hashable tuple, so the LRU dict's own hashing and equality are the whole
lookup: equal shapes hit, anything else misses, and there is no separate
hash to collide.

What counts as *shape* vs *parameter* mirrors what the workers hash into
the determinism stream (:func:`repro.dist.worker.op_signature`): an op's
``value`` is structural only for ``spot`` (it selects the owner shard);
every other value is pure payload.  The one place payload values enter the
conformance artifacts is API call 0 — ``record("program",
*spec.signature())`` — so a template hit recomputes exactly that digest
and refolds the cached structure-only tail, yielding a determinism digest
byte-identical to what a cold run of the patched spec would produce
(property-tested in ``tests/service/test_service_conformance.py``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..core.determinism import ShardHasher, stream_digest
from ..dist.programs import ProgramSpec
from ..dist.report import MergedReport, ShardReport, merge_reports

__all__ = ["structural_signature", "AnalysisTemplate", "TemplateStore"]


def structural_signature(spec: ProgramSpec, num_shards: int) -> tuple:
    """The shape of a program: everything that affects analysis products.

    Two specs with equal structural signatures produce identical graph
    digests, fence sequences, and analyze-call streams at ``num_shards``
    shards; they may differ only in payload values (which reach the
    artifacts solely through the program-signature API call).
    """
    ops = tuple(
        (op.code, op.value % num_shards if op.code == "spot" else None)
        for op in spec.ops)
    return (spec.tiles, spec.cells_per_tile, spec.sharding, num_shards, ops)


@dataclass
class AnalysisTemplate:
    """Cached analysis products of one program shape at one gang width."""

    shape: tuple                       # structural_signature, the key
    num_shards: int
    shards: Tuple[ShardReport, ...]    # cold reports, call digests stripped
    call_digest_tail: Tuple[int, ...]  # per-call digests after call 0
    recorded_from: str                 # program_id of the cold run
    hits: int = 0

    def patch(self, spec: ProgramSpec, program_id: str = "",
              session: str = "", batch: int = 0) -> MergedReport:
        """Serve one submission from this template, analysis-free.

        The only artifact that depends on payload values is the
        determinism digest, through API call 0 (the program signature);
        recompute that one digest and refold the cached structure-only
        tail.  Everything else — graph digest, fence sequence, counters —
        is byte-identical to a cold run of ``spec`` by construction.
        """
        hasher = ShardHasher(0)
        head = hasher.record("program", *spec.signature())
        digest = stream_digest([head, *self.call_digest_tail])
        now = time.perf_counter()
        reports = [replace(cold, determinism_digest=digest,
                           program_id=program_id, session=session,
                           wall_s=time.perf_counter() - now, pid=os.getpid())
                   for cold in self.shards]
        self.hits += 1
        return merge_reports(reports, backend="template",
                             program_id=program_id, session=session,
                             template_hit=True)


class TemplateStore:
    """LRU map of program shapes to :class:`AnalysisTemplate` entries."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[tuple, AnalysisTemplate] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, spec: ProgramSpec,
               num_shards: int) -> Optional[AnalysisTemplate]:
        """The template for this program shape, or None (counted a miss)."""
        tpl = self._entries.pop(structural_signature(spec, num_shards), None)
        if tpl is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries[tpl.shape] = tpl   # LRU touch: back in at the young end
        return tpl

    def record(self, spec: ProgramSpec, num_shards: int,
               merged: MergedReport) -> Optional[AnalysisTemplate]:
        """Build and cache a template from a cold run's merged report.

        Requires a conformant run whose shard reports captured call
        digests; returns None (and caches nothing) otherwise.
        """
        head = merged.shards[0]
        if not merged.conformant or len(head.call_digests) < 1:
            return None
        tpl = AnalysisTemplate(
            shape=structural_signature(spec, num_shards),
            num_shards=num_shards,
            # The tail is stored once; per-shard copies would multiply the
            # footprint by N for data conformance proved identical.
            shards=tuple(replace(r, call_digests=()) for r in merged.shards),
            call_digest_tail=tuple(head.call_digests[1:]),
            recorded_from=head.program_id)
        # Pop first: re-recording a shape must move it to the young end,
        # and assigning to an existing key keeps the dict's old position.
        self._entries.pop(tpl.shape, None)
        self._entries[tpl.shape] = tpl
        if len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        return tpl

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}
