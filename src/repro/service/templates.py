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
*spec.signature())``, the spec in its flat form — so a template hit pays
only for that: it hashes call 0 afresh and folds it with the recording's
tail of call digests, kept already serialised
(:func:`~repro.core.determinism.serialise_calls`), in one
:func:`~repro.core.determinism.fold_calls`.  The result is byte-identical
to what a cold run of the patched spec would produce (property-tested in
``tests/service/test_service_conformance.py``).

The conformance verdict is decided once, when the template is recorded:
:meth:`TemplateStore.record` merges the recorded shard reports and refuses
a run that is not conformant.  Nothing a hit's merge would compare can
differ — every shard report of a hit comes from that one recording and
carries the same fresh digest — so a hit returns the recorded merged
report with its per-job fields replaced.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..core.determinism import ShardHasher, fold_calls, serialise_calls
from ..dist.programs import ProgramSpec
from ..dist.report import MergedReport, merge_reports

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
    report: MergedReport               # the recorded verdict, no digests
    call_tail: bytes                   # serialised call digests after call 0
    recorded_from: str                 # program_id of the cold run
    hits: int = 0

    def patch(self, spec: ProgramSpec, program_id: str = "",
              session: str = "") -> MergedReport:
        """Serve one submission from this template, analysis-free.

        The only artifact that depends on payload values is the
        determinism digest, through API call 0 (the program signature):
        hash that one call and fold it with the serialised tail.
        Everything else — graph digest, fence sequence, counters, the
        verdict — is the recording's, byte-identical to a cold run of
        ``spec`` by construction.  Each shard report's ``wall_s`` is this
        hit's serve time and its ``pid`` the serving process.
        """
        t0 = time.perf_counter()
        head = ShardHasher(0).record("program", *spec.signature())
        digest = fold_calls(serialise_calls((head,)) + self.call_tail)
        recorded = self.report
        wall_s, pid = time.perf_counter() - t0, os.getpid()
        shards = tuple(replace(r, determinism_digest=digest,
                               program_id=program_id, session=session,
                               wall_s=wall_s, pid=pid)
                       for r in recorded.shards)
        self.hits += 1
        return replace(recorded, determinism_digest=digest,
                       program_id=program_id, session=session, shards=shards)


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
            # The verdict every hit returns, reached by the conformant
            # recording checked above.  The tail is stored once: per-shard
            # copies would multiply the footprint by N for data
            # conformance proved identical.
            report=merge_reports(
                [replace(r, call_digests=()) for r in merged.shards],
                backend="template", template_hit=True),
            call_tail=serialise_calls(head.call_digests[1:]),
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
