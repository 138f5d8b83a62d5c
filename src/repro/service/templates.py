"""Analysis templates: cached per-program-shape analysis products.

Following *Execution Templates* (Mashayekhi et al., PAPERS.md), a repeat
submission of an already-analyzed program **shape** should not pay for
dependence analysis again: the service caches the conformance artifacts of
the cold run — graph digest, fence sequence, per-shard counters — keyed by
the program's structural shape, and serves later submissions by *patching
parameters* into the cached products.

Templates are keyed by the shape itself — :func:`structural_signature` is
a flat tuple of five scalars, the op codes one comma-joined string — so
the LRU dict's own hashing and equality are the whole lookup: equal shapes
hit, anything else misses, and there is no separate hash to collide.

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
report with its per-job fields replaced.  Those copies go through
:func:`copy_report`, which copies the recorded instance's ``__dict__``
instead of re-running the report's generated ``__init__`` over every
field as :func:`dataclasses.replace` would.

The store is not thread-safe by itself: :class:`~repro.service.service.
DCRService` calls :meth:`TemplateStore.lookup`, :meth:`TemplateStore.record`
and :meth:`AnalysisTemplate.patch` only under its service lock, from the
submitting thread (a hit at admission) or the dispatcher.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, TypeVar

from ..core.determinism import ShardHasher, fold_calls, serialise_calls
from ..dist.programs import ProgramSpec
from ..dist.report import MergedReport, merge_reports

__all__ = ["structural_signature", "AnalysisTemplate", "TemplateStore"]

_Report = TypeVar("_Report")


def structural_signature(spec: ProgramSpec, num_shards: int) -> tuple:
    """The shape of a program: everything that affects analysis products.

    Two specs with equal structural signatures produce identical graph
    digests, fence sequences, and analyze-call streams at ``num_shards``
    shards; they may differ only in payload values (which reach the
    artifacts solely through the program-signature API call).

    Flat: ``(tiles, cells_per_tile, sharding, num_shards, ops)`` with
    ``ops`` the comma-joined op codes, each ``spot`` written with its
    owner shard (``spot1``).  No code contains a comma or ends in a digit
    (``OP_CODES``), so the string determines the codes and the owners.
    """
    ops = ",".join([f"spot{op.value % num_shards}" if op.code == "spot"
                    else op.code for op in spec.ops])
    return (spec.tiles, spec.cells_per_tile, spec.sharding, num_shards, ops)


def copy_report(report: _Report, changes: Dict[str, Any]) -> _Report:
    """``dataclasses.replace(report, **changes)`` for a frozen report.

    Copies the instance dict into a new instance instead of re-running the
    generated ``__init__`` over every field.  Equal to ``replace`` for
    :class:`~repro.dist.report.ShardReport` and
    :class:`~repro.dist.report.MergedReport`: neither has a
    ``__post_init__`` or an ``init=False`` field for the copy to skip.
    """
    new = object.__new__(type(report))
    object.__setattr__(new, "__dict__", {**report.__dict__, **changes})
    return new


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
        job = {"determinism_digest": digest, "program_id": program_id,
               "session": session}
        served = {**job, "wall_s": time.perf_counter() - t0,
                  "pid": os.getpid()}
        recorded = self.report
        job["shards"] = tuple([copy_report(r, served)
                               for r in recorded.shards])
        self.hits += 1
        return copy_report(recorded, job)


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
        shape = structural_signature(spec, num_shards)
        tpl = self._entries.pop(shape, None)
        if tpl is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries[shape] = tpl       # LRU touch: back in at the young end
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
                [copy_report(r, {"call_digests": ()})
                 for r in merged.shards],
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
