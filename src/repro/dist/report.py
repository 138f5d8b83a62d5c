"""Per-shard run reports and the cross-shard conformance merge.

A :class:`ShardReport` is what one shard replica returns after replaying
its program: the three conformance artifacts the headline property compares
— the task-graph :func:`~repro.core.pipeline.analysis_digest`, the keyed
:func:`~repro.core.pipeline.fence_sequence`, and the control-determinism
:func:`~repro.core.determinism.stream_digest` — plus analysis counters,
the canonical collective schedule, and the transport's true wire traffic.

:func:`merge_reports` folds N of them into a :class:`MergedReport`:
conformant iff every shard produced byte-identical artifacts (what the CLI
prints and the multiprocess tests assert), with per-artifact mismatch
details when not.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.determinism import stream_digest
from ..core.pipeline import DCRPipeline, analysis_digest, fence_sequence

__all__ = ["ShardReport", "MergedReport", "merge_reports"]


@dataclass(frozen=True)
class ShardReport:
    """One shard replica's replay outcome, as plain serializable data."""

    shard: int
    num_shards: int
    backend: str                 # "inprocess" | "loopback" | "shm" | "tcp"
    graph_digest: str            # analysis_digest (sha256 hex)
    fence_sequence: tuple        # (at_seq, region key, field names) triples
    determinism_digest: int      # stream_digest of the full call stream
    call_count: int              # API calls hashed
    checks: int                  # determinism windows verified
    ops_analyzed: int
    fences: int
    fences_elided: int
    points: int                  # point tasks this shard owns
    collectives: Dict[str, int] = field(default_factory=dict)
    coll_rounds: int = 0         # canonical schedule latency (hops)
    coll_messages: int = 0       # canonical schedule messages
    frames_sent: int = 0         # true wire traffic (0 for in-process)
    frames_received: int = 0
    duplicates_dropped: int = 0
    out_of_order: int = 0
    wall_s: float = 0.0
    pid: int = 0
    profile_path: str = ""
    # Service identity: which submission of which client session produced
    # this report ("" outside the service).  Threaded through profiler
    # events too, so a persistent gang's timeline attributes every span.
    program_id: str = ""
    session: str = ""
    # Per-call determinism digests, captured only when a service cold run
    # records an analysis template (the tail is structure-only, so repeat
    # submissions patch parameters instead of re-analyzing).
    call_digests: tuple = ()

    @classmethod
    def from_replay(cls, shard: int, backend: str, pipeline: DCRPipeline,
                    calls: Sequence[int], t0: float,
                    **fields: Any) -> "ShardReport":
        """The report of one finished replay: the conformance artifacts and
        analysis counters come from ``pipeline`` and the hashed ``calls``;
        ``fields`` adds what only the caller knows (checks, wire traffic,
        service identity).  ``t0`` is the replay's ``perf_counter`` start.
        """
        coarse, fine = pipeline.coarse_result, pipeline.fine_result
        return cls(
            shard=shard, num_shards=pipeline.num_shards, backend=backend,
            graph_digest=analysis_digest(coarse, fine),
            fence_sequence=tuple(fence_sequence(coarse)),
            determinism_digest=stream_digest(calls),
            call_count=len(calls),
            ops_analyzed=coarse.ops_analyzed,
            fences=len(coarse.fences),
            fences_elided=coarse.fences_elided,
            points=fine.points_per_shard.get(shard, 0),
            wall_s=time.perf_counter() - t0, pid=os.getpid(), **fields)

    def artifacts(self) -> Tuple[str, tuple, int]:
        """The conformance triple compared across shards and backends."""
        return (self.graph_digest, self.fence_sequence,
                self.determinism_digest)


@dataclass(frozen=True)
class MergedReport:
    """N shard reports folded into one conformance verdict."""

    backend: str
    num_shards: int
    conformant: bool
    mismatches: Tuple[str, ...]      # artifact names that disagreed
    graph_digest: str                # shard 0's (canonical when conformant)
    determinism_digest: int
    fences: int
    fences_elided: int
    ops_analyzed: int
    total_points: int
    total_frames: int
    shards: Tuple[ShardReport, ...]
    program_id: str = ""
    session: str = ""
    template_hit: bool = False      # served from a cached analysis template

    def render(self) -> str:
        """Human-readable summary, printed by ``repro.tools.dist``."""
        lines = []
        if self.program_id:
            lines.append(f"program:            {self.program_id}"
                         + (f"  (session {self.session})" if self.session
                            else "")
                         + ("  [template hit]" if self.template_hit else ""))
        lines += [
            f"backend:            {self.backend}",
            f"shards:             {self.num_shards}",
            "conformant:         " + ("yes" if self.conformant else
                                      "NO  (" +
                                      ", ".join(self.mismatches) + ")"),
            f"graph digest:       {self.graph_digest[:16]}…",
            f"determinism hash:   {self.determinism_digest:032x}",
            f"ops analyzed:       {self.ops_analyzed}",
            f"fences:             {self.fences} "
            f"({self.fences_elided} elided)",
            f"point tasks:        {self.total_points}",
            f"wire frames:        {self.total_frames}",
        ]
        header = f"{'shard':>5} {'pid':>7} {'calls':>6} {'points':>7} " \
                 f"{'sent':>6} {'recv':>6} {'wall_s':>8}"
        lines.append(header)
        for r in sorted(self.shards, key=lambda r: r.shard):
            lines.append(f"{r.shard:>5} {r.pid:>7} {r.call_count:>6} "
                         f"{r.points:>7} {r.frames_sent:>6} "
                         f"{r.frames_received:>6} {r.wall_s:>8.3f}")
        return "\n".join(lines)


def merge_reports(reports: Sequence[ShardReport],
                  backend: Optional[str] = None,
                  program_id: str = "", session: str = "",
                  template_hit: bool = False) -> MergedReport:
    """Fold per-shard reports; conformant iff all artifacts agree."""
    if not reports:
        raise ValueError("no shard reports to merge")
    ordered = sorted(reports, key=lambda r: r.shard)
    head = ordered[0]
    mismatches: List[str] = []
    for name, pick in (("graph_digest", lambda r: r.graph_digest),
                       ("fence_sequence", lambda r: r.fence_sequence),
                       ("determinism_digest",
                        lambda r: r.determinism_digest),
                       ("call_count", lambda r: r.call_count)):
        if len({repr(pick(r)) for r in ordered}) > 1:
            mismatches.append(name)
    return MergedReport(
        backend=backend if backend is not None else head.backend,
        num_shards=head.num_shards,
        conformant=not mismatches,
        mismatches=tuple(mismatches),
        graph_digest=head.graph_digest,
        determinism_digest=head.determinism_digest,
        fences=head.fences,
        fences_elided=head.fences_elided,
        ops_analyzed=head.ops_analyzed,
        total_points=sum(r.points for r in ordered),
        total_frames=sum(r.frames_sent for r in ordered),
        shards=tuple(ordered),
        program_id=program_id or head.program_id,
        session=session or head.session,
        template_hit=template_hit,
    )
