"""Spy: post-run validation of a replicated execution (à la Legion Spy).

Legion ships a validation tool (Legion Spy) that checks a run's recorded
event graph against the program's region requirements.  This module is the
analogue for this runtime: given a finished :class:`Runtime`, it re-derives
what the dependence analysis *should* have concluded and reports every
discrepancy:

* **missing dependence** — two interfering point tasks with no path between
  them (and no covering fence when they live on different shards);
* **spurious edge** — a recorded edge between tasks the oracle says are
  independent (precision bug: legal but performance-relevant);
* **backward edge** — an edge against program order (would deadlock);
* **cycle** — the graph is not a DAG;
* **group** — an edge between two points of one group launch (the front
  door rejects a launch whose points interfere at the call, by the model's
  rule :func:`repro.core.semantics.group_interference`).

`validate_run` returns a :class:`SpyReport`; the test-suite runs it over
every functional app and also checks the negative controls (corrupting a
graph must produce findings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from ..core.operation import PointTask
from ..oracle import tasks_interfere
from ..runtime.runtime import Runtime

__all__ = ["SpyFinding", "SpyReport", "validate_run"]


@dataclass(frozen=True)
class SpyFinding:
    kind: str           # 'missing' | 'spurious' | 'backward' | 'cycle' | 'group'
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.kind}] {self.detail}"


@dataclass
class SpyReport:
    findings: List[SpyFinding] = field(default_factory=list)
    tasks_checked: int = 0
    pairs_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> List[SpyFinding]:
        return [f for f in self.findings if f.kind == kind]

    def render(self) -> str:
        if self.clean:
            return (f"spy: clean — {self.tasks_checked} tasks, "
                    f"{self.pairs_checked} pairs checked")
        lines = [f"spy: {len(self.findings)} finding(s):"]
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)


def _reachability(tasks, deps):
    from collections import defaultdict

    succ = defaultdict(set)
    for a, b in deps:
        succ[a].add(b)
    cache = {}

    def reach(t):
        if t in cache:
            return cache[t]
        cache[t] = set()
        out = set()
        for nxt in succ[t]:
            out.add(nxt)
            out |= reach(nxt)
        cache[t] = out
        return out

    return {t: reach(t) for t in tasks}


def validate_run(runtime: Runtime, check_precision: bool = True
                 ) -> SpyReport:
    """Re-derive and check the analysis products of a finished run."""
    report = SpyReport()
    graph = runtime.pipeline.fine_result.graph
    coarse = runtime.pipeline.coarse_result
    tasks: List[PointTask] = sorted(
        graph.tasks, key=lambda t: (t.op.seq, str(t.point)))
    report.tasks_checked = len(tasks)

    # Structural checks.
    if not graph.is_acyclic():
        report.findings.append(SpyFinding("cycle", "task graph has a cycle"))
        return report
    for a, b in graph.deps:
        if a.op.seq > b.op.seq:
            report.findings.append(SpyFinding(
                "backward",
                f"{a.op.name}[{a.point}] -> {b.op.name}[{b.point}] points "
                f"against program order"))
        elif a.op.seq == b.op.seq and a.op is b.op:
            report.findings.append(SpyFinding(
                "group",
                f"edge inside one group launch {a.op.name}: points "
                f"{a.point} and {b.point} interfere"))

    reach = _reachability(tasks, graph.deps)
    edge_set: Set[Tuple[PointTask, PointTask]] = set(graph.deps)

    # Completeness and precision against the oracle.
    for i, earlier in enumerate(tasks):
        for later in tasks[i + 1:]:
            if later.op is earlier.op:
                continue
            if earlier.op.seq >= later.op.seq:
                continue
            report.pairs_checked += 1
            interferes = tasks_interfere(earlier.requirements,
                                         later.requirements)
            ordered = later in reach[earlier]
            if interferes and not ordered:
                # Cross-shard orderings may flow through a fence instead of
                # a recorded edge (trace replays drop boundary edges).
                covered = any(
                    coarse.covers_cross_edge(earlier.op.seq, later.op.seq,
                                             req.region, req.fields)
                    for req in later.requirements)
                if not covered:
                    report.findings.append(SpyFinding(
                        "missing",
                        f"{earlier.op.name}[{earlier.point}] ⇒ "
                        f"{later.op.name}[{later.point}] is unordered"))
            if check_precision and not interferes \
                    and (earlier, later) in edge_set:
                report.findings.append(SpyFinding(
                    "spurious",
                    f"edge {earlier.op.name}[{earlier.point}] -> "
                    f"{later.op.name}[{later.point}] between independent "
                    f"tasks"))
    return report
