"""Task graphs: the output of dependence analysis.

A task graph G = <T, D> is a DAG whose vertices are tasks and whose directed
edges are dependences (paper §2).  Both the sequential and the replicated
analyses produce one; Theorem 1 says they are equal, and the test suite
checks exactly that via :meth:`TaskGraph.__eq__`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import (Dict, FrozenSet, Hashable, Iterable, List, Optional,
                    Sequence, Set, Tuple)

__all__ = ["TaskGraph", "PointGraph"]


class TaskGraph:
    """A DAG of tasks with dependence edges ``(earlier, later)``."""

    def __init__(self) -> None:
        self.tasks: Set[Hashable] = set()
        self.deps: Set[Tuple[Hashable, Hashable]] = set()

    # -- construction ---------------------------------------------------------

    def add_task(self, task: Hashable) -> None:
        self.tasks.add(task)

    def add_tasks(self, tasks: Iterable[Hashable]) -> None:
        self.tasks.update(tasks)

    def add_dep(self, earlier: Hashable, later: Hashable) -> None:
        self.deps.add((earlier, later))

    def add_deps(self, deps: Iterable[Tuple[Hashable, Hashable]]) -> None:
        self.deps.update(deps)

    # -- queries ----------------------------------------------------------------

    def predecessors(self, task: Hashable) -> Set[Hashable]:
        return {a for (a, b) in self.deps if b == task}

    def successors(self, task: Hashable) -> Set[Hashable]:
        return {b for (a, b) in self.deps if a == task}

    def in_degree(self) -> Dict[Hashable, int]:
        deg: Dict[Hashable, int] = {t: 0 for t in self.tasks}
        for _, b in self.deps:
            deg[b] += 1
        return deg

    def topological_levels(self) -> List[FrozenSet[Hashable]]:
        """Antichain levels: level k holds tasks whose longest dependence
        chain from a root has length k.  The number of levels is the graph's
        critical-path length — the lower bound on parallel execution steps.
        """
        succ: Dict[Hashable, List[Hashable]] = defaultdict(list)
        deg = self.in_degree()
        for a, b in self.deps:
            succ[a].append(b)
        frontier = deque(t for t, d in deg.items() if d == 0)
        level: Dict[Hashable, int] = {t: 0 for t in frontier}
        order: List[Hashable] = []
        while frontier:
            t = frontier.popleft()
            order.append(t)
            for nxt in succ[t]:
                level[nxt] = max(level.get(nxt, 0), level[t] + 1)
                deg[nxt] -= 1
                if deg[nxt] == 0:
                    frontier.append(nxt)
        if len(order) != len(self.tasks):
            raise ValueError("task graph contains a cycle")
        out: Dict[int, Set[Hashable]] = defaultdict(set)
        for t, lvl in level.items():
            out[lvl].add(t)
        return [frozenset(out[k]) for k in sorted(out)]

    def critical_path_length(self) -> int:
        """Length (in tasks) of the longest dependence chain."""
        return len(self.topological_levels()) if self.tasks else 0

    def is_acyclic(self) -> bool:
        try:
            self.topological_levels()
            return True
        except ValueError:
            return False

    # -- transformations ----------------------------------------------------------

    def transitive_reduction(self) -> "TaskGraph":
        """Remove redundant transitive edges (paper §2, last paragraph).

        If t1 ⇒ t2 and t2 ⇒ t3 are present, t1 ⇒ t3 adds no scheduling
        constraint.  Returns a new graph; O(V·E) — fine for the sizes the
        formal-model tests use.
        """
        succ: Dict[Hashable, Set[Hashable]] = defaultdict(set)
        for a, b in self.deps:
            succ[a].add(b)
        # reachable[t] = tasks reachable from t via >= 2 edges
        reduced = TaskGraph()
        reduced.add_tasks(self.tasks)
        reach_cache: Dict[Hashable, Set[Hashable]] = {}

        def reachable(t: Hashable) -> Set[Hashable]:
            if t in reach_cache:
                return reach_cache[t]
            out: Set[Hashable] = set()
            for nxt in succ[t]:
                out.add(nxt)
                out |= reachable(nxt)
            reach_cache[t] = out
            return out

        for a, b in self.deps:
            via_other = any(
                b in reachable(mid) for mid in succ[a] if mid != b)
            if not via_other:
                reduced.add_dep(a, b)
        return reduced

    # -- equality --------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return self.tasks == other.tasks and self.deps == other.deps

    def __hash__(self) -> int:  # pragma: no cover - graphs used as values only
        return hash((frozenset(self.tasks), frozenset(self.deps)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"TaskGraph(|T|={len(self.tasks)}, |D|={len(self.deps)})"


class PointGraph(TaskGraph):
    """The fine stage's point graph, derived from its edge store.

    Each point task carries its predecessors (``preds``); this graph reads
    the first ``size`` tasks of the stage's analysis-order list.  ``tasks``
    and ``deps`` are built on first use and are then ordinary sets, which a
    caller may edit, so taking the task count never builds the edge set.
    Code that needs a task's predecessors in O(degree) reads its ``preds``.
    """

    def __init__(self, tasks: Sequence[Hashable], size: int) -> None:
        self._order = tasks
        self.size = size
        self._tasks: Optional[Set[Hashable]] = None
        self._deps: Optional[Set[Tuple[Hashable, Hashable]]] = None

    def _points(self) -> Sequence[Hashable]:
        order = self._order
        return order if len(order) == self.size else order[:self.size]

    @property
    def tasks(self) -> Set[Hashable]:  # type: ignore[override]
        if self._tasks is None:
            self._tasks = set(self._points())
        return self._tasks

    @property
    def deps(self) -> Set[Tuple[Hashable, Hashable]]:  # type: ignore[override]
        if self._deps is None:
            self._deps = {(prev, t) for t in self._points()
                          for prev in t.preds}
        return self._deps
