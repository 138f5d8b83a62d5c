"""Operational semantics of dependence analysis (paper §2, Figs. 2-3).

This module is a direct, executable transcription of the paper's formal
model:

* a *program* is a sequence of *task groups*, each a set of pairwise
  independent tasks — :func:`group_interference`, the one definition of
  that rule, which the runtime's front door asks too;
* :func:`sequential_analysis` implements ``DEP_seq`` (Fig. 3): one transition
  per task group, adding the group and its dependences on all prior tasks;
* :class:`ReplicatedAnalysis` implements ``DEP_rep`` (Fig. 2): N shards each
  hold a copy of the program, a completed set ``c_i`` and outstanding
  dependences ``d_i``, and step via the rules **Ta** (record outstanding
  dependences for the locally-owned slice ``tg(i)``), **Tb** (publish them to
  the global graph once every dependent predecessor's owner shard has
  finished analyzing it), and **Tc** (no dependences: publish immediately).

The replicated analysis is deliberately *nondeterministic*: any shard with an
enabled rule may step next.  Theorem 1 states every maximal execution yields
the same task graph as ``DEP_seq``; the property-based tests drive random
interleavings through :meth:`ReplicatedAnalysis.run` to check it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..oracle import (DependenceOracle, RegionRequirement,
                      requirements_conflict)
from .taskgraph import TaskGraph

__all__ = ["ModelTask", "TaskGroup", "Program", "group_interference",
           "sequential_analysis", "ReplicatedAnalysis", "ShardState"]

_task_ids = itertools.count()


class ModelTask:
    """A task of the formal model: an id plus its region requirements.

    ``owner`` is filled in by the sharding function before analysis begins
    (the model of §2 assumes sharding is already applied: tasks arrive as
    ``t^k``).
    """

    __slots__ = ("uid", "name", "requirements", "owner")

    def __init__(self, requirements: Sequence[RegionRequirement],
                 name: str = "", owner: Optional[int] = None):
        self.uid = next(_task_ids)
        self.name = name or f"t{self.uid}"
        self.requirements = tuple(requirements)
        self.owner = owner

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModelTask) and other.uid == self.uid

    def __repr__(self) -> str:  # pragma: no cover
        return f"ModelTask({self.name}@{self.owner})"


def group_interference(tasks: Sequence[Sequence[RegionRequirement]]
                       ) -> Optional[Tuple[int, int, int, int]]:
    """The model's well-formedness rule for a task group, given each
    task's requirements: the tasks are pairwise independent (∀ t1,t2 ∈ tg.
    t1 = t2 ∨ t1 * t2).  ``None`` when they are, else the first witness
    ``(p, q, i, j)``, ``p < q``: requirement ``i`` of task ``p`` conflicts
    with requirement ``j`` of task ``q``."""
    for p, a in enumerate(tasks):
        for q in range(p + 1, len(tasks)):
            b = tasks[q]
            for i, ra in enumerate(a):
                for j, rb in enumerate(b):
                    if requirements_conflict(ra, rb):
                        return p, q, i, j
    return None


class TaskGroup:
    """A set of pairwise-independent tasks launched together.

    Pairwise independence is the model's well-formedness condition;
    ``validate`` checks it with :func:`group_interference`.
    """

    def __init__(self, tasks: Sequence[ModelTask]):
        self.tasks: Tuple[ModelTask, ...] = tuple(tasks)
        if len({t.uid for t in self.tasks}) != len(self.tasks):
            raise ValueError("duplicate task in group")

    def validate(self) -> None:
        hit = group_interference([t.requirements for t in self.tasks])
        if hit is not None:
            raise ValueError(
                f"task group not pairwise independent: "
                f"{self.tasks[hit[0]]} vs {self.tasks[hit[1]]}")

    def slice(self, shard: int) -> Tuple[ModelTask, ...]:
        """The subset tg(i) owned by ``shard``."""
        return tuple(t for t in self.tasks if t.owner == shard)

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TaskGroup({[t.name for t in self.tasks]})"


Program = Sequence[TaskGroup]


def _cross_deps(earlier: Sequence[ModelTask], later: Sequence[ModelTask],
                oracle: DependenceOracle) -> Set[Tuple[ModelTask, ModelTask]]:
    """The ⇒× operator: dependences from ``earlier`` into ``later``."""
    return {
        (a, b) for a in earlier for b in later if oracle.depends(a, b)
    }


def sequential_analysis(program: Program,
                        oracle: DependenceOracle) -> TaskGraph:
    """``DEP_seq`` (Fig. 3): fold task groups into the graph in program order."""
    graph = TaskGraph()
    analyzed: List[ModelTask] = []
    for tg in program:
        graph.add_tasks(tg.tasks)
        graph.add_deps(_cross_deps(analyzed, tg.tasks, oracle))
        analyzed.extend(tg.tasks)
    return graph


@dataclass
class ShardState:
    """Per-shard analysis state ``s_i = (p_i, c_i, d_i)``."""

    remaining: List[TaskGroup]                    # p_i, program suffix
    completed: Set[ModelTask] = field(default_factory=set)   # c_i
    outstanding: Set[Tuple[ModelTask, ModelTask]] = field(default_factory=set)  # d_i
    # Ta must fire at most once per head group: remember whether the head's
    # dependences were already computed (an empty d_i is ambiguous on its own).
    head_scanned: bool = False


class ReplicatedAnalysis:
    """``DEP_rep`` (Fig. 2): N shards analyzing one replicated program.

    The class exposes single-step transitions so tests can drive arbitrary
    interleavings, plus :meth:`run` which applies random enabled transitions
    until quiescence.
    """

    TA, TB, TC = "Ta", "Tb", "Tc"

    def __init__(self, program: Program, num_shards: int,
                 oracle: DependenceOracle):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        for tg in program:
            for t in tg:
                if t.owner is None or not (0 <= t.owner < num_shards):
                    raise ValueError(
                        f"{t} lacks a valid owner shard (sharding must be "
                        f"applied before analysis)")
        self.oracle = oracle
        self.num_shards = num_shards
        self.shards: List[ShardState] = [
            ShardState(remaining=list(program)) for _ in range(num_shards)
        ]
        self.graph = TaskGraph()

    # -- transition rules ---------------------------------------------------------

    def _enabled_rule(self, i: int) -> Optional[str]:
        """Which rule (if any) shard ``i`` can fire next."""
        s = self.shards[i]
        if s.outstanding:
            return self.TB if self._deps_satisfied(s) else None
        if not s.remaining:
            return None
        # (`head_scanned` with empty `outstanding` cannot occur: Ta always
        # records a nonempty dependence set, which Tb clears together with
        # the flag — so reaching here means the head has not been scanned.)
        assert not s.head_scanned
        tg = s.remaining[0]
        local = tg.slice(i)
        deps = _cross_deps(sorted(s.completed, key=lambda t: t.uid), local,
                           self.oracle)
        if deps:
            return self.TA
        return self.TC

    def _deps_satisfied(self, s: ShardState) -> bool:
        """Tb premise: ∀(t^k, t) ∈ d_i, t^k ∈ c_k of its owner shard k."""
        return all(
            pred in self.shards[pred.owner].completed
            for (pred, _succ) in s.outstanding
        )

    def enabled(self) -> List[Tuple[int, str]]:
        """All (shard, rule) pairs that may fire in the current state."""
        out = []
        for i in range(self.num_shards):
            rule = self._enabled_rule(i)
            if rule is not None:
                out.append((i, rule))
        return out

    def step(self, shard: int, rule: Optional[str] = None) -> str:
        """Fire one transition on ``shard``; returns the rule applied."""
        s = self.shards[shard]
        expected = self._enabled_rule(shard)
        if expected is None:
            raise ValueError(f"shard {shard} has no enabled transition")
        if rule is not None and rule != expected:
            raise ValueError(f"rule {rule} not enabled on shard {shard} "
                             f"(expected {expected})")
        if expected == self.TA:
            self._apply_ta(shard)
        elif expected == self.TB:
            self._apply_tb(shard)
        else:
            self._apply_tc(shard)
        return expected

    def _apply_ta(self, i: int) -> None:
        s = self.shards[i]
        tg = s.remaining[0]
        local = tg.slice(i)
        deps = _cross_deps(sorted(s.completed, key=lambda t: t.uid), local,
                           self.oracle)
        assert deps, "Ta requires a nonempty dependence set"
        s.outstanding = deps
        s.head_scanned = True

    def _apply_tb(self, i: int) -> None:
        s = self.shards[i]
        assert s.outstanding and self._deps_satisfied(s)
        tg = s.remaining.pop(0)
        s.completed.update(tg.tasks)
        self.graph.add_tasks(tg.slice(i))
        self.graph.add_deps(s.outstanding)
        s.outstanding = set()
        s.head_scanned = False

    def _apply_tc(self, i: int) -> None:
        s = self.shards[i]
        tg = s.remaining.pop(0)
        s.completed.update(tg.tasks)
        self.graph.add_tasks(tg.slice(i))
        s.head_scanned = False

    # -- drivers ----------------------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """True when every shard has drained its program and published."""
        return all(not s.remaining and not s.outstanding for s in self.shards)

    def run(self, rng: Optional[random.Random] = None,
            schedule: Optional[Callable[[List[Tuple[int, str]]], Tuple[int, str]]] = None,
            max_steps: int = 10_000_000) -> TaskGraph:
        """Drive transitions until quiescence under a random (or supplied)
        scheduling policy and return the resulting task graph."""
        rng = rng or random.Random(0)
        steps = 0
        while not self.quiescent:
            choices = self.enabled()
            if not choices:
                raise RuntimeError(
                    "replicated analysis deadlocked — this contradicts "
                    "Lemma 2 and indicates corrupted shard state")
            shard, rule = schedule(choices) if schedule else rng.choice(choices)
            self.step(shard, rule)
            steps += 1
            if steps > max_steps:
                raise RuntimeError("exceeded max_steps without quiescence")
        return self.graph
