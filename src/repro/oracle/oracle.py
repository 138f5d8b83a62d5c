"""The pairwise dependence oracle (paper §4.1, final paragraph).

Two task calls t1(r1) and t2(r2) depend on each other exactly when, for some
pair of their region requirements:

1. the regions share at least one index point (checked symbolically via the
   region tree, falling back to geometry — :func:`repro.regions.may_alias`);
2. the requirements access at least one field in common; and
3. the privileges conflict (at least one writes, or they reduce with
   different operators).

This is the standard Legion dynamic dependence analysis; DCR reuses it
unmodified, both in the sequential semantics (the model's "oracle") and in
the fine analysis stage.
"""

from __future__ import annotations

from typing import Sequence

from ..regions import cached_may_alias, may_alias
from .requirement import RegionRequirement

__all__ = ["requirements_conflict", "requirements_conflict_uncached",
           "tasks_interfere", "DependenceOracle"]


def requirements_conflict(a: RegionRequirement, b: RegionRequirement) -> bool:
    """True when two region requirements must be ordered.

    The privilege test hits the conflict table, the field test compares
    precomputed fid sets, and the alias test goes through the region-pair
    LRU — each leg is memoized because the fine stage asks this question
    once per (point, epoch entry) pair on the hot path.
    """
    if not a.privilege.conflicts_with(b.privilege):
        return False
    if not (a.field_ids() & b.field_ids()):
        return False
    return cached_may_alias(a.region, b.region)


def requirements_conflict_uncached(a: RegionRequirement,
                                   b: RegionRequirement) -> bool:
    """The same predicate with no memoization anywhere on the path.

    Kept as the reference the differential tests compare the indexed
    analysis against (tests/helpers.py).
    """
    if not a.privilege._conflicts_uncached(b.privilege):
        return False
    if not (frozenset(f.fid for f in a.fields)
            & frozenset(f.fid for f in b.fields)):
        return False
    return may_alias(a.region, b.region)


def tasks_interfere(
    reqs_a: Sequence[RegionRequirement], reqs_b: Sequence[RegionRequirement]
) -> bool:
    """True when any requirement pair across the two tasks conflicts."""
    return any(
        requirements_conflict(ra, rb) for ra in reqs_a for rb in reqs_b
    )


class DependenceOracle:
    """Memoizing wrapper: the ``*`` / ``⇒`` relation of the formal model.

    The model of §2 assumes an oracle answering "are t1 and t2 independent?".
    Tasks are identified by objects exposing ``.requirements``; results are
    cached per unordered pair, since interference is symmetric.
    """

    def __init__(self) -> None:
        self._cache: dict = {}
        self.queries = 0          # total oracle consultations (incl. cached)
        self.misses = 0           # actual pairwise requirement scans

    def interfere(self, task_a, task_b) -> bool:
        """Symmetric interference test with memoization."""
        self.queries += 1
        key = (id(task_a), id(task_b)) if id(task_a) <= id(task_b) \
            else (id(task_b), id(task_a))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.misses += 1
        result = tasks_interfere(task_a.requirements, task_b.requirements)
        self._cache[key] = result
        return result

    def independent(self, task_a, task_b) -> bool:
        """The ``t1 * t2`` relation: no ordering needed."""
        return not self.interfere(task_a, task_b)

    def depends(self, earlier, later) -> bool:
        """The ``earlier ⇒ later`` relation, given program order."""
        return self.interfere(earlier, later)
