"""Memoized region-tree predicates: the analysis hot path's fast path.

The coarse and fine stages ask the same two questions over and over —
"may these regions alias?" and "does this region contain that one?" — for
a small working set of region pairs (the partitions and subregions of the
application's handful of region trees).  Both answers are *immutable* for
a given pair: region uids are never reused, a region's index space never
changes, and region trees only grow (new partitions never change the
relationship between existing nodes).  That makes a memo keyed on
``(region uid, region uid)`` sound forever, with no invalidation protocol,
and safe to share across threads: racing writers store the same answer.
Two structured regions skip the memo: :func:`may_alias` and
:func:`region_contains` answer them with a rectangle test that costs no
more than a probe, and a program's fresh regions would only fill the
cache, execute after execute.  These two pair caches are the only region
memos that outlive a pipeline; they hold uids, never regions.  Everything else the analysis memoizes —
requirement classes, their decisions, retirement containment — belongs to
the stage instance that uses it (:class:`repro.core.epochs.ClassTable`).

Execution Templates (Mashayekhi et al.) and DePa (Westrick et al., PPoPP
'22) both rest on the same observation: control-plane decisions repeat, so
caching them is what keeps dependence machinery within its advertised
complexity class.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .region import LogicalRegion
from .tree import may_alias

__all__ = ["PairCache", "cached_may_alias", "cached_region_contains",
           "region_contains", "clear_region_caches", "region_cache_stats"]


class PairCache:
    """A bounded memo of boolean answers keyed on region-uid pairs.

    Bounded so pathological programs (millions of transient subregions)
    cannot grow it without limit: a full cache is reset — an answer never
    goes stale, so a reset costs only recomputation.  The default is far
    above any working set in this repo.  The loopback backend's rank
    threads share the cache, so every access must stay one dict call: a
    look-up followed by a delete races another thread's eviction into a
    ``KeyError``.
    """

    __slots__ = ("_data", "maxsize", "hits", "misses")

    def __init__(self, maxsize: int = 1 << 16) -> None:
        self._data: Dict[Tuple[int, int], bool] = {}
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[int, int]):
        hit = self._data.get(key)
        if hit is not None:
            self.hits += 1
        return hit

    def put(self, key: Tuple[int, int], value: bool) -> None:
        self.misses += 1
        data = self._data
        if len(data) >= self.maxsize:
            data.clear()
        data[key] = value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


_alias_cache = PairCache()
_contains_cache = PairCache()


def cached_may_alias(a: LogicalRegion, b: LogicalRegion) -> bool:
    """Memoized :func:`repro.regions.may_alias` (symmetric key).  Two
    structured regions are not memoized: their rectangle test costs no
    more than a probe, and each execute's fresh regions would only fill
    the cache."""
    if a.index_space._rect is not None and b.index_space._rect is not None:
        return may_alias(a, b)
    key = (a.uid, b.uid) if a.uid <= b.uid else (b.uid, a.uid)
    hit = _alias_cache.get(key)
    if hit is not None:
        return hit
    result = may_alias(a, b)
    _alias_cache.put(key, result)
    return result


def region_contains(outer: LogicalRegion, inner: LogicalRegion) -> bool:
    """True when ``outer`` provably covers every point of ``inner``.

    Two structured regions of one tree: rectangle containment, read
    straight off the corners (an ancestor's rectangle contains its
    descendants', so ancestry needs no walk).  Otherwise ancestry first
    (symbolic, exact by the region-tree superset property), then the
    explicit point-set fallback.
    """
    if outer.tree_id != inner.tree_id:
        return False
    ro, ri = outer.index_space._rect, inner.index_space._rect
    if ro is not None and ri is not None:
        for lo, hi in zip(ri.lo, ri.hi):
            if lo > hi:
                return True         # the empty rectangle
        if len(ro.lo) != len(ri.lo):
            return False
        for olo, ohi, ilo, ihi in zip(ro.lo, ro.hi, ri.lo, ri.hi):
            if ilo < olo or ihi > ohi:
                return False
        return True
    if outer.is_ancestor_of(inner):
        return True
    return inner.index_space.point_set() <= outer.index_space.point_set()


def cached_region_contains(outer: LogicalRegion, inner: LogicalRegion) -> bool:
    """Memoized :func:`region_contains` (asymmetric key); two structured
    regions are answered by the rectangle test, unmemoized, as in
    :func:`cached_may_alias`."""
    if outer is inner:
        return True
    if outer.index_space._rect is not None \
            and inner.index_space._rect is not None:
        return region_contains(outer, inner)
    key = (outer.uid, inner.uid)
    hit = _contains_cache.get(key)
    if hit is not None:
        return hit
    result = region_contains(outer, inner)
    _contains_cache.put(key, result)
    return result


def clear_region_caches() -> None:
    """Drop both caches and their hit counters.

    Never required for correctness (uids are never reused): a hygiene hook
    for tests and benchmarks that want cold caches.  The analysis stages'
    class tables are not process-wide, so there is nothing else to clear:
    a cold table is a fresh pipeline."""
    _alias_cache.clear()
    _contains_cache.clear()


def region_cache_stats() -> Dict[str, int]:
    return {
        "alias_hits": _alias_cache.hits,
        "alias_misses": _alias_cache.misses,
        "contains_hits": _contains_cache.hits,
        "contains_misses": _contains_cache.misses,
    }
