"""Memoized region-tree predicates: the analysis hot path's fast path.

The coarse and fine stages ask the same two questions over and over —
"may these regions alias?" and "does this region contain that one?" — for
a small working set of region pairs (the partitions and subregions of the
application's handful of region trees).  Both answers are *immutable* for
a given pair: region uids are never reused, a region's index space never
changes, and region trees only grow (new partitions never change the
relationship between existing nodes).  That makes an LRU keyed on
``(region uid, region uid)`` sound forever, with no invalidation protocol.

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
           "region_contains", "clear_region_caches", "region_cache_stats",
           "register_cache_clearer"]

# Other layers keep their own uid-keyed memo tables (the analysis core's
# interned decision tables) whose soundness rests on the same "uids are
# never reused" argument.  They register a clearer here so every path
# that resets the region caches (tests, benchmarks) resets them in the
# same breath.
_extra_clearers: list = []


def register_cache_clearer(fn) -> None:
    """Run ``fn`` whenever :func:`clear_region_caches` is called."""
    _extra_clearers.append(fn)


class PairCache:
    """A bounded LRU of boolean answers keyed on region-uid pairs.

    A plain dict doubles as the recency list (insertion order): hits are
    reinserted at the tail, evictions pop the head.  Bounded so pathological
    programs (millions of transient subregions) cannot grow it without
    limit; the default is far above any working set in this repo.
    """

    __slots__ = ("_data", "maxsize", "hits", "misses")

    def __init__(self, maxsize: int = 1 << 16) -> None:
        self._data: Dict[Tuple[int, int], bool] = {}
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[int, int]):
        data = self._data
        hit = data.get(key)
        if hit is not None:
            self.hits += 1
            # Refresh recency: move to the tail of the insertion order.
            del data[key]
            data[key] = hit
        return hit

    def put(self, key: Tuple[int, int], value: bool) -> None:
        self.misses += 1
        data = self._data
        if len(data) >= self.maxsize:
            del data[next(iter(data))]
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
    """Memoized :func:`repro.regions.may_alias` (symmetric key)."""
    if a is b:
        return not a.index_space.empty
    key = (a.uid, b.uid) if a.uid <= b.uid else (b.uid, a.uid)
    hit = _alias_cache.get(key)
    if hit is not None:
        return hit
    result = may_alias(a, b)
    _alias_cache.put(key, result)
    return result


def region_contains(outer: LogicalRegion, inner: LogicalRegion) -> bool:
    """True when ``outer`` provably covers every point of ``inner``.

    Ancestry first (symbolic, exact by the region-tree superset property),
    then rectangle containment, then the explicit point-set fallback.
    """
    if outer.tree_id != inner.tree_id:
        return False
    if outer.is_ancestor_of(inner):
        return True
    if outer.index_space.structured and inner.index_space.structured:
        return outer.index_space.rect.contains_rect(inner.index_space.rect)
    return inner.index_space.point_set() <= outer.index_space.point_set()


def cached_region_contains(outer: LogicalRegion, inner: LogicalRegion) -> bool:
    """Memoized :func:`region_contains` (asymmetric key)."""
    if outer is inner:
        return True
    key = (outer.uid, inner.uid)
    hit = _contains_cache.get(key)
    if hit is not None:
        return hit
    result = region_contains(outer, inner)
    _contains_cache.put(key, result)
    return result


def clear_region_caches() -> None:
    """Drop both caches and every registered dependent table.

    Never required for correctness (uids are never reused): a hygiene hook
    for tests and benchmarks that want cold caches."""
    _alias_cache.clear()
    _contains_cache.clear()
    for fn in _extra_clearers:
        fn()


def region_cache_stats() -> Dict[str, int]:
    return {
        "alias_hits": _alias_cache.hits,
        "alias_misses": _alias_cache.misses,
        "contains_hits": _contains_cache.hits,
        "contains_misses": _contains_cache.misses,
    }
