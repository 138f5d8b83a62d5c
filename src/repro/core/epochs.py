"""The epoch index under both analysis stages (paper §4.1, Fig. 9).

The coarse and the fine stage run the same Legion-style field-epoch state
machine — a write epoch and a read epoch per (region tree, field), scanned
for conflicts and then updated — over different users: whole operations
bounded by a region-tree upper bound, or point tasks with their concrete
regions.  This module holds that machinery once; each stage instantiates
it with its own :class:`ClassTable` (class key + decision function) and
keeps only what is genuinely its own.

* Epoch entries are bucketed by **interned requirement class**: all
  entries of a bucket share the decision inputs of the naive per-entry
  test, so a scan makes *one* memoized decision per bucket — a packed-int
  dict probe — instead of one oracle call per entry.
* Every entry carries the epoch's **insertion counter**.  It is strictly
  monotone per epoch, so ordering hits by it reproduces the order of the
  naive list scan exactly (the coarse stage needs that: a fence's scope
  starts from the first conflicting pair, so order is observable).
* A write **retires** the entries it dominates, whole buckets at a time:
  those whose region lies inside what was written — one region, or the
  pairwise-disjoint pieces of a group launch taken together
  (:meth:`Epoch.retire_contained`).

The index is *observationally identical* to the naive per-entry scan —
same users in the same order, same scan counts — a property pinned by the
differential tests (tests/core/test_indexed_equivalence.py against the
reference implementations in tests/helpers.py).
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, List, Optional, Set,
                    Tuple, Union)

from ..regions import (LogicalRegion, cached_region_contains,
                       register_cache_clearer)

__all__ = ["CLASS_BITS", "ClassTable", "Epoch", "FieldState",
           "entries_of", "sorted_fids"]

CLASS_BITS = 20                  # decision keys pack (bcid << 20) | qcid
_MAX_DECISIONS = 1 << 22


class ClassTable:
    """Interned requirement classes and their memoized pairwise decisions.

    ``key(req, region)`` names a requirement's *class*: exactly the inputs
    ``conflict(breq, bregion, qreq, qregion)`` reads.  Each distinct class
    is interned to a small int, and the decision for a (bucket class, query
    class) pair is computed once, from the class representatives, by the
    same call the naive per-entry loop makes — so truth values are
    identical by construction.  Region uids and field ids are never reused
    and privileges are immutable, so a decision never goes stale; the table
    is bounded only to cap memory in very long-lived processes (the service
    path), by resetting everything and bumping a generation that lazily
    invalidates every cid cached on a requirement object or an epoch bucket.
    """

    max_classes = 1 << CLASS_BITS   # resets keep cids inside the pack

    def __init__(self, tag: str, key: Callable[[Any, LogicalRegion], Hashable],
                 conflict: Callable[[Any, LogicalRegion, Any, LogicalRegion],
                                    bool]) -> None:
        self._tag = tag       # attribute caching (generation, cid) on reqs
        self._key = key
        self._conflict = conflict
        self.gen = 0
        self._ids: Dict[Hashable, int] = {}
        self._reps: List[Tuple[Any, LogicalRegion]] = []
        self.decisions: Dict[int, bool] = {}   # packed int keys
        # A region-cache clear resets the table with it (a hygiene hook).
        register_cache_clearer(self.clear)

    def clear(self) -> None:
        """Reset the table (never required for correctness: uids are never
        reused): every cached cid dies with the old generation."""
        self._ids.clear()
        del self._reps[:]
        self.decisions.clear()
        self.gen += 1

    def intern(self, req, region: LogicalRegion) -> int:
        """Class id in the current generation; never resets the table, so
        an epoch re-interning its buckets cannot be reset under itself."""
        key = self._key(req, region)
        cid = self._ids.get(key)
        if cid is None:
            cid = len(self._reps)
            self._ids[key] = cid
            self._reps.append((req, region))
        return cid

    def class_of(self, req, region: LogicalRegion) -> int:
        """Class id of a requirement, cached on the (frozen) object and
        revalidated against the table generation."""
        tag = getattr(req, self._tag, None)
        if tag is not None and tag[0] == self.gen:
            return tag[1]
        if len(self._reps) >= self.max_classes \
                and self._key(req, region) not in self._ids:
            self.clear()          # full, and this is a new class
        cid = self.intern(req, region)
        object.__setattr__(req, self._tag, (self.gen, cid))
        return cid

    def decide(self, bcid: int, qcid: int) -> bool:
        """Compute-and-memoize one (bucket, query) conflict decision from
        the class representatives — exactly the naive per-entry test."""
        hit = bool(self._conflict(*self._reps[bcid], *self._reps[qcid]))
        if len(self.decisions) >= _MAX_DECISIONS:
            self.decisions.clear()
        self.decisions[(bcid << CLASS_BITS) | qcid] = hit
        return hit


# A retirement bound: one region, or the union of pairwise-disjoint regions
# (the pieces a group launch wrote through a disjoint partition).
Bound = Union[LogicalRegion, Tuple[LogicalRegion, ...]]

# (bound key, inner region uid) -> bool, where the bound key is the region's
# uid or the tuple of the pieces' uids: a flat dict that skips the LRU
# recency shuffle of the shared PairCache on the retirement hot path.
_CONTAINS: Dict[Tuple[Hashable, int], bool] = {}
register_cache_clearer(_CONTAINS.clear)


def _union_contains(pieces: Tuple[LogicalRegion, ...],
                    inner: LogicalRegion) -> bool:
    """``inner`` lies inside the union of pairwise-disjoint ``pieces``.

    Disjoint pieces cut ``inner`` into disjoint parts, so the parts fill
    it exactly when their volumes add up to its volume — a sum of
    rectangle intersections in any dimension (point-set intersections
    for unstructured spaces); the union itself is never built."""
    space = inner.index_space
    missing = space.volume
    for piece in pieces:
        if not missing:
            break
        other = piece.index_space
        if space.structured and other.structured:
            missing -= space.rect.intersection(other.rect).volume
        else:
            missing -= len(space.point_set() & other.point_set())
    return not missing


def sorted_fids(req) -> Tuple[int, ...]:
    """Sorted field ids of a requirement, computed once per object (the
    per-op analysis loops re-visit every requirement's fields several
    times; re-sorting them dominated the loop overhead)."""
    fids = getattr(req, "_sorted_fids", None)
    if fids is None:
        fids = tuple(sorted(f.fid for f in req.fields))
        object.__setattr__(req, "_sorted_fids", fids)
    return fids


class Bucket:
    """All epoch entries sharing one requirement class."""

    __slots__ = ("cid", "req", "region", "is_reduce", "entries", "users")

    def __init__(self, cid: int, req, region: LogicalRegion) -> None:
        self.cid = cid
        self.req = req            # class representative, with its region
        self.region = region
        self.is_reduce = req.privilege.is_reduce
        # [(insertion index, op, user, req), ...] in insertion order
        self.entries: List[Tuple] = []
        self.users: List = []     # parallel: the users alone

    def without(self, op) -> "Bucket":
        """A detached copy holding only the entries of other operations."""
        live = Bucket(self.cid, self.req, self.region)
        live.entries = [e for e in self.entries if e[1] is not op]
        live.users = [e[2] for e in live.entries]
        return live


class Epoch:
    """One epoch list, bucketed by interned requirement class.

    A *user* is whatever the stage orders — an operation (coarse) or a
    point task (fine) — entered with the operation it belongs to, its
    requirement and the region that requirement is classed by.  A scan
    makes one flat-table decision per bucket and returns the buckets that
    hit; the caller folds their ``users`` into a set, or merges their
    ``entries`` by insertion index when it needs the naive scan's order.
    """

    __slots__ = ("_table", "_buckets", "_members", "_op_counts", "_next",
                 "_size", "_reduce_size", "_gen")

    def __init__(self, table: ClassTable) -> None:
        self._table = table
        self._buckets: Dict[int, Bucket] = {}
        self._members: Set[Tuple] = set()      # (user, req) for dedupe
        self._op_counts: Dict[int, int] = {}   # id(op) -> live entry count
        self._next = 0
        self._size = 0
        self._reduce_size = 0   # entries in reduce buckets (reduce_only scans)
        self._gen = table.gen

    def _refresh(self) -> None:
        """The class table was reset (generation bump): re-intern every
        bucket's class so cids stay bijective with classes."""
        table = self._table
        buckets = list(self._buckets.values())
        self._buckets = {}
        for b in buckets:
            b.cid = table.intern(b.req, b.region)
            self._buckets[b.cid] = b
        self._gen = table.gen

    def add(self, op, user, req, region: LogicalRegion,
            unique: bool = False) -> None:
        key = (user, req)
        if unique and key in self._members:
            return
        self._members.add(key)
        table = self._table
        cid = table.class_of(req, region)
        if self._gen != table.gen:
            self._refresh()
        b = self._buckets.get(cid)
        if b is None:
            b = Bucket(cid, req, region)
            self._buckets[cid] = b
        b.entries.append((self._next, op, user, req))
        b.users.append(user)
        self._next += 1
        self._size += 1
        if b.is_reduce:
            self._reduce_size += 1
        opid = id(op)
        self._op_counts[opid] = self._op_counts.get(opid, 0) + 1

    def match(self, op, req, region: LogicalRegion,
              reduce_only: bool = False) -> Tuple[int, List[Bucket]]:
        """(entries scanned, buckets whose entries all conflict) — the same
        count and the same users the naive per-entry loop reports for this
        epoch.  The returned buckets are live: read them, never mutate."""
        if reduce_only and not self._reduce_size:
            return 0, []        # no reduce entries: nothing scanned either way
        table = self._table
        qcid = table.class_of(req, region)
        if self._gen != table.gen:
            self._refresh()
        if id(op) in self._op_counts:
            return self._match_with_self(op, qcid, reduce_only)
        decisions = table.decisions
        hits: List[Bucket] = []
        for b in self._buckets.values():
            if reduce_only and not b.is_reduce:
                continue
            hit = decisions.get((b.cid << CLASS_BITS) | qcid)
            if hit is None:
                hit = table.decide(b.cid, qcid)
            if hit:
                hits.append(b)
        # Every (reduce) entry is visited, so the scan count is a size.
        return (self._reduce_size if reduce_only else self._size), hits

    def _match_with_self(self, op, qcid: int, reduce_only: bool
                         ) -> Tuple[int, List[Bucket]]:
        """Slow path preserving the naive same-op skip semantics (users of
        the op under analysis are normally never in the epochs yet; this
        guards the invariant rather than assuming it)."""
        table = self._table
        scanned = 0
        hits: List[Bucket] = []
        for b in self._buckets.values():
            if reduce_only and not b.is_reduce:
                continue
            live = b.without(op)
            scanned += len(live.users)
            hit = table.decisions.get((b.cid << CLASS_BITS) | qcid)
            if hit is None:
                hit = table.decide(b.cid, qcid)
            if hit:
                hits.append(live)
        return scanned, hits

    def retire_contained(self, bound: Bound,
                         keep_ids: Optional[Set[int]] = None) -> None:
        """Drop every entry whose region is covered by ``bound`` — the
        write-retirement rule, decided once per (bound, bucket region)
        and memoized.  ``bound`` is what was written: one region, or a
        tuple of pairwise-disjoint regions standing for their union (a
        group launch's pieces).  Group retirement spares the retiring
        launch's own users: those whose ``id`` is in ``keep_ids``."""
        if isinstance(bound, tuple):
            bkey: Hashable = tuple(r.uid for r in bound)
            decide = _union_contains
        else:
            bkey = bound.uid
            decide = cached_region_contains
        contains = _CONTAINS
        doomed = []
        for cid, b in self._buckets.items():
            key = (bkey, b.region.uid)
            hit = contains.get(key)
            if hit is None:
                hit = decide(bound, b.region)
                if len(contains) >= _MAX_DECISIONS:
                    contains.clear()
                contains[key] = hit
            if hit:
                doomed.append(cid)
        for cid in doomed:
            self._retire_bucket(cid, keep_ids)

    def _retire_bucket(self, cid: int, keep_ids: Optional[Set[int]]) -> None:
        b = self._buckets[cid]
        keep = [e for e in b.entries if id(e[2]) in keep_ids] \
            if keep_ids else []
        dropped = [e for e in b.entries if id(e[2]) not in keep_ids] \
            if keep else b.entries
        for _index, op, user, req in dropped:
            self._members.discard((user, req))
            opid = id(op)
            n = self._op_counts.get(opid, 0) - 1
            if n <= 0:
                self._op_counts.pop(opid, None)
            else:
                self._op_counts[opid] = n
        self._size -= len(dropped)
        if b.is_reduce:
            self._reduce_size -= len(dropped)
        if keep:
            b.entries = keep
            b.users = [e[2] for e in keep]
        else:
            del self._buckets[cid]

    def __len__(self) -> int:
        return self._size


class FieldState:
    """Epoch indexes for one (region-tree root, field): Legion-style."""

    __slots__ = ("write_epoch", "read_epoch")

    def __init__(self, table: ClassTable) -> None:
        self.write_epoch = Epoch(table)
        self.read_epoch = Epoch(table)

    def scan(self, op, req, region: LogicalRegion
             ) -> Tuple[int, List[List[Bucket]]]:
        """The scan rule: (entries scanned, hit buckets per probed epoch).

        Writers and reducers are checked against both epochs (a reducer
        conflicts with writers and with different-op reducers/readers);
        readers against the write epoch and the reducers parked in the
        read epoch."""
        priv = req.privilege
        if priv.writes or priv.is_reduce:
            probes = ((self.read_epoch, False), (self.write_epoch, False))
        else:
            probes = ((self.write_epoch, False), (self.read_epoch, True))
        scanned = 0
        found = []
        for epoch, reduce_only in probes:
            if epoch._size:
                n, hits = epoch.match(op, req, region, reduce_only)
                scanned += n
                if hits:
                    found.append(hits)
        return scanned, found

    def update(self, op, user, req, region: LogicalRegion,
               retire: bool = True) -> None:
        """The update rule: a write opens a new write epoch for the data it
        covers, dropping dominated users (any future conflict with them is
        transitively ordered via the writer); everything else joins the
        read epoch once.  ``retire=False`` only enters the user: the
        caller retires once for a whole group of writes (:meth:`retire`)."""
        if req.privilege.writes:
            if retire:
                self.retire(region)
            self.write_epoch.add(op, user, req, region)
        else:
            self.read_epoch.add(op, user, req, region, unique=True)

    def retire(self, bound: Bound,
               keep_ids: Optional[Set[int]] = None) -> None:
        """Drop the users of both epochs that a write of ``bound`` covers."""
        if self.read_epoch._size:
            self.read_epoch.retire_contained(bound, keep_ids)
        if self.write_epoch._size:
            self.write_epoch.retire_contained(bound, keep_ids)


def entries_of(states: Dict[Tuple[int, int], FieldState], op_ids):
    """The live entries of the operations whose ``id`` is in ``op_ids``,
    over a stage's field states: ``(state, op, user, req, region)``, each
    epoch's in insertion order."""
    for state in states.values():
        for epoch in (state.read_epoch, state.write_epoch):
            found = [(e, b.region) for b in epoch._buckets.values()
                     for e in b.entries if id(e[1]) in op_ids]
            found.sort(key=lambda hit: hit[0][0])
            for (_index, op, user, req), region in found:
                yield state, op, user, req, region
