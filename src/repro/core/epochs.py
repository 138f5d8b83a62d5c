"""The epoch index under both analysis stages (paper §4.1, Fig. 9).

The coarse and the fine stage run the same Legion-style field-epoch state
machine — a write epoch and a read epoch per (region tree, field), scanned
for conflicts and then updated — over different users: whole operations
bounded by a region-tree upper bound, or point tasks with their concrete
regions.  This module holds that machinery once; each stage instance
builds its own :class:`ClassTable` (class key + decision function) and
keeps only what is genuinely its own.  A table, with its decision,
conflict and containment memos, lives and dies with the stage that built
it: nothing here is shared between pipelines or outlives one.

* An epoch **entry is a launch**: the users one group launch enters for
  one (requirement, field), with their requirements, as one entry; the
  coarse stage's per-op users are entries of width 1.  Entries are
  bucketed by **launch class** — the interned tuple of the class ids of
  their points' requirements — so every entry of a bucket shares the
  decision inputs of the naive per-user test, point by point.
* A scan is one memoised probe per bucket: (bucket launch class, query
  launch class) maps to the (query point, bucket point) pairs whose
  requirement classes conflict, each computed once from the per-pair
  decisions — the naive test's own call, so truth values are identical.
* Every entry carries the epoch's **insertion counter**.  It is strictly
  monotone per epoch, so ordering entries by it reproduces the order of
  the naive list scan exactly (the coarse stage needs that: a fence's
  scope starts from the first conflicting pair, so order is observable).
* A write **retires** what it dominates, a launch at a time: one memoised
  (bound, launch class) probe per bucket names the positions whose region
  lies inside what was written — one region, or the pairwise-disjoint
  pieces of a group launch taken together — and those points leave every
  entry of the bucket; the rest of an entry stays, as a smaller entry of
  its own launch class (:meth:`Epoch.retire_contained`).

The index is *observationally identical* to the naive per-user scan —
same users, same scan counts, the coarse stage's order — a property
pinned by the differential tests (tests/core/test_indexed_equivalence.py
against the reference implementations in tests/helpers.py).
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Hashable, Iterator, List, Optional,
                    Set, Tuple, Union)

from ..regions import LogicalRegion, cached_region_contains

__all__ = ["CLASS_BITS", "ClassTable", "Epoch", "FieldState",
           "entries_of", "sorted_fids"]

CLASS_BITS = 20                  # memo keys pack (bucket << 20) | query
_MAX_DECISIONS = 1 << 22         # a full memo is cleared: recomputation only
_table_ids = itertools.count()   # process-unique table tokens

# (query point, bucket point) pairs whose requirement classes conflict
Pairs = Tuple[Tuple[int, int], ...]


class ClassTable:
    """Interned requirement and launch classes, and their memoized
    decisions.

    ``key(req, region)`` names a requirement's *class*: exactly the inputs
    ``conflict(breq, bregion, qreq, qregion)`` reads.  Each distinct class
    is interned to a small int, and the decision for a (bucket class, query
    class) pair is computed once, from the class representatives, by the
    same call the naive per-entry loop makes — so truth values are
    identical by construction.  A *launch class* is the interned tuple of
    the class ids of one requirement's points; every memo an epoch probes
    is keyed by launch classes and derived from the per-pair decisions.
    Region uids and field ids are never reused and privileges are
    immutable, so no decision ever goes stale.

    Each analysis stage builds its own table, so the table lives and dies
    with its pipeline and no other thread writes to it.  The cid cached on
    a requirement names the table that wrote it: a requirement another
    pipeline classed is re-interned here, never trusted.
    """

    max_classes = 1 << CLASS_BITS   # memo keys pack two ids

    def __init__(self, tag: str, key: Callable[[Any, LogicalRegion], Hashable],
                 conflict: Callable[[Any, LogicalRegion, Any, LogicalRegion],
                                    bool]) -> None:
        self._tag = tag       # attribute caching (token, cid) on reqs
        self._token = next(_table_ids)
        self._key = key
        self._conflict = conflict
        self._ids: Dict[Hashable, int] = {}
        self._reps: List[Tuple[Any, LogicalRegion]] = []
        self.decisions: Dict[int, bool] = {}   # packed (bcid, qcid)
        # packed (bcid, qcid) of a conflict -> (query region, sorted field
        # ids of both sides): what a fence must reach (see :meth:`probes`)
        self._probes: Dict[int, Tuple[LogicalRegion, Tuple[int, ...]]] = {}
        self._launch_ids: Dict[Tuple[int, ...], int] = {}
        self._launch_reps: List[Tuple[int, ...]] = []
        # packed (bucket launch class, query launch class) -> Pairs
        self.conflicts: Dict[int, Pairs] = {}
        # packed (bound key, launch class) -> the positions whose region the
        # bound contains; a bound key is a region's uid, or ``~lcid`` for the
        # union of the pieces of launch class ``lcid``
        self.contains: Dict[int, Tuple[int, ...]] = {}

    def intern(self, req, region: LogicalRegion) -> int:
        """Class id of ``(req, region)``; a new class past
        :attr:`max_classes` would collide in the packed decision keys, so
        it is an error."""
        key = self._key(req, region)
        cid = self._ids.get(key)
        if cid is None:
            cid = len(self._reps)
            if cid >= self.max_classes:
                raise OverflowError(
                    f"{self._tag}: more than {self.max_classes} requirement "
                    f"classes in one analysis")
            self._ids[key] = cid
            self._reps.append((req, region))
        return cid

    def class_of(self, req, region: LogicalRegion) -> int:
        """Class id of a requirement, cached on the (frozen) object under
        this table's token."""
        tag = getattr(req, self._tag, None)
        if tag is not None and tag[0] == self._token:
            return tag[1]
        cid = self.intern(req, region)
        object.__setattr__(req, self._tag, (self._token, cid))
        return cid

    def probes(self, breqs, qreqs
               ) -> List[Tuple[LogicalRegion, Tuple[int, ...]]]:
        """For each ``(breq, qreq)`` pair of two requirement lists whose
        decision is a conflict, in nested order, the data a fence must
        reach to order it: ``qreq``'s region and the sorted ids of both
        requirements' fields.  One call for all of a fine edge's pairs,
        each requirement classed by its own region (tags read inline as in
        :meth:`launch_class`), each probe memoized per class pair."""
        tag, token, decisions = self._tag, self._token, self.decisions
        probes = self._probes
        qcids = []
        for req in qreqs:
            cached = getattr(req, tag, None)
            qcids.append(cached[1] if cached is not None
                         and cached[0] == token
                         else self.class_of(req, req.region))
        found = []
        for breq in breqs:
            cached = getattr(breq, tag, None)
            bcid = cached[1] if cached is not None and cached[0] == token \
                else self.class_of(breq, breq.region)
            bkey = bcid << CLASS_BITS
            for qreq, qcid in zip(qreqs, qcids):
                key = bkey | qcid
                hit = decisions.get(key)
                if hit is None:
                    hit = self.decide(bcid, qcid)
                if hit:
                    probe = probes.get(key)
                    if probe is None:
                        probe = probes[key] = (qreq.region, tuple(sorted(
                            set(sorted_fids(qreq)) | set(sorted_fids(breq)))))
                    found.append(probe)
        return found

    def decide(self, bcid: int, qcid: int) -> bool:
        """Compute-and-memoize one (bucket, query) conflict decision from
        the class representatives — exactly the naive per-entry test."""
        hit = bool(self._conflict(*self._reps[bcid], *self._reps[qcid]))
        if len(self.decisions) >= _MAX_DECISIONS:
            self.decisions.clear()
        self.decisions[(bcid << CLASS_BITS) | qcid] = hit
        return hit

    def launch_of(self, cids: Tuple[int, ...]) -> int:
        """Launch class id of a tuple of class ids.  Past
        :attr:`max_classes` it would collide in the packed memo keys, so
        it is an error, as in :meth:`intern`."""
        lcid = self._launch_ids.get(cids)
        if lcid is None:
            lcid = len(self._launch_reps)
            if lcid >= self.max_classes:
                raise OverflowError(
                    f"{self._tag}: more than {self.max_classes} launch "
                    f"classes in one analysis")
            self._launch_ids[cids] = lcid
            self._launch_reps.append(cids)
        return lcid

    def launch_class(self, reqs) -> int:
        """Launch class id of one requirement's point requirements, each
        classed by its own region."""
        tag, token = self._tag, self._token
        cids = []
        for req in reqs:
            cached = getattr(req, tag, None)
            cids.append(cached[1] if cached is not None
                        and cached[0] == token
                        else self.class_of(req, req.region))
        return self.launch_of(tuple(cids))

    def single(self, req, region: LogicalRegion) -> int:
        """Launch class id of one requirement classed by ``region``: a
        width-1 entry (a coarse user, or one point entered alone)."""
        return self.launch_of((self.class_of(req, region),))

    def conflicts_of(self, blcid: int, qlcid: int) -> Pairs:
        """Compute-and-memoize the (query point, bucket point) pairs of two
        launch classes whose decision is a conflict, query point major —
        each from the per-pair :attr:`decisions`, so the truth values are
        those of :meth:`decide` by construction."""
        decisions = self.decisions
        bcids = self._launch_reps[blcid]
        pairs = []
        for i, qcid in enumerate(self._launch_reps[qlcid]):
            for j, bcid in enumerate(bcids):
                hit = decisions.get((bcid << CLASS_BITS) | qcid)
                if hit is None:
                    hit = self.decide(bcid, qcid)
                if hit:
                    pairs.append((i, j))
        if len(self.conflicts) >= _MAX_DECISIONS:
            self.conflicts.clear()
        found = self.conflicts[(blcid << CLASS_BITS) | qlcid] = tuple(pairs)
        return found

    def covered(self, key: int, bound: Union[LogicalRegion, int],
                lcid: int) -> Tuple[int, ...]:
        """Compute-and-memoize under ``key`` the positions of launch class
        ``lcid`` whose region ``bound`` contains: one region, or (an int)
        the union of the pairwise-disjoint pieces of that launch class."""
        reps = self._reps
        if isinstance(bound, int):
            pieces = tuple(dict.fromkeys(
                [reps[c][1] for c in self._launch_reps[bound]]))
            gone = tuple([j for j, c in enumerate(self._launch_reps[lcid])
                          if _union_contains(pieces, reps[c][1])])
        else:
            gone = tuple([j for j, c in enumerate(self._launch_reps[lcid])
                          if cached_region_contains(bound, reps[c][1])])
        if len(self.contains) >= _MAX_DECISIONS:
            self.contains.clear()
        self.contains[key] = gone
        return gone

    def without(self, lcid: int, gone: Tuple[int, ...]) -> int:
        """Launch class of ``lcid`` with the positions ``gone`` removed."""
        drop = set(gone)
        return self.launch_of(tuple([c for j, c in
                                     enumerate(self._launch_reps[lcid])
                                     if j not in drop]))


def _union_contains(pieces: Tuple[LogicalRegion, ...],
                    inner: LogicalRegion) -> bool:
    """``inner`` lies inside the union of pairwise-disjoint ``pieces``.

    Disjoint pieces cut ``inner`` into disjoint parts, so the parts fill
    it exactly when their volumes add up to its volume — a sum of
    rectangle intersections in any dimension, read off the corners
    (point-set intersections for unstructured spaces); the union itself is
    never built."""
    space = inner.index_space
    rect = space._rect
    missing = space.volume
    for piece in pieces:
        if not missing:
            break
        other = piece.index_space._rect
        if rect is not None and other is not None:
            if len(other.lo) != len(rect.lo):
                continue        # only an empty piece has another dimension
            cut = 1
            for alo, ahi, blo, bhi in zip(rect.lo, rect.hi,
                                          other.lo, other.hi):
                lo = alo if alo > blo else blo
                hi = ahi if ahi < bhi else bhi
                cut = cut * (hi - lo + 1) if hi >= lo else 0
            missing -= cut
        else:
            missing -= len(space.point_set()
                           & piece.index_space.point_set())
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


# One launch's users for one (requirement, field):
# (insertion index, op, users, their requirements), users in launch order.
Entry = Tuple[int, Any, Tuple, Tuple]


class Bucket:
    """All epoch entries sharing one launch class."""

    __slots__ = ("lcid", "is_reduce", "entries")

    def __init__(self, lcid: int, is_reduce: bool) -> None:
        self.lcid = lcid
        self.is_reduce = is_reduce
        self.entries: List[Entry] = []


class Epoch:
    """One epoch list of launch entries, bucketed by launch class.

    A *user* is whatever the stage orders — an operation (coarse) or a
    point task (fine) — entered with the operation it belongs to and its
    requirement; a launch's users for one requirement enter as one entry.
    A scan makes one memoised probe per bucket and returns, per bucket
    that some point hits, its entries and the conflicting (query point,
    bucket point) pairs.  A *read* epoch holds each ``(user, req)`` once;
    a write epoch does not dedupe.  Sizes count users, as the naive list
    holds them.
    """

    __slots__ = ("_table", "_buckets", "_dedupe", "_op_counts", "_next",
                 "_size", "_reduce_size")

    def __init__(self, table: ClassTable, dedupe: bool = False) -> None:
        self._table = table
        self._buckets: Dict[int, Bucket] = {}
        self._dedupe = dedupe
        self._op_counts: Dict[int, int] = {}   # id(op) -> live users
        self._next = 0
        self._size = 0
        self._reduce_size = 0   # users in reduce buckets (reduce_only scans)

    def add(self, op, users: Tuple, reqs: Tuple, lcid: int) -> None:
        """Enter one launch's ``users`` with their requirements ``reqs``
        (launch class ``lcid``) as one entry.  A read epoch first drops
        the ``(user, req)`` pairs it already holds — only users of ``op``
        itself can equal them, so a launch whose op has no entry here
        skips the check."""
        counts = self._op_counts
        opid = id(op)
        if self._dedupe and opid in counts:
            users, reqs, lcid = self._unheld(op, users, reqs, lcid)
            if not users:
                return
        b = self._buckets.get(lcid)
        if b is None:
            b = self._buckets[lcid] = Bucket(lcid,
                                             reqs[0].privilege.is_reduce)
        b.entries.append((self._next, op, users, reqs))
        self._next += 1
        n = len(users)
        self._size += n
        if b.is_reduce:
            self._reduce_size += n
        counts[opid] = counts.get(opid, 0) + n

    def _unheld(self, op, users: Tuple, reqs: Tuple, lcid: int):
        held: Set[Tuple] = set()
        for b in self._buckets.values():
            for e in b.entries:
                if e[1] is op:
                    held.update(zip(e[2], e[3]))
        gone = tuple([j for j, pair in enumerate(zip(users, reqs))
                      if pair in held])
        if not gone:
            return users, reqs, lcid
        if len(gone) == len(users):
            return (), (), lcid
        drop = set(gone)
        return (tuple([u for j, u in enumerate(users) if j not in drop]),
                tuple([r for j, r in enumerate(reqs) if j not in drop]),
                self._table.without(lcid, gone))

    def match(self, op, lcid: int, reduce_only: bool = False
              ) -> Tuple[int, List[Tuple[List[Entry], Pairs]]]:
        """Every point of a query launch (launch class ``lcid``) against
        the epoch: (users each point scans, ``(entries, pairs)`` per
        bucket some point conflicts with), the same users and the same
        count the naive per-user loop reports for each point.  Entries of
        ``op`` itself are skipped, as the naive loop skips them.  The
        returned entry lists may be live: read them, never mutate."""
        if reduce_only and not self._reduce_size:
            return 0, []        # no reduce entries: nothing scanned either way
        table = self._table
        conflicts = table.conflicts
        own = id(op) in self._op_counts
        scanned = self._reduce_size if reduce_only else self._size
        found = []
        for b in self._buckets.values():
            if reduce_only and not b.is_reduce:
                continue
            entries = b.entries
            if own:
                entries = [e for e in entries if e[1] is not op]
                scanned -= (len(b.entries) - len(entries)) \
                    * len(b.entries[0][2])
                if not entries:
                    continue
            pairs = conflicts.get((b.lcid << CLASS_BITS) | lcid)
            if pairs is None:
                pairs = table.conflicts_of(b.lcid, lcid)
            if pairs:
                found.append((entries, pairs))
        return scanned, found

    def retire_contained(self, key: int, bound: Union[LogicalRegion, int],
                         keep: Optional[Set[int]] = None) -> None:
        """Drop every user whose region is covered by ``bound`` — the
        write-retirement rule, decided once per (bound, launch class) and
        memoized under ``key`` (see :attr:`ClassTable.contains`).
        ``bound`` is what was written: one region, or the launch class
        whose pairwise-disjoint pieces stand for their union (a group
        launch's pieces).  Group retirement spares the retiring launch's
        own entries: those whose first user's ``id`` is in ``keep``."""
        table = self._table
        contains = table.contains
        key <<= CLASS_BITS
        doomed = []
        for lcid, b in self._buckets.items():
            gone = contains.get(key | lcid)
            if gone is None:
                gone = table.covered(key | lcid, bound, lcid)
            if gone:
                doomed.append((b, gone))
        for b, gone in doomed:
            self._retire(b, gone, keep)

    def _retire(self, b: Bucket, gone: Tuple[int, ...],
                keep: Optional[Set[int]]) -> None:
        """Take the users at positions ``gone`` out of every entry of
        ``b`` (but ``keep``'s); what is left of an entry moves, index and
        order kept, to the bucket of its smaller launch class."""
        table = self._table
        whole = len(gone) == len(b.entries[0][2])
        drop = set(gone)
        stay: List[Entry] = []
        moved: List[Entry] = []
        counts = self._op_counts
        dropped = 0
        for e in b.entries:
            if keep and id(e[2][0]) in keep:
                stay.append(e)
                continue
            dropped += len(gone)
            opid = id(e[1])
            n = counts[opid] - len(gone)
            if n:
                counts[opid] = n
            else:
                del counts[opid]
            if not whole:
                users, reqs = e[2], e[3]
                moved.append((e[0], e[1],
                              tuple([u for j, u in enumerate(users)
                                     if j not in drop]),
                              tuple([r for j, r in enumerate(reqs)
                                     if j not in drop])))
        self._size -= dropped
        if b.is_reduce:
            self._reduce_size -= dropped
        if stay:
            b.entries = stay
        else:
            del self._buckets[b.lcid]
        if moved:
            lcid = table.without(b.lcid, gone)
            rest = self._buckets.get(lcid)
            if rest is None:
                rest = self._buckets[lcid] = Bucket(lcid, b.is_reduce)
            if rest.entries and rest.entries[-1][0] > moved[0][0]:
                moved = sorted(rest.entries + moved)   # unique indices lead
                rest.entries = moved
            else:
                rest.entries.extend(moved)

    def entries(self) -> Iterator[Tuple[int, Any, Tuple, Tuple, int]]:
        """``(index, op, users, reqs, launch class)`` of every entry, in
        insertion order."""
        found = [(e, b.lcid) for b in self._buckets.values()
                 for e in b.entries]
        found.sort(key=lambda hit: hit[0][0])
        for (index, op, users, reqs), lcid in found:
            yield index, op, users, reqs, lcid

    def __iter__(self) -> Iterator[Tuple[int, Any, Any, Any]]:
        """``(index, op, user, req)`` of every live user, in insertion
        order (a launch's users in launch order under its entry's index)."""
        for index, op, users, reqs, _lcid in self.entries():
            for user, req in zip(users, reqs):
                yield index, op, user, req

    def check_invariants(self) -> None:
        """Every bucket holds entries, each as wide as its launch class,
        in insertion order (test hook)."""
        table = self._table
        for lcid, b in self._buckets.items():
            assert b.entries and b.lcid == lcid, "empty or misfiled bucket"
            width = len(table._launch_reps[lcid])
            assert all(len(e[2]) == len(e[3]) == width for e in b.entries)
            assert [e[0] for e in b.entries] == \
                sorted(e[0] for e in b.entries)

    def __len__(self) -> int:
        return self._size


class FieldState:
    """Epoch indexes for one (region-tree root, field): Legion-style."""

    __slots__ = ("write_epoch", "read_epoch")

    def __init__(self, table: ClassTable) -> None:
        self.write_epoch = Epoch(table)
        self.read_epoch = Epoch(table, dedupe=True)

    def probes(self, priv) -> Tuple[Tuple[Epoch, bool], ...]:
        """The scan rule: the ``(epoch, reduce_only)`` pairs a requirement
        of privilege ``priv`` is checked against, in scan order.

        Writers and reducers are checked against both epochs (a reducer
        conflicts with writers and with different-op reducers/readers);
        readers against the write epoch and the reducers parked in the
        read epoch."""
        if priv.writes or priv.is_reduce:
            return ((self.read_epoch, False), (self.write_epoch, False))
        return ((self.write_epoch, False), (self.read_epoch, True))

    def scan(self, op, lcid: int, priv
             ) -> Tuple[int, List[List[Tuple[List[Entry], Pairs]]]]:
        """(users each query point scans, :meth:`Epoch.match` hits per
        probed epoch) under :meth:`probes`."""
        scanned = 0
        found = []
        for epoch, reduce_only in self.probes(priv):
            if epoch._size:
                n, hits = epoch.match(op, lcid, reduce_only)
                scanned += n
                if hits:
                    found.append(hits)
        return scanned, found

    def update(self, op, users: Tuple, reqs: Tuple, lcid: int,
               bound: Optional[LogicalRegion] = None) -> None:
        """The update rule: a write opens a new write epoch for the data it
        covers, dropping dominated users (any future conflict with them is
        transitively ordered via the writer); everything else joins the
        read epoch once.  A write retires under ``bound`` first; without
        one it only enters its users: the caller retires once for a whole
        group of writes (:meth:`retire`)."""
        if reqs[0].privilege.writes:
            if bound is not None:
                self.retire(bound.uid, bound)
            self.write_epoch.add(op, users, reqs, lcid)
        else:
            self.read_epoch.add(op, users, reqs, lcid)

    def retire(self, key: int, bound: Union[LogicalRegion, int],
               keep: Optional[Set[int]] = None) -> None:
        """Drop the users of both epochs that a write of ``bound`` covers
        (see :meth:`Epoch.retire_contained`)."""
        if self.read_epoch._size:
            self.read_epoch.retire_contained(key, bound, keep)
        if self.write_epoch._size:
            self.write_epoch.retire_contained(key, bound, keep)


def entries_of(states: Dict[Tuple[int, int], FieldState], op_ids):
    """The live entries of the operations whose ``id`` is in ``op_ids``,
    over a stage's field states: ``(state, op, users, reqs, launch
    class)``, each epoch's in insertion order."""
    for state in states.values():
        for epoch in (state.read_epoch, state.write_epoch):
            for _index, op, users, reqs, lcid in epoch.entries():
                if id(op) in op_ids:
                    yield state, op, users, reqs, lcid
