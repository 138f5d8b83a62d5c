"""Control-determinism checking (paper §3).

DCR requires all shards to make the *same sequence of runtime API calls*
("control determinism").  The check: for every API call from a shard of a
replicated task, compute a 128-bit hash capturing the call and its actual
arguments, then verify via an (asynchronous, batched) all-reduce that all
shards produced identical hashes.  On mismatch the runtime aborts with an
error naming the first divergent operation — the paper reports this is
sufficient for debugging.  With ``localize=True`` the monitor goes further:
it allgathers the per-call digests of the failed window and binary-searches
the first divergent call, attaching a :class:`DivergenceDiagnosis` naming
the culprit shard(s) — the foundation the recovery policies in
:mod:`repro.resilience` build on.

Hashing detail: :meth:`ShardHasher.record` encodes a call's whole argument
tree in one pass — scalars by value and type, containers recursively, and
NumPy arrays at any depth by dtype, shape and a 128-bit digest of their
bytes read in place, so the check never pays per element.  Raw Python
identities differ between shards even for logically identical resources,
so runtime resources (regions, partitions, fields, futures...) are
*interned* into shard-local ids in first-use order, which control
determinism makes identical across shards; any other object is interned
the same way, i.e. by identity, not content.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (Any, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..faults.injector import FaultInjector, ShardCrash
from ..obs.events import (CAT_DETERMINISM, CONTROL_SHARD, EV_DET_CHECK,
                          EV_DET_LOCALIZE)
from ..obs.profiler import Profiler, get_profiler
from .collectives import Collectives, ScheduledCollectives

__all__ = ["ControlDeterminismViolation", "DivergenceDiagnosis",
           "ShardHasher", "DeterminismMonitor", "stream_digest",
           "locate_divergence"]


def stream_digest(calls: Sequence[int]) -> int:
    """128-bit digest of a sequence of per-call digests.

    The canonical "control-determinism hash" of a call stream: used for
    window checks here, and by the gang backends (:mod:`repro.dist`) to
    compare whole per-shard streams across process boundaries — so every
    backend folds digests identically.
    """
    acc = hashlib.blake2b(digest_size=16)
    for d in calls:
        acc.update(d.to_bytes(16, "little"))
    return int.from_bytes(acc.digest(), "little")


def _majority(digests: Sequence[int]) -> int:
    """The most common digest; ties break toward the lowest shard id's
    digest, so a 1-vs-1 split blames the higher shard."""
    return max(digests, key=digests.count)


def locate_divergence(shard_ids: Sequence[int],
                      per_call: Sequence[Sequence[int]],
                      descriptions: Sequence[Sequence[str]],
                      call_counts: Sequence[int],
                      start: int, count: int) -> DivergenceDiagnosis:
    """Binary-search the first divergent call of a mismatched window.

    Pure function over already-gathered per-shard data (the monitor
    gathers it with one all-gather, whatever it runs over).  ``per_call``
    holds each shard's call digests for ``[start, start + count)`` and
    ``descriptions`` the matching call descriptions.

    Individual call digests can re-coincide after a divergence, so the
    search runs over *chained prefix* digests (prefix[i] folds in calls
    [0, i]), which are monotone: once the first differing call is
    included, every longer prefix disagrees too.
    """
    prefixes: List[List[int]] = []
    for calls in per_call:
        acc = hashlib.blake2b(digest_size=16)
        row: List[int] = []
        for d in calls:
            acc.update(d.to_bytes(16, "little"))
            row.append(int.from_bytes(acc.digest(), "little"))
        prefixes.append(row)
    lo, hi = 0, count - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if len({row[mid] for row in prefixes}) > 1:
            hi = mid
        else:
            lo = mid + 1
    off = lo
    seq = start + off
    digests = [calls[off] for calls in per_call]
    majority = _majority(digests)
    divergent = tuple(s for s, d in zip(shard_ids, digests)
                      if d != majority)
    return DivergenceDiagnosis(
        seq=seq,
        shard_ids=tuple(shard_ids),
        shard_digests=tuple(digests),
        descriptions=tuple(descr[off] for descr in descriptions),
        divergent_shards=divergent,
        majority_digest=majority,
        call_counts=tuple(call_counts),
        window=(start, count),
    )


@dataclass(frozen=True)
class DivergenceDiagnosis:
    """Localized first point of control divergence (LOCALIZE output).

    Produced by :class:`DeterminismMonitor` under ``localize=True``: after
    a window hash mismatch, the per-call digests of the span are
    allgathered and the first divergent call index found by binary search
    over per-shard digest prefixes.  ``divergent_shards`` are the shards whose digest at
    ``seq`` differs from the majority digest (ties break toward the digest
    held by the lowest shard id).
    """

    seq: int                                  # global API-call index
    shard_ids: Tuple[int, ...]                # shards compared, ascending
    shard_digests: Tuple[int, ...]            # 128-bit digest at seq, per shard
    descriptions: Tuple[str, ...]             # call description at seq, per shard
    divergent_shards: Tuple[int, ...]         # minority shards at seq
    majority_digest: int
    call_counts: Tuple[int, ...]              # total calls recorded, per shard
    window: Tuple[int, int]                   # (start, count) of failed window

    def summary(self) -> str:
        pairs = ", ".join(
            f"shard {s}: {d!r}" for s, d in zip(self.shard_ids,
                                                self.descriptions))
        return (f"first divergence at API call #{self.seq} on shard(s) "
                f"{list(self.divergent_shards)} — {pairs}")


class ControlDeterminismViolation(RuntimeError):
    """Raised when shards diverge in their sequence of runtime API calls.

    Beyond the formatted message, carries structured fields so recovery
    policies (and tests) never have to parse strings:

    * ``seq`` — first divergent (or first missing) API-call index;
    * ``descriptions`` — per-shard call description at ``seq``;
    * ``shard_digests`` — per-shard 128-bit digest at ``seq`` (None for the
      unequal-count case, where the short shards made no call at ``seq``);
    * ``shard_ids`` — which shard each entry of the parallel lists refers
      to (defaults to 0..n-1);
    * ``call_counts`` — per-shard total recorded calls (unequal-count case);
    * ``diagnosis`` — full :class:`DivergenceDiagnosis` when LOCALIZE ran.
    """

    def __init__(self, seq: int, descriptions: Sequence[str],
                 shard_digests: Optional[Sequence[int]] = None,
                 shard_ids: Optional[Sequence[int]] = None,
                 call_counts: Optional[Sequence[int]] = None,
                 diagnosis: Optional[DivergenceDiagnosis] = None):
        self.seq = seq
        self.descriptions = list(descriptions)
        self.shard_digests = list(shard_digests) if shard_digests else None
        self.shard_ids = (list(shard_ids) if shard_ids is not None
                          else list(range(len(self.descriptions))))
        self.call_counts = list(call_counts) if call_counts else None
        self.diagnosis = diagnosis
        uniq = sorted(set(self.descriptions))
        msg = (f"control determinism violated at API call #{seq}: shards "
               f"disagree — {uniq}")
        if self.call_counts:
            per = ", ".join(f"shard {s}: {c} calls" for s, c in
                            zip(self.shard_ids, self.call_counts))
            short = [s for s, c in zip(self.shard_ids, self.call_counts)
                     if c == min(self.call_counts)]
            msg += f" (unequal call counts — {per}; short: {short})"
        if diagnosis is not None:
            msg += f"; {diagnosis.summary()}"
        super().__init__(msg)

    @property
    def divergent_shards(self) -> Optional[List[int]]:
        """Culprit shards when known (diagnosis or unequal counts)."""
        if self.diagnosis is not None:
            return list(self.diagnosis.divergent_shards)
        if self.call_counts:
            lo = min(self.call_counts)
            return [s for s, c in zip(self.shard_ids, self.call_counts)
                    if c == lo]
        if self.shard_digests and self.shard_ids:
            majority = _majority(self.shard_digests)
            return [s for s, d in zip(self.shard_ids, self.shard_digests)
                    if d != majority]
        return None


#: Exact type -> how :meth:`ShardHasher._encode` encodes it.  A subclass
#: (IntEnum, namedtuple, np.int64 ...) encodes as its first base listed
#: here, in MRO order; ``object`` is a runtime resource, interned by first
#: use.  ``np.float64`` is listed to keep ``tuple(array)`` off that walk.
_KINDS = {type(None): "N", bool: "B", int: "I", float: "F", np.float64: "F",
          str: "S", bytes: "Y", tuple: "T", list: "T", dict: "D", set: "Z",
          frozenset: "Z", np.generic: "G", np.ndarray: "A", object: "R"}


class ShardHasher:
    """Per-shard API-call hasher with resource interning.

    When a :class:`~repro.faults.FaultInjector` is attached, two fault
    sites live here: ``hash_flip`` perturbs the digest (and tags the
    description) of one call — simulating a divergent control decision
    without changing the analyzed program — and ``shard_crash`` raises
    :class:`~repro.faults.ShardCrash` in place of recording a call.  Both
    are behind an ``enabled`` guard so the default path is unchanged.
    """

    def __init__(self, shard: int,
                 injector: Optional[FaultInjector] = None):
        self.shard = shard
        self.injector = injector
        self._intern: Dict[int, int] = {}
        self.calls: List[int] = []          # 128-bit hashes, in call order
        self.descriptions: List[str] = []   # human-readable, for error messages

    def intern(self, obj: Any) -> int:
        """Shard-local id for a runtime resource, by first-use order."""
        return self._intern.setdefault(id(obj), len(self._intern))

    def _encode(self, value: Any, out: List[bytes]) -> None:
        """Append the canonical byte encoding of ``value`` to ``out``."""
        kind = _KINDS.get(type(value)) or next(
            _KINDS[base] for base in type(value).__mro__ if base in _KINDS)
        if kind == "I":
            out.append(b"I" + str(value).encode())
        elif kind == "S":
            out.append(b"S" + value.encode())
        elif kind == "T":
            out.append(b"T(")
            for i, v in enumerate(value):
                if i:
                    out.append(b",")
                self._encode(v, out)
            out.append(b")")
        elif kind == "R":
            out.append(b"R" + str(self.intern(value)).encode())
        elif kind == "F":
            out.append(b"F" + value.hex().encode())
        elif kind == "B":
            out.append(b"B1" if value else b"B0")
        elif kind == "N":
            out.append(b"N")
        elif kind == "Y":
            out.append(b"Y" + value)
        elif kind == "D":
            out.append(b"D(")
            items = sorted((str(k), v) for k, v in value.items())
            for i, (k, v) in enumerate(items):
                out.append((b",S" if i else b"S") + k.encode() + b"=")
                self._encode(v, out)
            out.append(b")")
        elif kind == "Z":
            members = []
            for v in value:
                member: List[bytes] = []
                self._encode(v, member)
                members.append(b"".join(member))
            out.append(b"Z(" + b",".join(sorted(members)) + b")")
        elif kind == "G":
            # np.int64(x) hashes like int(x); a scalar with no Python
            # equivalent (longdouble, datetime64 ...) as a 0-d array.
            item = value.item()
            self._encode(item if type(item) in _KINDS else np.asarray(value),
                         out)
        else:       # "A": dtype + shape + a digest of the C-order bytes
            dtype = value.dtype
            if dtype.hasobject or dtype.kind == "V":
                raise TypeError(f"cannot hash dtype {dtype} arrays by content")
            flat = np.ascontiguousarray(value).reshape(-1).view(np.uint8)
            out.append(b"A" + dtype.str.encode() + str(value.shape).encode()
                       + hashlib.blake2b(memoryview(flat),
                                         digest_size=16).digest())

    def record(self, api_call: str, *args: Any, **kwargs: Any) -> int:
        """Hash one API call; returns the 128-bit digest as an int."""
        inj = self.injector
        faulted = False
        if inj is not None and inj.enabled:
            call = len(self.calls)
            if inj.crash_call(self.shard, call):
                raise ShardCrash(self.shard, call)
            faulted = inj.flip_call(self.shard, call)
        out = [api_call.encode()]
        for a in args:
            out.append(b"|")
            self._encode(a, out)
        for k in sorted(kwargs):
            out.append(b"|" + k.encode() + b"=")
            self._encode(kwargs[k], out)
        if faulted:
            # Perturb only the digest: the analyzed call itself is intact,
            # so recovery re-analysis reproduces the fault-free task graph
            # (Theorem 1) while the determinism check sees a divergence.
            out.append(b"|<fault-injected>")
        digest = int.from_bytes(
            hashlib.blake2b(b"".join(out), digest_size=16).digest(), "little")
        self.calls.append(digest)
        self.descriptions.append(api_call + " [faulted]" if faulted
                                 else api_call)
        return digest


#: ``final_total`` slot of a window that is a full batch, not the last
#: window of the stream.
_NOT_FINAL = -1


class _Evidence(NamedTuple):
    """One shard's account of a failed window (what LOCALIZE gathers)."""

    shard: int
    start: int
    count: int
    calls: Sequence[int]            # per-call digests of the window
    descriptions: Sequence[str]
    total: int                      # calls recorded so far
    final_total: int                # of the window


def _agree(a: Tuple, b: Tuple) -> Tuple:
    """All-reduce op of the window exchange.

    The payload is ``(window, ok)`` where ``window`` is ``(start, count,
    digest, final_total)``.  Any difference (digest, window shape, or final
    total) turns ``ok`` false on every shard in the same collective.
    """
    return (a[0], a[1] and b[1] and a[0] == b[0])


class DeterminismMonitor:
    """The windowed hash all-reduce across shards — one class, any hosting.

    The monitor is parameterised by the ``collectives`` object it is
    handed and checks the shards that object hosts: all N of them for the
    in-process :class:`~repro.core.collectives.Collectives` (the default),
    one per rank when each gang rank builds its own monitor over a
    :class:`~repro.dist.collectives.DistCollectives`.  The protocol is the
    same either way (``docs/dist.md``, "Determinism window protocol"):

    * **stage** — ``maybe_check`` is called after every recorded call and
      closes a window once ``batch`` calls are pending on every hosted
      shard; ``flush`` closes the *final* window, which also carries the
      shard's total call count.  A control-deterministic program records
      the same calls in the same order everywhere, so window boundaries
      coincide on all shards without coordination.  A larger ``batch``
      means fewer exchanges, at the cost of divergence being detected up
      to ``batch`` calls later.
    * **exchange** — each closed window is all-reduced at once as one
      ``(start, count, digest, final_total)`` tuple; any difference
      (digest, window shape, trailing extra calls) fails the check on
      *every* shard in the same collective, so all raise together and
      none deadlocks.  ``flush`` always exchanges, so a peer's extra
      trailing call is caught even when nothing else is pending.
    * **LOCALIZE** — with ``localize=True`` a failed exchange is followed
      by one all-gather of the window's per-call digests and a binary search
      for the first divergent call (:func:`locate_divergence`), raising
      with a full :class:`DivergenceDiagnosis`.  Without it the monitor
      compares only the shards it hosts: enough to name the call when it
      hosts them all, a bare ``<window mismatch>`` when it hosts one.

    ``enabled=False`` models the "No Safe" configurations of Fig. 21.

    Recovery hooks (all optional, default off):

    * ``injector`` — threaded into every :class:`ShardHasher`;
    * ``quarantine(shard)`` / ``reset_shard(shard)`` — shrink the compared
      shard set after DEGRADE, or re-admit a shard with a fresh hasher for
      RESTART (it rejoins checking at the next batch boundary, once its
      re-execution catches back up to the verified frontier).
    """

    def __init__(self, num_shards: int, batch: int = 64, enabled: bool = True,
                 collectives: Optional[ScheduledCollectives] = None,
                 profiler: Optional[Profiler] = None,
                 injector: Optional[FaultInjector] = None,
                 localize: bool = False):
        self.profiler = profiler if profiler is not None else get_profiler()
        self.collectives = collectives if collectives is not None \
            else Collectives(num_shards, profiler=self.profiler)
        if self.collectives.num_shards != num_shards:
            raise ValueError(
                f"monitor for {num_shards} shard(s) handed collectives over "
                f"{self.collectives.num_shards}")
        self.shards = self.collectives.shards
        self.injector = injector
        self.hashers = [ShardHasher(s, injector) for s in self.shards]
        self.batch = max(1, batch)
        self.enabled = enabled
        self.localize = localize
        self.checks_performed = 0
        # A monitor speaking for every shard reports on the control
        # timeline; a rank's own monitor reports on that rank's.
        self._timeline = CONTROL_SHARD if len(self.shards) == num_shards \
            else self.shards[0]
        self._live = list(self.hashers)     # hashers of active hosted shards
        self._verified = 0                  # calls agreed on by all shards

    def hasher(self, shard: int) -> ShardHasher:
        return self.hashers[self.shards.index(shard)]

    @property
    def verified(self) -> int:
        """Calls every shard has been verified to agree on so far."""
        return self._verified

    # -- shard-set management (DEGRADE / RESTART) ----------------------------

    @property
    def active_shards(self) -> List[int]:
        return [h.shard for h in self._live]

    def quarantine(self, shard: int) -> None:
        """Stop comparing ``shard``; its recorded calls are abandoned."""
        live = [h for h in self._live if h.shard != shard]
        if not live:
            raise ValueError("cannot quarantine the last active shard")
        self._live = live

    def reset_shard(self, shard: int) -> None:
        """Re-admit ``shard`` with a fresh hasher (RESTART rejoin).

        The restarted shard replays its control stream from the beginning;
        no window closes until it catches back up to the verified frontier,
        i.e. it rejoins at the next batch boundary.
        """
        active = set(self.active_shards) | {shard}
        self.hashers[self.shards.index(shard)] = ShardHasher(shard,
                                                             self.injector)
        self._live = [h for h in self.hashers if h.shard in active]

    # -- staging -------------------------------------------------------------

    def maybe_check(self) -> None:
        """Check a window once a full batch is pending on every hosted
        shard."""
        if not self.enabled:
            return
        need = self._verified + self.batch
        for h in self._live:
            if len(h.calls) < need:
                return
        self._exchange(final=False)

    def flush(self) -> None:
        """Check the remaining calls and verify equal totals everywhere.

        Always performs the final exchange (even with an empty remainder)
        so a shard that issued extra trailing calls is caught rather than
        silently ignored.
        """
        if self.enabled:
            self._exchange(final=True)

    def window_digest(self, shard: int, start: int, count: int) -> int:
        """128-bit digest of one shard's calls ``[start, start+count)``."""
        return stream_digest(self.hasher(shard).calls[start:start + count])

    # -- the collective check ------------------------------------------------

    def _hosted(self, per_shard: Dict[int, Any]) -> List[Any]:
        """One contribution per hosted shard, in shard order.  Quarantined
        slots repeat the first active shard's, so the collective keeps its
        fixed width without affecting the verdict."""
        pad = per_shard[self._live[0].shard]
        return [per_shard.get(s, pad) for s in self.shards]

    def _exchange(self, final: bool) -> None:
        """Close one window on every hosted shard and all-reduce it.

        A full-batch window spans what *all* hosted shards have recorded;
        the final one spans each shard's own rest.
        """
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        start = self._verified
        upto = min(len(h.calls) for h in self._live)
        windows = {}
        for h in self._live:
            end = len(h.calls) if final else upto
            windows[h.shard] = (start, max(0, end - start),
                                stream_digest(h.calls[start:end]),
                                len(h.calls) if final else _NOT_FINAL)
        self.checks_performed += 1
        verdicts = self.collectives.run("allreduce", self._hosted(
            {s: (w, True) for s, w in windows.items()}), _agree)
        if not all(ok for _window, ok in verdicts):
            self._diverged(windows)
        self._verified = max(start, upto)
        if prof.enabled:
            span = self._verified - start
            prof.complete(self._timeline, CAT_DETERMINISM, EV_DET_CHECK, t0,
                          prof.now_us() - t0, calls=span,
                          batch=self.checks_performed)
            prof.count("determinism.batches")
            prof.count("determinism.calls_checked", span)

    def _diverged(self, windows: Dict[int, Tuple[int, int, int, int]]
                  ) -> None:
        """Raise the structured violation; every shard takes this path.

        Evidence is one :class:`_Evidence` row per shard for the failed
        window — gathered from all shards under LOCALIZE, otherwise just
        the hosted ones.
        """
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        start = self._verified
        rows = {}
        for h in self._live:
            _, count, _, final_total = windows[h.shard]
            rows[h.shard] = _Evidence(
                h.shard, start, count, h.calls[start:start + count],
                h.descriptions[start:start + count], len(h.calls),
                final_total)
        if self.localize:
            # One all-gather moves the window's digests; quarantined slots
            # arrive as duplicates of an active shard's row and drop out.
            gathered = self.collectives.gather(self._hosted(rows))[0]
            rows = {row[0]: _Evidence(*row) for row in gathered}
        evidence = [rows[s] for s in sorted(rows)]
        shard_ids = [e.shard for e in evidence]
        totals = [e.total for e in evidence]
        if len({(e.start, e.count, e.final_total) for e in evidence}) > 1:
            # Shards disagree about how many calls exist (window shapes or
            # final totals differ): the unequal-call-count violation,
            # localized to the short shard(s).
            seq = min(totals)
            raise ControlDeterminismViolation(
                seq, [e.descriptions[seq - e.start]
                      if 0 <= seq - e.start < len(e.descriptions)
                      else "<no call>" for e in evidence],
                shard_ids=shard_ids, call_counts=totals)
        per_call = [list(e.calls) for e in evidence]
        if all(calls == per_call[0] for calls in per_call):
            # Nothing to compare against: this monitor hosts one shard
            # and was not asked to gather the others.
            raise ControlDeterminismViolation(start, ["<window mismatch>"],
                                             shard_ids=shard_ids)
        diagnosis = locate_divergence(
            shard_ids, per_call, [list(e.descriptions) for e in evidence],
            totals, start, len(per_call[0]))
        if self.localize and prof.enabled:
            prof.complete(self._timeline, CAT_DETERMINISM, EV_DET_LOCALIZE,
                          t0, prof.now_us() - t0, seq=diagnosis.seq,
                          shards=list(diagnosis.divergent_shards),
                          window=len(per_call[0]))
            prof.count("determinism.localizations")
        raise ControlDeterminismViolation(
            diagnosis.seq, list(diagnosis.descriptions),
            shard_digests=list(diagnosis.shard_digests),
            shard_ids=list(diagnosis.shard_ids),
            diagnosis=diagnosis if self.localize else None)
