"""Control-determinism checking (paper §3).

DCR requires all shards to make the *same sequence of runtime API calls*
("control determinism").  The check: for every API call from a shard of a
replicated task, compute a 128-bit hash capturing the call and its actual
arguments, then verify via an (asynchronous, batched) all-reduce that all
shards produced identical hashes.  On mismatch the runtime aborts with an
error naming the first divergent operation — the paper reports this is
sufficient for debugging.  The monitor goes further (LOCALIZE): it
allgathers the per-call digests of the failed window and binary-searches
the first divergent call, attaching a :class:`DivergenceDiagnosis` naming
the culprit shard(s), which a serving gang's recovery reports
(:mod:`repro.resilience`) carry.

Hashing detail: :meth:`ShardHasher.record` encodes a call's whole argument
tree in one pass — scalars by value and type, containers recursively, and
NumPy arrays at any depth by dtype, shape and a 128-bit digest of their
bytes read in place, so the check never pays per element.  A runtime
resource (region, partition, index or field space, future) is encoded by
its ``structural_key``, its name by how the program built it
(:class:`~repro.regions.LogicalRegion`), never by identity or a process
counter; an unkeyed one raises ``TypeError``.  Any other object is
encoded by its class's qualified name.

The digest skeleton: a tuple whose members are only ``None``, ``bool``,
``int``, ``float``, ``str``, ``bytes`` (exactly those types, or
``np.float64``), resources, other objects and tuples of the same encodes
to bytes that cannot change while it is alive.  From its second sighting
on, its bytes are reused, keyed by its identity — never by ``==``, under
which ``1``, ``1.0`` and ``True`` collide — and the hasher holds it.  The
frontend hands the same launch domains, view specs and requirement
descriptors over and over, so a repeated call encodes only its fresh
values.  Lists, dicts, sets, arrays and subclasses are encoded anew every
time, and so is any tuple holding one.
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
           "serialise_calls", "fold_calls", "locate_divergence"]


def serialise_calls(calls: Sequence[int]) -> bytes:
    """The bytes :func:`stream_digest` folds: each per-call digest as 16
    little-endian bytes, in call order.  Serialising two streams and
    concatenating the bytes equals serialising their concatenation, so a
    stream's known tail can be kept serialised and folded after a fresh
    head (:mod:`repro.service.templates`)."""
    return b"".join([d.to_bytes(16, "little") for d in calls])


def fold_calls(serialised: bytes) -> int:
    """128-bit digest of a serialised call stream (:func:`serialise_calls`)."""
    return int.from_bytes(
        hashlib.blake2b(serialised, digest_size=16).digest(), "little")


def stream_digest(calls: Sequence[int]) -> int:
    """128-bit digest of a sequence of per-call digests.

    The canonical "control-determinism hash" of a call stream: used for
    window checks here, and by the gang backends (:mod:`repro.dist`) to
    compare whole per-shard streams across process boundaries — so every
    backend folds digests identically.
    """
    return fold_calls(serialise_calls(calls))


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

    Produced by :class:`DeterminismMonitor` after a window hash mismatch:
    the per-call digests of the span are allgathered and the first
    divergent call index found by binary search over per-shard digest
    prefixes.  ``divergent_shards`` are the shards whose digest at
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
    reports (and tests) never have to parse strings:

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
#: here, in MRO order; ``object`` is a resource (by its key) or any other
#: object (by its class).  ``np.float64`` keeps ``tuple(array)`` off it.
_KINDS = {type(None): "N", bool: "B", int: "I", float: "F", np.float64: "F",
          str: "S", bytes: "Y", tuple: "T", list: "T", dict: "D", set: "Z",
          frozenset: "Z", np.generic: "G", np.ndarray: "A", object: "R"}

#: Kinds whose bytes are a pure function of a value that cannot change,
#: when the value's type is exactly the one listed in ``_KINDS``.
_FROZEN = "NBIFSY"

#: How many tuples seen once a hasher keeps, waiting for a second sighting.
_SEEN_LIMIT = 512


class ShardHasher:
    """Per-shard API-call hasher.

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
        # The digest skeleton: id(tuple) -> (tuple, its bytes), for frozen
        # tuples seen at least twice; ``_seen`` holds those seen once.
        self._skeleton: Dict[int, Tuple[tuple, bytes]] = {}
        self._seen: Dict[int, tuple] = {}
        self.calls: List[int] = []          # 128-bit hashes, in call order
        self.descriptions: List[str] = []   # human-readable, for error messages

    def _encode(self, value: Any, out: List[bytes]) -> bool:
        """Append the canonical byte encoding of ``value`` to ``out``.

        Returns whether ``value`` is *frozen*: its bytes stay the same for
        as long as it is alive, so a tuple of frozen members may reuse its
        bytes (see :meth:`_encode_tuple`).
        """
        cls = type(value)
        if cls is tuple:
            hit = self._skeleton.get(id(value))
            if hit is not None:
                out.append(hit[1])
                return True
            return self._encode_tuple(value, out)
        if cls is list:
            out.append(b"T(")
            self._encode_items(value, out, b",")
            out.append(b")")
            return False
        kind = _KINDS.get(cls)
        exact = kind is not None
        if not exact:
            kind = next(_KINDS[base] for base in cls.__mro__
                        if base in _KINDS)
        if kind == "R":
            # A resource by its key, its bytes cached on it (a key never
            # changes once set); any other object (no such slot) by class.
            key = getattr(value, "structural_bytes", cls)
            if key is cls:
                key = b"O" + cls.__qualname__.encode()
            elif key is None:
                if value.structural_key is None:
                    raise TypeError(f"{value!r} has no structural key")
                key = value.structural_bytes = \
                    b"R" + repr(value.structural_key).encode()
            out.append(key)
            return True
        if kind == "I":
            out.append(b"I" + str(value).encode())
        elif kind == "S":
            out.append(b"S" + value.encode())
        elif kind == "T":
            out.append(b"T(")
            self._encode_items(value, out, b",")
            out.append(b")")
            return False
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
        return exact and kind in _FROZEN

    def _encode_items(self, values: Any, out: List[bytes],
                      sep: bytes) -> bool:
        """Encode members with ``sep`` between them; whether all are frozen.

        The members a launch is made of — strings, ints, floats and tuples
        already in the skeleton — are encoded here without a call.
        """
        skeleton = self._skeleton
        frozen = True
        first = True
        for v in values:
            if first:
                first = False
            else:
                out.append(sep)
            cls = type(v)
            if cls is str:
                out.append(b"S" + v.encode())
            elif cls is int:
                out.append(b"I" + str(v).encode())
            elif cls is float:
                out.append(b"F" + v.hex().encode())
            elif cls is tuple:
                hit = skeleton.get(id(v))
                if hit is not None:
                    out.append(hit[1])
                elif not self._encode_tuple(v, out):
                    frozen = False
            elif not self._encode(v, out):
                frozen = False
        return frozen

    def _encode_tuple(self, value: tuple, out: List[bytes]) -> bool:
        """Encode a tuple the skeleton does not hold; whether it is frozen.

        The skeleton is keyed by identity, never by ``==`` (``1``, ``1.0``
        and ``True`` are equal and encode differently), and holds the
        tuple, so its id cannot pass to another object while the entry
        lives.  A frozen tuple enters it on its second sighting: one built
        afresh for every call waits in ``_seen``, which is dropped when
        full, and costs no more than its encoding.
        """
        start = len(out)
        out.append(b"T(")
        frozen = self._encode_items(value, out, b",")
        out.append(b")")
        if frozen:
            key, seen = id(value), self._seen
            if seen.pop(key, None) is not None:
                self._skeleton[key] = (value, b"".join(out[start:]))
            else:
                if len(seen) >= _SEEN_LIMIT:
                    seen.clear()
                seen[key] = value
        return frozen

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
        if args:
            out.append(b"|")
            self._encode_items(args, out, b"|")
        for k in sorted(kwargs):
            out.append(b"|" + k.encode() + b"=")
            self._encode(kwargs[k], out)
        if faulted:
            # Perturb only the digest: the analyzed call itself is intact,
            # so the task graph is the fault-free one while the determinism
            # check sees a divergence.
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
    * **LOCALIZE** — a failed exchange is followed by one all-gather of
      the window's per-call digests and a binary search for the first
      divergent call (:func:`locate_divergence`), raising with a full
      :class:`DivergenceDiagnosis`.

    ``enabled=False`` models the "No Safe" configurations of Fig. 21.  An
    ``injector`` is threaded into every :class:`ShardHasher`.  The monitor
    only detects and localizes: every hosted shard is compared in every
    window, and a violation is raised, never healed here.
    """

    def __init__(self, num_shards: int, batch: int = 64, enabled: bool = True,
                 collectives: Optional[ScheduledCollectives] = None,
                 profiler: Optional[Profiler] = None,
                 injector: Optional[FaultInjector] = None):
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
        self.checks_performed = 0
        # A monitor speaking for every shard reports on the control
        # timeline; a rank's own monitor reports on that rank's.
        self._timeline = CONTROL_SHARD if len(self.shards) == num_shards \
            else self.shards[0]
        self._verified = 0                  # calls agreed on by all shards

    def hasher(self, shard: int) -> ShardHasher:
        return self.hashers[self.shards.index(shard)]

    @property
    def verified(self) -> int:
        """Calls every shard has been verified to agree on so far."""
        return self._verified

    # -- staging -------------------------------------------------------------

    def maybe_check(self) -> None:
        """Check a window once a full batch is pending on every hosted
        shard."""
        if not self.enabled:
            return
        need = self._verified + self.batch
        for h in self.hashers:
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

    # -- the collective check ------------------------------------------------

    def _hosted(self, per_shard: Dict[int, Any]) -> List[Any]:
        """One contribution per hosted shard, in shard order."""
        return [per_shard[s] for s in self.shards]

    def _exchange(self, final: bool) -> None:
        """Close one window on every hosted shard and all-reduce it.

        A full-batch window spans what *all* hosted shards have recorded;
        the final one spans each shard's own rest.
        """
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        start = self._verified
        upto = min(len(h.calls) for h in self.hashers)
        windows = {}
        for h in self.hashers:
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
        window, gathered from all shards.
        """
        prof = self.profiler
        t0 = prof.now_us() if prof.enabled else 0.0
        start = self._verified
        rows = {}
        for h in self.hashers:
            _, count, _, final_total = windows[h.shard]
            rows[h.shard] = _Evidence(
                h.shard, start, count, h.calls[start:start + count],
                h.descriptions[start:start + count], len(h.calls),
                final_total)
        # One all-gather moves the window's digests.
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
        diagnosis = locate_divergence(
            shard_ids, per_call, [list(e.descriptions) for e in evidence],
            totals, start, len(per_call[0]))
        if prof.enabled:
            prof.complete(self._timeline, CAT_DETERMINISM, EV_DET_LOCALIZE,
                          t0, prof.now_us() - t0, seq=diagnosis.seq,
                          shards=list(diagnosis.divergent_shards),
                          window=len(per_call[0]))
            prof.count("determinism.localizations")
        raise ControlDeterminismViolation(
            diagnosis.seq, list(diagnosis.descriptions),
            shard_digests=list(diagnosis.shard_digests),
            shard_ids=list(diagnosis.shard_ids),
            diagnosis=diagnosis)
