"""Shard-to-shard transports for the gang backends.

A :class:`Transport` gives one shard (its *rank*) tagged, reliable,
deadline-bounded message exchange with every peer shard.  Three
implementations, each behind a :class:`Fabric` — the mesh as a whole,
with one lifecycle protocol the gang launcher drives without knowing
which it holds:

* :class:`LoopbackFabric` — in-process queues, one transport per rank; the
  unit-test fabric.  Threads stand in for processes, and an optional
  ``scramble`` hook reorders deliveries to exercise the tag/sequence
  matching logic.
* :class:`SharedMemFabric` — one single-producer/single-consumer ring
  buffer in ``multiprocessing.shared_memory`` per directed (src, dst)
  channel.  Frames are written once into the ring and decoded **in
  place** on the receive side; large ndarray payloads come out as
  zero-copy views into the ring, whose slots are reclaimed only once the
  views are garbage collected.
* :class:`TCPFabric` — one TCP socket per channel carrying length-prefixed
  frames (:mod:`repro.dist.frames`), pre-connected in the parent for
  single-host gangs; :func:`connect_tcp_mesh` performs a host:port
  rendezvous so gangs can span hosts.

Delivery semantics shared by all (implemented in the base class):

* every frame carries a per-``(src, dst)`` channel **sequence number**;
  duplicates (same ``seq`` seen twice) are dropped, and out-of-order
  arrivals are resolved by the receiver's tag matching — :meth:`recv`
  returns the payload for one exact ``(kind, op, round)`` tag, buffering
  any frames that arrive for later tags.  The out-of-order window is
  bounded: a peer that skips ahead more than ``max_reorder`` sequence
  numbers (e.g. a mis-rebound post-rejoin worker) surfaces as a
  structured :class:`ReorderWindowExceeded` instead of unbounded state
  growth;
* every :meth:`recv` has a **hard deadline**: rather than hang on a dead
  or diverged peer, it raises :class:`~repro.faults.injector
  .CollectiveTimeout` carrying the caller's real ``(kind, op)`` tag and
  the actual number of poll attempts made (polling backs off
  geometrically between attempts, and resets to the base interval
  whenever a poll succeeds so bursts drain at full speed);
* a peer that closed its end (worker crash) surfaces immediately as
  :class:`PeerGone` (a ``CollectiveTimeout`` subclass), never a hang;
* a transport that has been :meth:`~Transport.close`\\ d rejects further
  ``send``/``recv`` with :class:`TransportError` — a parked secondary
  observer that cascade-closed its endpoints cannot silently push frames
  into a stale fabric.
"""

from __future__ import annotations

import os
import queue
import select
import socket
import struct
import threading
import time
import weakref
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..faults.injector import CollectiveTimeout
from .frames import (MAGIC, Frame, FrameDecoder, FrameError, decode_frame,
                     decode_frame_view, encode_frame, encode_frame_parts)

__all__ = ["TransportError", "PeerGone", "ReorderWindowExceeded",
           "Transport", "Fabric", "LoopbackFabric",
           "SharedMemFabric", "TCPFabric",
           "transport_from_claim", "fabric_for_backend",
           "connect_tcp_mesh", "PROCESS_BACKENDS",
           "DEFAULT_DEADLINE_S", "DEFAULT_RING_BYTES", "DEFAULT_MAX_REORDER"]

#: Default hard deadline on every receive.  Generous for CI machines, but
#: finite: a dead peer turns into an exception, never a hang.
DEFAULT_DEADLINE_S = 30.0

#: recv polling starts at the base interval and backs off geometrically
#: (by ``POLL_FACTOR`` per idle poll) to the cap while the channel is idle;
#: any successful poll resets it.
POLL_BASE_S = 0.0005
POLL_CAP_S = 0.05
POLL_FACTOR = 2.0

#: Bound on the per-peer out-of-order window: a frame whose seq is this far
#: above the contiguous watermark is a protocol violation, not reordering.
DEFAULT_MAX_REORDER = 4096

#: Per-channel shared-memory ring capacity.  One frame must fit
#: contiguously, so fabrics carrying large ndarray payloads should size
#: this to a few multiples of the largest expected frame.
DEFAULT_RING_BYTES = 4 * 1024 * 1024

#: Backends that run real worker processes over a fabric from this module
#: (as opposed to "loopback", which threads transports in-process).
PROCESS_BACKENDS = ("shm", "tcp")


class TransportError(RuntimeError):
    """Transport-level failure that is not a timeout."""


class ReorderWindowExceeded(TransportError):
    """A peer skipped ahead of the bounded out-of-order window.

    Carries the offending channel state so supervisors can attribute the
    violation: ``src`` (the peer), ``seq`` (the frame that overflowed the
    window), ``floor`` (the contiguous watermark), and ``window`` (the
    configured bound).
    """

    def __init__(self, rank: int, src: int, seq: int, floor: int,
                 window: int):
        super().__init__(
            f"shard {rank}: frame seq {seq} from shard {src} is "
            f"{seq - floor} ahead of the contiguous watermark {floor}, "
            f"beyond the {window}-frame reorder window (mis-rebound or "
            f"corrupted peer)")
        self.rank = rank
        self.src = src
        self.seq = seq
        self.floor = floor
        self.window = window


class PeerGone(CollectiveTimeout):
    """The peer's endpoint is closed — its worker crashed or exited early.

    Subclasses :class:`CollectiveTimeout` so callers that guard collectives
    against lost messages handle a dead peer the same way (the ISSUE's
    "crash surfaces as an exception, not a hang" requirement).
    """

    def __init__(self, kind: str, op: int, peer: int, attempts: int = 1):
        super().__init__(kind, op, msg=peer, attempts=attempts)
        self.peer = peer
        # Rewrite the generic message with the crash-specific one.
        self.args = (f"collective {kind} #{op}: shard {peer}'s endpoint is "
                     f"closed (worker crashed or exited early)",)


class Transport:
    """Tagged, sequenced, deadline-bounded exchange with peer shards.

    Subclasses implement the raw byte movement (:meth:`_send_bytes` and
    :meth:`_poll_frame`); this base class
    implements framing, per-peer sequence numbering, duplicate
    suppression, tag matching, and deadlines.  ``clock`` is injectable so
    deadline/backoff behavior is testable without real sleeps.
    """

    def __init__(self, rank: int, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 clock: Callable[[], float] = time.monotonic,
                 max_reorder: int = DEFAULT_MAX_REORDER):
        if not 0 <= rank < num_shards:
            raise ValueError(f"rank {rank} outside [0, {num_shards})")
        self.rank = rank
        self.num_shards = num_shards
        self.deadline_s = deadline_s
        self.max_reorder = max_reorder
        self._clock = clock
        self._send_seq: Dict[int, int] = {}
        # Duplicate suppression with bounded state: per peer, every seq
        # below ``_recv_floor`` has been accepted (contiguous watermark);
        # ``_recv_ahead`` holds only the out-of-order seqs above it.  A
        # persistent gang exchanges millions of frames per channel, so
        # remembering every seq ever seen (the old Set) is a leak — the
        # watermark keeps per-peer state proportional to the reorder
        # window, which is O(1) for FIFO fabrics and hard-capped at
        # ``max_reorder`` for misbehaving peers.
        self._recv_floor: Dict[int, int] = {}
        self._recv_ahead: Dict[int, Set[int]] = {}
        self._pending: Dict[Tuple[int, Tuple[str, int, int]], List[Any]] = {}
        self.frames_sent = 0
        self.frames_received = 0
        self.duplicates_dropped = 0
        self.out_of_order = 0
        self._closed = False

    # -- subclass interface --------------------------------------------------

    def _send_frame(self, dst: int, frame: Frame) -> None:
        """Encode and transmit one frame.

        The default serializes to one bytes object for
        :meth:`_send_bytes`; transports whose wire buffer can take
        scatter-gather writes (shm rings) override this to skip the
        intermediate copies.
        """
        self._send_bytes(dst, encode_frame(frame))

    def _send_bytes(self, dst: int, data: bytes) -> None:
        raise NotImplementedError

    def _poll_frame(self, src: int, timeout_s: float) -> Optional[Frame]:
        """One decoded frame from ``src``, or None if none within timeout.

        Raises :class:`PeerGone` (with a generic tag) if the peer's
        endpoint is closed, :class:`TransportError` on a corrupt frame.
        """
        raise NotImplementedError

    def close(self) -> None:
        self._closed = True

    # -- public API ----------------------------------------------------------

    def _require_open(self, what: str) -> None:
        if self._closed:
            raise TransportError(
                f"shard {self.rank}: {what} on a closed transport — this "
                f"endpoint was shut down (parked observer or torn-down "
                f"gang); rebind before reuse")

    def send(self, dst: int, kind: str, op: int, round_: int,
             payload: Any) -> None:
        """Send one tagged payload to shard ``dst``."""
        self._require_open(f"send({kind} #{op})")
        if dst == self.rank:
            raise TransportError("self-sends are not routed; loop locally")
        seq = self._send_seq.get(dst, 0)
        self._send_seq[dst] = seq + 1
        frame = Frame(kind=kind, op=op, round=round_, src=self.rank,
                      dst=dst, seq=seq, payload=payload)
        try:
            self._send_frame(dst, frame)
        except PeerGone:
            # Re-tag with the caller's collective so failure attribution
            # sees the real (kind, op) instead of a generic ("send", 0).
            raise PeerGone(kind, op, dst) from None
        self.frames_sent += 1

    def recv(self, src: int, kind: str, op: int, round_: int,
             timeout_s: Optional[float] = None) -> Any:
        """Payload of the frame tagged ``(kind, op, round_)`` from ``src``.

        Frames from ``src`` bearing other tags are buffered for later
        ``recv`` calls (out-of-order delivery is resolved here).  Raises
        :class:`CollectiveTimeout` when the deadline expires and
        :class:`PeerGone` when the peer's endpoint is closed — both carry
        the caller's tag and the actual number of poll attempts made.
        """
        self._require_open(f"recv({kind} #{op})")
        tag = (kind, op, round_)
        deadline = self._clock() + (timeout_s if timeout_s is not None
                                    else self.deadline_s)
        poll_s = POLL_BASE_S
        attempts = 0
        while True:
            bucket = self._pending.get((src, tag))
            if bucket:
                payload = bucket.pop(0)
                if not bucket:
                    # Drained buckets are deleted, not kept as empty lists:
                    # a long-lived transport sees an unbounded stream of
                    # distinct tags, one short-lived bucket each.
                    del self._pending[(src, tag)]
                return payload
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise CollectiveTimeout(kind, op, msg=src,
                                        attempts=max(1, attempts))
            attempts += 1
            try:
                frame = self._poll_frame(src, min(poll_s, remaining))
            except PeerGone:
                raise PeerGone(kind, op, src, attempts=attempts) from None
            if frame is None:
                # Geometric backoff between polls; the deadline stays hard.
                poll_s = min(poll_s * POLL_FACTOR, POLL_CAP_S)
                continue
            # A successful poll resets the backoff: a burst of buffered
            # frames (e.g. out-of-order drain) is consumed at the base
            # interval instead of the capped idle interval.
            poll_s = POLL_BASE_S
            self._accept(src, frame, expected_tag=tag)

    def _accept(self, src: int, frame: Frame,
                expected_tag: Tuple[str, int, int]) -> None:
        if frame.dst != self.rank:
            raise TransportError(
                f"misrouted frame: dst={frame.dst} arrived at {self.rank}")
        if not self._note_seq(frame.src, frame.seq):
            self.duplicates_dropped += 1
            return
        self.frames_received += 1
        if frame.tag() != expected_tag:
            self.out_of_order += 1
        self._pending.setdefault((frame.src, frame.tag()), []) \
            .append(frame.payload)

    def _note_seq(self, src: int, seq: int) -> bool:
        """Record one arrival; False if ``seq`` was already accepted.

        Contiguous watermark plus out-of-order window: seqs below the
        per-peer floor are duplicates by definition, seqs above it live in
        a small set until the floor catches up and absorbs them.  The set
        is hard-capped: a seq more than ``max_reorder`` above the floor
        raises :class:`ReorderWindowExceeded` instead of growing state
        without bound.
        """
        floor = self._recv_floor.get(src, 0)
        if seq < floor:
            return False
        if seq - floor >= self.max_reorder:
            raise ReorderWindowExceeded(self.rank, src, seq, floor,
                                        self.max_reorder)
        ahead = self._recv_ahead.setdefault(src, set())
        if seq in ahead:
            return False
        if seq == floor:
            floor += 1
            while floor in ahead:
                ahead.discard(floor)
                floor += 1
            self._recv_floor[src] = floor
        else:
            ahead.add(seq)
        return True


class Fabric:
    """The mesh a gang runs over: one protocol, three implementations.

    :mod:`repro.dist.gang` drives every fabric through these six names
    and never asks which one it holds; a fabric with nothing to do for a
    step inherits the no-op.  ``transport(rank)`` claims ``rank``'s
    endpoints (call it once, in the thread or process that is that rank);
    ``claim(rank)`` is the same thing as a message, rebuilt on the far
    side by :func:`transport_from_claim` (live rejoin).
    """

    #: The launching process must close its own copies of the endpoints
    #: once every rank is started, else a dead rank's peers never see EOF.
    parent_must_release = False

    num_shards: int

    def transport(self, rank: int) -> Transport:
        raise NotImplementedError

    def transports(self) -> List[Transport]:
        return [self.transport(r) for r in range(self.num_shards)]

    def claim(self, rank: int) -> Dict[str, Any]:
        raise NotImplementedError

    def mark_closed(self, rank: int) -> None:
        """Declare ``rank`` dead so peers polling it get :class:`PeerGone`
        (fd-based fabrics deliver that as EOF on their own)."""

    def close_other_ends(self, rank: int) -> None:
        """In the process that is ``rank``: drop every foreign endpoint."""

    def close_all(self) -> None:
        """Release everything this process still holds of the mesh."""


# ---------------------------------------------------------------------------
# Loopback (in-process) fabric
# ---------------------------------------------------------------------------

class _LoopbackTransport(Transport):
    def __init__(self, fabric: "LoopbackFabric", rank: int):
        super().__init__(rank, fabric.num_shards,
                         deadline_s=fabric.deadline_s,
                         clock=fabric.clock or time.monotonic)
        self._fabric = fabric

    def _send_bytes(self, dst: int, data: bytes) -> None:
        if self._fabric.is_closed(dst):
            # Match the process fabrics: writing to a dead peer surfaces
            # immediately (send() re-tags with the caller's collective).
            raise PeerGone("send", 0, dst)
        self._fabric.deliver(self.rank, dst, data)

    def _poll_frame(self, src: int, timeout_s: float) -> Optional[Frame]:
        q = self._fabric.channel(src, self.rank)
        try:
            raw = q.get(timeout=timeout_s)
        except queue.Empty:
            if self._fabric.is_closed(src):
                raise PeerGone("recv", 0, src) from None
            return None
        try:
            return decode_frame(raw)
        except FrameError as exc:
            raise TransportError(
                f"shard {self.rank}: corrupt frame from shard {src}: {exc}"
            ) from exc

    def close(self) -> None:
        # The queue mesh has no descriptor whose closing peers could
        # observe; say it out loud, as the shm status board does.
        super().close()
        self._fabric.mark_closed(self.rank)


class LoopbackFabric(Fabric):
    """In-process mesh of queues — the test stand-in for real IPC.

    The fabric still runs every payload through the full frame
    encode/decode path, so serialization bugs show up here too.  An
    optional ``scramble(src, dst, pending) -> list`` hook reorders (or
    duplicates) queued deliveries, modelling an adversarial network, and
    an optional ``clock`` is threaded into every transport so deadline
    and backoff behavior can be driven by a fake clock in tests.
    """

    def __init__(self, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 scramble=None,
                 clock: Optional[Callable[[], float]] = None):
        self.num_shards = num_shards
        self.deadline_s = deadline_s
        self.scramble = scramble
        self.clock = clock
        self._channels: Dict[Tuple[int, int], "queue.Queue[bytes]"] = {
            (s, d): queue.Queue()
            for s in range(num_shards) for d in range(num_shards) if s != d
        }
        self._closed: Set[int] = set()

    def transport(self, rank: int) -> Transport:
        return _LoopbackTransport(self, rank)

    def claim(self, rank: int) -> Dict[str, Any]:
        """Rejoin claim: threads share the fabric, so it travels as is."""
        return {"kind": "loopback", "rank": rank, "fabric": self}

    def channel(self, src: int, dst: int) -> "queue.Queue[bytes]":
        return self._channels[(src, dst)]

    def deliver(self, src: int, dst: int, data: bytes) -> None:
        q = self._channels[(src, dst)]
        if self.scramble is None:
            q.put(data)
            return
        # Drain, let the hook reorder/duplicate, refill.  Only used by
        # single-threaded tests, so the drain/refill window is benign.
        # The hook must see the backlog in FIFO arrival order (queue drains
        # oldest-first) with the new frame last, so an identity scramble is
        # a true no-op on delivery order.
        pending: List[bytes] = []
        while True:
            try:
                pending.append(q.get_nowait())
            except queue.Empty:
                break
        pending.append(data)
        for item in self.scramble(src, dst, pending):
            q.put(item)

    def mark_closed(self, rank: int) -> None:
        """Declare ``rank`` dead: peers polling it get :class:`PeerGone`."""
        self._closed.add(rank)

    def is_closed(self, rank: int) -> bool:
        return rank in self._closed


# ---------------------------------------------------------------------------
# Shared-memory ring fabric
# ---------------------------------------------------------------------------

class _ShmRing:
    """One direction of one channel: an SPSC byte ring in shared memory.

    Layout: 16-byte header (``head`` — total bytes published, written only
    by the producer; ``tail`` — total bytes released, written only by the
    consumer; both monotonic u64 counters) followed by ``capacity`` data
    bytes.  Frames are always stored contiguously: when one would straddle
    the end of the buffer the producer stamps a one-byte PAD marker
    (0xFF — unambiguous, the frame magic starts 0xD5) and skips to offset
    zero.  The consumer parses at its private ``_read`` cursor and
    publishes ``tail`` separately, which is what lets zero-copy ndarray
    views pin their slots: ``tail`` only advances past a frame once every
    view carved from it has been garbage collected.

    Single-producer/single-consumer with the producer publishing ``head``
    strictly after the frame body is in place; no locks needed.
    """

    HDR = 16
    PAD = 0xFF

    def __init__(self, shm, created: bool):
        self._shm = shm
        self.capacity = shm.size - self.HDR
        self._buf = shm.buf
        if created:
            struct.pack_into("<QQ", self._buf, 0, 0, 0)
            self._head = 0
            self._read = 0
        else:
            head, tail = struct.unpack_from("<QQ", self._buf, 0)
            self._head = head
            self._read = tail
        self._released = False

    @classmethod
    def create(cls, ring_bytes: int) -> "_ShmRing":
        from multiprocessing import shared_memory
        return cls(shared_memory.SharedMemory(create=True,
                                              size=ring_bytes + cls.HDR),
                   created=True)

    @classmethod
    def attach(cls, name: str) -> "_ShmRing":
        from multiprocessing import shared_memory
        # Attaching re-registers the name with the resource tracker; the
        # tracker process is inherited across fork, so this is a no-op
        # duplicate and the creating fabric's unlink clears it exactly
        # once.
        return cls(shared_memory.SharedMemory(name=name), created=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- producer side -------------------------------------------------------

    def _load_tail(self) -> int:
        return struct.unpack_from("<Q", self._buf, 8)[0]

    def try_write_parts(self, parts, n: int) -> bool:
        """Append one frame given as bytes-like pieces totalling ``n``.

        The scatter-gather fast path: pieces are copied into the ring
        back to back, so a large ndarray payload handed over as its own
        buffer (:func:`~repro.dist.frames.encode_frame_parts`) is copied
        exactly once end to end.
        """
        cap = self.capacity
        if n > cap:
            raise TransportError(
                f"frame of {n} bytes exceeds the shm ring capacity "
                f"({cap} bytes); construct the fabric with a larger "
                f"ring_bytes")
        head = self._head
        pos = head % cap
        if pos + n > cap:
            # The frame must be contiguous: stamp a PAD marker and skip to
            # offset zero.  The skipped remainder counts as live span, so
            # it must itself fit before we commit it.
            pad = cap - pos
            if (head - self._load_tail()) + pad > cap:
                return False
            self._buf[self.HDR + pos] = self.PAD
            head += pad
            self._head = head
            struct.pack_into("<Q", self._buf, 0, head)
            pos = 0
        if (head - self._load_tail()) + n > cap:
            return False
        off = self.HDR + pos
        for part in parts:
            ln = len(part)
            self._buf[off:off + ln] = part
            off += ln
        self._head = head + n
        # Publish strictly after the body so the consumer never parses a
        # half-written frame.
        struct.pack_into("<Q", self._buf, 0, self._head)
        return True

    # -- consumer side -------------------------------------------------------

    def _load_head(self) -> int:
        return struct.unpack_from("<Q", self._buf, 0)[0]

    def try_read(self) -> Optional[Tuple[memoryview, int]]:
        """``(frame_view, cursor_after)`` for the next frame, or None.

        The view aliases ring storage; the caller must :meth:`release` up
        to ``cursor_after`` once no zero-copy decode of this frame (or an
        earlier one) is still alive.
        """
        cap = self.capacity
        while True:
            head = self._load_head()
            if self._read >= head:
                return None
            rpos = self._read % cap
            first = self._buf[self.HDR + rpos]
            if first == self.PAD:
                self._read += cap - rpos
                continue
            hdr = bytes(self._buf[self.HDR + rpos:self.HDR + rpos + 6])
            if hdr[:2] != MAGIC:
                raise FrameError(f"bad frame magic {hdr[:2]!r} in shm ring")
            total = 6 + struct.unpack(">I", hdr[2:])[0]
            view = memoryview(self._buf)[self.HDR + rpos:
                                         self.HDR + rpos + total]
            self._read += total
            return view, self._read

    def release(self, upto: int) -> None:
        """Publish ``tail``: the producer may now reuse bytes below it.

        Monotonic: reap can run re-entrantly (a weakref callback firing
        under an outer reap's lock), so a stale smaller cursor must never
        move the tail backwards.
        """
        if upto > struct.unpack_from("<Q", self._buf, 8)[0]:
            struct.pack_into("<Q", self._buf, 8, upto)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view of the segment (idempotent)."""
        if self._released:
            return
        self._released = True
        try:
            self._buf = None
            self._shm.close()
        except (BufferError, OSError):
            # Exported zero-copy views still alive; the mapping dies with
            # the process instead.
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass


class _ShmStatus:
    """Tiny shared status board: per-rank pid + closed flag.

    Shared-memory rings have no file descriptor to deliver EOF, so crash
    detection is explicit: every transport announces its pid, ``close``
    raises its closed flag, and peers combine the flag with a throttled
    liveness probe (``os.kill(pid, 0)``) to turn a dead peer into
    :class:`PeerGone` instead of a hang.
    """

    STRIDE = 16  # u64 pid + u8 closed + padding

    def __init__(self, shm, created: bool):
        self._shm = shm
        self._buf = shm.buf
        self._released = False
        if created:
            self._buf[:shm.size] = b"\x00" * shm.size

    @classmethod
    def create(cls, num_shards: int) -> "_ShmStatus":
        from multiprocessing import shared_memory
        return cls(shared_memory.SharedMemory(create=True,
                                              size=cls.STRIDE * num_shards),
                   created=True)

    @classmethod
    def attach(cls, name: str) -> "_ShmStatus":
        from multiprocessing import shared_memory
        return cls(shared_memory.SharedMemory(name=name), created=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def announce(self, rank: int) -> None:
        struct.pack_into("<Q", self._buf, rank * self.STRIDE, os.getpid())

    def mark_closed(self, rank: int) -> None:
        if not self._released:      # nobody left to tell once unmapped
            self._buf[rank * self.STRIDE + 8] = 1

    def is_closed(self, rank: int) -> bool:
        return self._buf[rank * self.STRIDE + 8] == 1

    def alive(self, rank: int) -> bool:
        pid = struct.unpack_from("<Q", self._buf, rank * self.STRIDE)[0]
        if pid == 0:
            return True  # not announced yet — assume starting up
        # /proc tells zombies apart from live processes: a crashed sibling
        # stays kill(0)-visible until the common parent reaps it, which
        # would turn every crash into a full deadline stall.
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                stat = fh.read()
            return stat.rsplit(b")", 1)[1].split()[0] != b"Z"
        except FileNotFoundError:
            return False
        except OSError:
            pass
        try:
            os.kill(pid, 0)
            return True
        except ProcessLookupError:
            return False
        except PermissionError:
            return True

    def close(self) -> None:
        if self._released:
            return
        self._released = True
        try:
            self._buf = None
            self._shm.close()
        except (BufferError, OSError):
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass


class _SharedMemTransport(Transport):
    """One rank's view of the shm ring mesh; decodes frames in place."""

    #: Seconds between liveness probes of a silent peer.
    LIVENESS_INTERVAL_S = 0.05

    def __init__(self, rank: int, num_shards: int,
                 rings_out: Dict[int, _ShmRing],
                 rings_in: Dict[int, _ShmRing],
                 status: _ShmStatus,
                 deadline_s: float = DEFAULT_DEADLINE_S):
        super().__init__(rank, num_shards, deadline_s=deadline_s)
        self._rings_out = rings_out
        self._rings_in = rings_in
        self._status = status
        # Per peer: FIFO of (release_cursor, [weakref to each zero-copy
        # array] or None).  The ring tail advances through an entry only
        # once all its views are dead, in order — a frame cannot be
        # reclaimed while a later frame's slot is still pinned before it.
        self._inflight: Dict[int, deque] = {s: deque() for s in rings_in}
        # Reap runs both from the poll path and from weakref callbacks
        # (so a consumer that drops its views between collectives still
        # unblocks a stalled producer without ever polling again).  A
        # callback can fire mid-reap via GC, hence the RLock plus the
        # monotonic tail in :meth:`_ShmRing.release`.
        self._reap_lock = threading.RLock()
        # Frames drained opportunistically while a send was stalled on a
        # full outbound ring, waiting for their recv.
        self._stash: Dict[int, deque] = {s: deque() for s in rings_in}
        self._next_liveness: Dict[int, float] = {s: 0.0 for s in rings_in}
        status.announce(rank)

    def _send_frame(self, dst: int, frame: Frame) -> None:
        # Scatter-gather into the ring: the payload's own buffer is one
        # of the parts, so big arrays are copied once (array -> ring)
        # instead of thrice (tobytes -> join -> ring).
        parts, total = encode_frame_parts(frame)
        self._send_parts(dst, parts, total)

    def _send_bytes(self, dst: int, data: bytes) -> None:
        self._send_parts(dst, (data,), len(data))

    def _send_parts(self, dst: int, parts, total: int) -> None:
        ring = self._rings_out[dst]
        deadline = time.monotonic() + self.deadline_s
        while not ring.try_write_parts(parts, total):
            # Drain our inbound rings while stalled: with symmetric large
            # exchanges every peer may be mid-send, and nobody's outbound
            # ring empties until somebody consumes.
            drained = False
            for src in self._rings_in:
                while True:
                    frame = self._take_one(src)
                    if frame is None:
                        break
                    self._stash[src].append(frame)
                    drained = True
            if drained:
                continue
            if self._status.is_closed(dst) or not self._status.alive(dst):
                raise PeerGone("send", 0, dst)
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"shard {self.rank}: shm ring to shard {dst} stayed "
                    f"full for {self.deadline_s}s (receiver not draining, "
                    f"or zero-copy views pinning the ring)")
            time.sleep(0.0002)

    def _take_one(self, src: int) -> Optional[Frame]:
        """Decode the next frame from ``src``'s ring, if one is ready."""
        ring = self._rings_in[src]
        self._reap(src, ring)
        try:
            out = ring.try_read()
        except FrameError as exc:
            raise TransportError(
                f"shard {self.rank}: corrupt frame from shard {src}: "
                f"{exc}") from exc
        if out is None:
            return None
        view, cursor = out
        try:
            frame, holds = decode_frame_view(view)
        except FrameError as exc:
            raise TransportError(
                f"shard {self.rank}: corrupt frame from shard {src}: "
                f"{exc}") from exc
        if holds:
            on_dead = (lambda _r, s=src: self._reap_safe(s))
            refs = [weakref.ref(a, on_dead) for a in holds]
        else:
            refs = None
            view.release()
        self._inflight[src].append((cursor, refs))
        self._reap(src, ring)
        return frame

    def _poll_frame(self, src: int, timeout_s: float) -> Optional[Frame]:
        stash = self._stash[src]
        if stash:
            return stash.popleft()
        deadline = time.monotonic() + timeout_s
        while True:
            frame = self._take_one(src)
            if frame is not None:
                return frame
            now = time.monotonic()
            dead = self._status.is_closed(src)
            if not dead and now >= self._next_liveness[src]:
                self._next_liveness[src] = now + self.LIVENESS_INTERVAL_S
                dead = not self._status.alive(src)
            if dead:
                # A peer commits its final frames to the ring *before*
                # closing or exiting, so drain once more after observing
                # death — tcp gets the same ordering for free from
                # kernel EOF semantics (buffered data before EOF).
                frame = self._take_one(src)
                if frame is not None:
                    return frame
                raise PeerGone("recv", 0, src)
            if now >= deadline:
                return None
            time.sleep(0.0002)

    def _reap(self, src: int, ring: _ShmRing) -> None:
        """Advance the ring tail past frames whose views are all dead."""
        with self._reap_lock:
            q = self._inflight[src]
            released = None
            while q:
                cursor, refs = q[0]
                if refs is not None and any(r() is not None for r in refs):
                    break
                released = cursor
                q.popleft()
            if released is not None:
                ring.release(released)

    def _reap_safe(self, src: int) -> None:
        """Weakref-callback entry: best-effort reap, never raises."""
        try:
            self._reap(src, self._rings_in[src])
        except Exception:  # noqa: BLE001 - fired during GC/teardown
            pass

    def close(self) -> None:
        super().close()
        self._status.mark_closed(self.rank)


class SharedMemFabric(Fabric):
    """Zero-copy mesh of shared-memory rings, one per directed channel.

    Frames are written once into a per-(src, dst) SPSC ring
    (:class:`_ShmRing`) and decoded in place on the receive side; ndarray
    payloads of at least ``frames.ZERO_COPY_MIN_BYTES`` come out as views
    into the ring.
    Workers inherit the mappings across ``fork``; rejoin claims travel as
    segment *names* and reattach.  Crash detection is via a shared status
    board (pid liveness + closed flags) rather than fd EOF, so the parent
    keeps its mappings until :meth:`close_all`, which also unlinks the
    segments (exactly once, in the creating process).
    """

    def __init__(self, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 ring_bytes: int = DEFAULT_RING_BYTES):
        self.num_shards = num_shards
        self.deadline_s = deadline_s
        self.ring_bytes = ring_bytes
        self._creator_pid = os.getpid()
        self._unlinked = False
        self._rings: Dict[Tuple[int, int], _ShmRing] = {
            (s, d): _ShmRing.create(ring_bytes)
            for s in range(num_shards) for d in range(num_shards) if s != d
        }
        self._status = _ShmStatus.create(num_shards)

    def transport(self, rank: int) -> Transport:
        rings_out = {d: self._rings[(rank, d)]
                     for d in range(self.num_shards) if d != rank}
        rings_in = {s: self._rings[(s, rank)]
                    for s in range(self.num_shards) if s != rank}
        return _SharedMemTransport(rank, self.num_shards, rings_out,
                                   rings_in, self._status,
                                   deadline_s=self.deadline_s)

    def claim(self, rank: int) -> Dict[str, Any]:
        """Picklable rejoin claim: segment names, reattached on receipt."""
        return {
            "kind": "shm", "rank": rank, "num_shards": self.num_shards,
            "deadline_s": self.deadline_s,
            "rings_out": {d: self._rings[(rank, d)].name
                          for d in range(self.num_shards) if d != rank},
            "rings_in": {s: self._rings[(s, rank)].name
                         for s in range(self.num_shards) if s != rank},
            "status": self._status.name,
        }

    def mark_closed(self, rank: int) -> None:
        """Declare ``rank`` dead: peers polling it get :class:`PeerGone`."""
        self._status.mark_closed(rank)

    def close_other_ends(self, rank: int) -> None:
        """In a worker: unmap every ring not touching ``rank``."""
        for (s, d), ring in self._rings.items():
            if rank not in (s, d):
                ring.close()

    def close_all(self) -> None:
        """Unmap everything; unlink the segments if we created them."""
        for ring in self._rings.values():
            ring.close()
        self._status.close()
        if not self._unlinked and os.getpid() == self._creator_pid:
            self._unlinked = True
            for ring in self._rings.values():
                ring.unlink()
            self._status.unlink()

    def __del__(self):
        try:
            self.close_all()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# TCP socket fabric
# ---------------------------------------------------------------------------

_RECV_CHUNK = 1 << 18


class _TCPTransport(Transport):
    """One rank's sockets of the TCP mesh, with per-peer stream decoders."""

    def __init__(self, rank: int, num_shards: int,
                 socks: Dict[int, socket.socket],
                 deadline_s: float = DEFAULT_DEADLINE_S):
        super().__init__(rank, num_shards, deadline_s=deadline_s)
        self._socks = socks
        self._decoders: Dict[int, FrameDecoder] = {
            p: FrameDecoder() for p in socks}
        self._ready: Dict[int, deque] = {p: deque() for p in socks}
        for sock in socks.values():
            sock.setblocking(False)

    def _send_bytes(self, dst: int, data: bytes) -> None:
        sock = self._socks[dst]
        view = memoryview(data)
        off = 0
        deadline = time.monotonic() + self.deadline_s
        while off < len(data):
            try:
                off += sock.send(view[off:])
            except (BlockingIOError, InterruptedError):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError(
                        f"shard {self.rank}: tcp send to shard {dst} "
                        f"stalled for {self.deadline_s}s")
                # Drain inbound buffers while stalled: with symmetric
                # large exchanges every peer may be mid-send, and no
                # socket becomes writable until somebody reads.
                self._pump_incoming()
                select.select([], [sock], [], min(0.01, remaining))
            except (BrokenPipeError, ConnectionResetError, OSError):
                raise PeerGone("send", 0, dst) from None

    def _pump_incoming(self) -> None:
        """Opportunistically move readable bytes into the frame queues.

        Errors are swallowed here — EOF and corruption re-surface with
        proper attribution on the next :meth:`_poll_frame` of that peer.
        """
        by_sock = {s: p for p, s in self._socks.items()}
        try:
            readable, _, _ = select.select(list(by_sock), [], [], 0)
        except (ValueError, OSError):
            return
        for sock in readable:
            peer = by_sock[sock]
            try:
                chunk = sock.recv(_RECV_CHUNK)
            except OSError:
                continue
            if not chunk:
                continue
            try:
                self._ready[peer].extend(self._decoders[peer].feed(chunk))
            except FrameError:
                continue

    def _poll_frame(self, src: int, timeout_s: float) -> Optional[Frame]:
        ready = self._ready[src]
        if ready:
            return ready.popleft()
        sock = self._socks[src]
        try:
            readable, _, _ = select.select([sock], [], [], max(0.0,
                                                               timeout_s))
        except (ValueError, OSError):
            raise PeerGone("recv", 0, src) from None
        if not readable:
            return None
        try:
            chunk = sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return None
        except (ConnectionResetError, OSError):
            raise PeerGone("recv", 0, src) from None
        if not chunk:
            raise PeerGone("recv", 0, src)
        try:
            frames = self._decoders[src].feed(chunk)
        except FrameError as exc:
            raise TransportError(
                f"shard {self.rank}: corrupt frame from shard {src}: {exc}"
            ) from exc
        ready.extend(frames)
        return ready.popleft() if ready else None

    def close(self) -> None:
        super().close()
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class TCPFabric(Fabric):
    """Full mesh of TCP socket pairs, pre-connected in the parent.

    For a single host every pair is connected up front over loopback and
    the endpoints are inherited across ``fork``.
    For gangs spanning hosts, each rank instead builds its own transport
    with :func:`connect_tcp_mesh` against a shared address list.
    """

    parent_must_release = True

    def __init__(self, num_shards: int,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 host: str = "127.0.0.1"):
        self.num_shards = num_shards
        self.deadline_s = deadline_s
        # _ends[(a, b)] = (socket held by a, socket held by b), for a < b.
        self._ends: Dict[Tuple[int, int], Tuple[socket.socket,
                                                socket.socket]] = {}
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind((host, 0))
            listener.listen(max(1, num_shards * num_shards))
            addr = listener.getsockname()
            for a in range(num_shards):
                for b in range(a + 1, num_shards):
                    # Sequential connect-then-accept keeps the pairing
                    # deterministic on the single accept queue.
                    end_b = socket.create_connection(addr)
                    end_a, _ = listener.accept()
                    for sock in (end_a, end_b):
                        sock.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
                    self._ends[(a, b)] = (end_a, end_b)
        finally:
            listener.close()

    def _claim_socks(self, rank: int) -> Dict[int, socket.socket]:
        socks: Dict[int, socket.socket] = {}
        for (a, b), (end_a, end_b) in self._ends.items():
            if rank == a:
                socks[b] = end_a
            elif rank == b:
                socks[a] = end_b
        return socks

    def transport(self, rank: int) -> Transport:
        return _TCPTransport(rank, self.num_shards, self._claim_socks(rank),
                             deadline_s=self.deadline_s)

    def claim(self, rank: int) -> Dict[str, Any]:
        """Picklable rejoin claim (sockets pickle by descriptor dup)."""
        return {"kind": "tcp", "rank": rank, "num_shards": self.num_shards,
                "deadline_s": self.deadline_s,
                "socks": self._claim_socks(rank)}

    def close_other_ends(self, rank: int) -> None:
        """In a worker: drop every socket not belonging to ``rank``."""
        for (a, b), (end_a, end_b) in self._ends.items():
            for owner, sock in ((a, end_a), (b, end_b)):
                if owner != rank:
                    try:
                        sock.close()
                    except OSError:
                        pass

    def close_all(self) -> None:
        for end_a, end_b in self._ends.values():
            for sock in (end_a, end_b):
                try:
                    sock.close()
                except OSError:
                    pass


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportError("tcp rendezvous peer closed mid-hello")
        buf += chunk
    return buf


def connect_tcp_mesh(rank: int, num_shards: int,
                     addresses: List[Tuple[str, int]],
                     deadline_s: float = DEFAULT_DEADLINE_S,
                     listener: Optional[socket.socket] = None) -> Transport:
    """Rendezvous one rank's transport of a (possibly multi-host) mesh.

    ``addresses[r]`` is the ``(host, port)`` rank ``r`` listens on.  Each
    rank dials every lower rank (retrying until the deadline, since peers
    may not be listening yet) and sends a 4-byte hello carrying its rank;
    it then accepts one connection from every higher rank.  Pass a
    pre-bound ``listener`` to avoid bind races in tests; it is closed once
    the mesh is up.
    """
    deadline = time.monotonic() + deadline_s
    own = listener
    if own is None:
        own = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        own.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        own.bind(tuple(addresses[rank]))
        own.listen(num_shards)
    socks: Dict[int, socket.socket] = {}
    try:
        for peer in range(rank):
            while True:
                try:
                    sock = socket.create_connection(tuple(addresses[peer]),
                                                    timeout=1.0)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise TransportError(
                            f"rank {rank}: could not reach rank {peer} at "
                            f"{addresses[peer]} within {deadline_s}s")
                    time.sleep(0.05)
            sock.sendall(struct.pack(">I", rank))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks[peer] = sock
        for _ in range(num_shards - rank - 1):
            own.settimeout(max(0.1, deadline - time.monotonic()))
            try:
                sock, _ = own.accept()
            except socket.timeout:
                raise TransportError(
                    f"rank {rank}: rendezvous accept timed out with "
                    f"{num_shards - rank - 1 - len([p for p in socks if p > rank])} "
                    f"higher rank(s) missing") from None
            sock.settimeout(max(0.1, deadline - time.monotonic()))
            try:
                peer = struct.unpack(">I", _recv_exact(sock, 4))[0]
            except socket.timeout:
                raise TransportError(
                    f"rank {rank}: rendezvous hello timed out") from None
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks[peer] = sock
    finally:
        own.close()
    return _TCPTransport(rank, num_shards, socks, deadline_s=deadline_s)


# ---------------------------------------------------------------------------
# Fabric registry + rejoin claims
# ---------------------------------------------------------------------------

def fabric_for_backend(backend: str, num_shards: int,
                       deadline_s: float = DEFAULT_DEADLINE_S,
                       **kwargs) -> Fabric:
    """The fabric a gang on ``backend`` runs over.

    ``"loopback"`` is the in-process queue mesh (ranks are threads);
    ``"shm"`` and ``"tcp"`` select the shared-memory ring and TCP socket
    fabrics (ranks are forked processes).  Extra ``kwargs`` (e.g. ``ring_bytes``) go to the fabric
    constructor.
    """
    fabrics = {"loopback": LoopbackFabric, "shm": SharedMemFabric,
               "tcp": TCPFabric}
    if backend not in fabrics:
        raise ValueError(f"no fabric for backend {backend!r}; expected "
                         f"'loopback' or one of {PROCESS_BACKENDS}")
    return fabrics[backend](num_shards, deadline_s=deadline_s, **kwargs)


def transport_from_claim(claim: Dict[str, Any]) -> Transport:
    """Rebuild a transport from a fabric's :meth:`claim` in another process.

    The worker-side half of live rejoin, generalized over fabrics: tcp
    claims carry duplicated sockets (``multiprocessing`` pickles them by
    duplicating the descriptor, so the parent may close its copies
    afterwards), shm claims carry segment names to reattach, and loopback
    claims carry the (shared) fabric itself.
    """
    kind = claim["kind"]
    if kind == "loopback":
        return claim["fabric"].transport(claim["rank"])
    if kind == "tcp":
        return _TCPTransport(claim["rank"], claim["num_shards"],
                             dict(claim["socks"]),
                             deadline_s=claim["deadline_s"])
    if kind == "shm":
        rings_out = {int(d): _ShmRing.attach(name)
                     for d, name in claim["rings_out"].items()}
        rings_in = {int(s): _ShmRing.attach(name)
                    for s, name in claim["rings_in"].items()}
        status = _ShmStatus.attach(claim["status"])
        return _SharedMemTransport(claim["rank"], claim["num_shards"],
                                   rings_out, rings_in, status,
                                   deadline_s=claim["deadline_s"])
    raise TransportError(f"unknown rejoin claim kind {kind!r}")
